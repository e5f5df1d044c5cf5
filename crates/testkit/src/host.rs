//! The simulated host: a full protocol stack for one endpoint.
//!
//! A [`HostCore`] owns a [`TcpConnection`], a [`TlsSession`], an
//! [`H2Connection`] and an application (the [`Browser`] on the client, the
//! [`SiteServer`] on the server, or a slow-DoS [`DosClient`]), and pumps
//! bytes between the layers. The server core additionally annotates, at
//! TLS-seal time, which TCP byte ranges carry which response's frames —
//! the [`GroundTruth`] used to score the attack.
//!
//! A core is no netsim node. The host arena ([`crate::fleet`]) holds every
//! core of one side of a shard behind one node, hands each delivered
//! segment to its core and drives the pump in two stages:
//! [`HostCore::pump_stages`] (inbound → app → outbound) and
//! [`HostCore::flush_transmit`] (drain TCP segments), with one shared
//! [`PumpScratch`] per arena.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::GroundTruth;
use h2priv_bytes::SharedBytes;
use h2priv_conformance::{H2LedgerChecker, TcpEndpointChecker, ViolationSink};
use h2priv_defense::{dummy_record_plaintext, TlsShaper};
use h2priv_dos::{Alert, DosClient, DosDetector, GuardAction, GuardStats, ServerGuard};
use h2priv_http2::{
    ErrorCode, H2Config, H2Connection, H2Event, HeaderField, OutgoingMeta, StreamId, StreamState,
};
use h2priv_netsim::{SimRng, SimTime};
use h2priv_tcp::{TcpConfig, TcpConnection, TcpSegment, TcpStats};
use h2priv_tls::{Role, TlsSession};
use h2priv_web::{Browser, BrowserCmd, ObjectId, SiteServer};

/// Reusable scratch buffers threaded through one pump pass.
///
/// One instance serves arbitrarily many [`HostCore`]s: each host arena
/// owns one, shared across every core of its side of the shard. Draining
/// N cores therefore costs zero steady-state allocations instead of N
/// per-core buffers.
#[derive(Debug, Default)]
pub(crate) struct PumpScratch {
    /// Ciphertext drained from TCP reassembly (inbound).
    wire: Vec<u8>,
    /// Decrypted application plaintext handed to HTTP/2 (inbound).
    app: Vec<u8>,
    /// Coalesced-run buffer parked here between passes that queue nothing,
    /// so an idle pump does not leak the recycled capacity it claimed.
    run: Vec<u8>,
    /// Frame metadata plus run-relative sealed byte ranges (outbound); the
    /// ground-truth annotation replays these after the single bulk write.
    spans: Vec<(OutgoingMeta, usize, usize)>,
    /// Contiguous-frame staging for the conformance oracle's send tap:
    /// split DATA frames arrive as header + shared body parts, and only
    /// checked runs pay to flatten them here.
    oracle_frame: Vec<u8>,
}

/// A free-list of recycled byte buffers shared by every host of one
/// arena (one pool per shard side).
///
/// Cores shed their idle buffers here when their page load completes
/// ([`HostCore::shed_buffers`]) and cores about to start adopt them
/// ([`HostCore::adopt_buffers`]), so a staggered fleet's heap tracks the
/// *concurrently active* page loads instead of growing with every pair
/// that ever ran. Bounded: beyond [`BufPool::MAX_BUFS`] buffers are
/// dropped (actually freed) rather than hoarded.
#[derive(Debug, Default)]
pub(crate) struct BufPool {
    bufs: Vec<Vec<u8>>,
}

impl BufPool {
    /// Enough to warm a burst of simultaneously-starting page loads;
    /// beyond this, shedding really frees.
    const MAX_BUFS: usize = 64;

    pub(crate) fn put(&mut self, mut buf: Vec<u8>) {
        if buf.capacity() > 0 && self.bufs.len() < Self::MAX_BUFS {
            buf.clear();
            self.bufs.push(buf);
        }
    }

    pub(crate) fn get(&mut self) -> Option<Vec<u8>> {
        self.bufs.pop()
    }
}

/// Endpoint-side conformance checkers attached to one host: an HTTP/2
/// flow-control/HPACK ledger fed the exact bytes this endpoint sends and
/// receives, plus a TCP checker watching every transmitted segment against
/// the connection's own state.
pub(crate) struct HostOracle {
    h2: H2LedgerChecker,
    tcp: TcpEndpointChecker,
}

impl HostOracle {
    /// Creates the checkers for one endpoint, reporting into `sink`.
    pub(crate) fn new(label: &'static str, is_client: bool, sink: ViolationSink) -> Self {
        HostOracle {
            h2: H2LedgerChecker::new(label, is_client, sink.clone()),
            tcp: TcpEndpointChecker::new(label, sink),
        }
    }
}

impl std::fmt::Debug for HostOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostOracle").finish_non_exhaustive()
    }
}

/// Endpoint shaping state attached to a host: the dummy-record schedule,
/// its private RNG stream (forked from the scenario seed, so shaping never
/// perturbs app-level randomness), and the pre-encoded dummy plaintext.
#[derive(Debug)]
struct HostShaper {
    shaper: TlsShaper,
    rng: SimRng,
    dummy: Vec<u8>,
}

/// The application running on a host.
#[derive(Debug)]
pub(crate) enum App {
    /// A browser (client role).
    Client(Browser),
    /// A website server.
    Server(SiteServer),
    /// A slow-HTTP/2 DoS client (client role, hand-rolled frames).
    Attacker(DosClient),
}

/// The protocol stack and application of one host.
#[derive(Debug)]
pub(crate) struct HostCore {
    /// Protocol stack.
    pub(crate) tcp: TcpConnection,
    tls: TlsSession,
    h2: H2Connection,
    /// The application.
    pub(crate) app: App,
    /// Ground truth collected at seal time (server writes; client ignores).
    /// `None` for fleet bystander pairs, which are load, not measurement
    /// targets — recording per-byte truth for 100k pairs would dwarf the
    /// simulation itself.
    truth: Option<Rc<RefCell<GroundTruth>>>,
    /// stream → object being served (server side). A small ordered list,
    /// not a map — a page load serves a handful of streams — and filled
    /// only when `truth` is present (it exists solely to label sealed
    /// byte ranges), so bystander pairs keep it empty.
    stream_objects: Vec<(StreamId, ObjectId)>,
    /// True once the TLS handshake completed.
    tls_established: bool,
    /// Set when the connection failed at any layer.
    pub(crate) dead: bool,
    /// The `:authority` every request carries; shared (`Rc<str>`) so a
    /// fleet shard's clients all point at one allocation.
    authority: Rc<str>,
    /// Modeled kernel socket send-buffer size: the HTTP/2 mux is pulled
    /// only while TCP's unacknowledged backlog is below this. This
    /// backpressure is what keeps several response streams pending in the
    /// mux simultaneously — i.e. what makes multiplexing happen at all.
    socket_buffer: usize,
    /// Conformance checkers, when the scenario enables the oracle. Boxed:
    /// the checkers' ledgers are by far the fattest fields a host can
    /// carry, and fleet bystanders don't carry them — `None` costs a
    /// pointer, not the full struct.
    oracle: Option<Box<HostOracle>>,
    /// Dummy-record shaping schedule (shaping defenses, server side).
    /// Boxed for the same reason as the oracle: almost every host runs
    /// without one.
    shaper: Option<Box<HostShaper>>,
    /// Slow-DoS resource guard (server side), scanned after every pump.
    /// Boxed like the oracle: almost every host runs undefended.
    guard: Option<Box<ServerGuard>>,
    /// Online DoS detector fed the decrypted client→server byte stream
    /// at the same tap point as the conformance ledger.
    detector: Option<Box<DosDetector>>,
    /// Non-ACK SETTINGS frames already billed to the pool's control plane.
    settings_billed: u64,
    /// True while this server's pool holds a parser thread for an
    /// unfinished inbound header sequence.
    parser_held: bool,
}

impl HostCore {
    /// Builds a core running `app`: the client-side stack for a browser or
    /// attacker, the server-side stack for a site server. An attacker
    /// speaks raw frames, so its `h2` connection is an unused placeholder.
    pub(crate) fn new(
        app: App,
        tcp: TcpConfig,
        h2: H2Config,
        session_key: u64,
        authority: Rc<str>,
        truth: Option<Rc<RefCell<GroundTruth>>>,
        socket_buffer: usize,
    ) -> HostCore {
        let (tcp, tls, h2) = match app {
            App::Server(_) => (
                TcpConnection::server(tcp),
                TlsSession::new(Role::Server, session_key),
                H2Connection::new_server(h2),
            ),
            App::Client(_) | App::Attacker(_) => (
                TcpConnection::client(tcp),
                TlsSession::new(Role::Client, session_key),
                H2Connection::new_client(h2),
            ),
        };
        HostCore {
            tcp,
            tls,
            h2,
            app,
            truth,
            stream_objects: Vec::new(),
            tls_established: false,
            dead: false,
            authority,
            socket_buffer,
            oracle: None,
            shaper: None,
            guard: None,
            detector: None,
            settings_billed: 0,
            parser_held: false,
        }
    }

    /// Client/server TCP statistics.
    pub(crate) fn tcp_stats(&self) -> TcpStats {
        *self.tcp.stats()
    }

    /// True when this host plays the TCP/TLS client role (honest browser
    /// or DoS attacker).
    fn is_client(&self) -> bool {
        matches!(self.app, App::Client(_) | App::Attacker(_))
    }

    /// Attaches conformance checkers; every byte pumped from here on is
    /// validated.
    pub(crate) fn set_oracle(&mut self, oracle: HostOracle) {
        self.oracle = Some(Box::new(oracle));
    }

    /// Attaches a dummy-record shaping schedule. `rng` must be a dedicated
    /// fork of the scenario seed so the schedule's draws never perturb the
    /// application's randomness.
    pub(crate) fn set_shaper(&mut self, shaper: TlsShaper, rng: SimRng) {
        self.shaper = Some(Box::new(HostShaper {
            shaper,
            rng,
            dummy: dummy_record_plaintext(),
        }));
    }

    /// Detaches the shaping schedule: the page load it padded is over, so
    /// the host seals no more dummy records and can go quiet.
    pub(crate) fn stop_shaping(&mut self) {
        self.shaper = None;
    }

    /// Dummy records this host's shaper has sealed so far (0 without one).
    pub(crate) fn shaper_dummies(&self) -> u64 {
        self.shaper.as_ref().map_or(0, |s| s.shaper.dummies_sent)
    }

    /// Attaches a slow-DoS resource guard (server side). The guard scans
    /// the connection after every pump and its shedding decisions —
    /// `RST_STREAM`/`GOAWAY` with `ENHANCE_YOUR_CALM` — are applied by the
    /// host. Without one the server runs exactly as before, bit for bit.
    pub(crate) fn set_guard(&mut self, guard: ServerGuard) {
        self.guard = Some(Box::new(guard));
    }

    /// Attaches an online DoS detector (server side). It is fed the same
    /// decrypted inbound bytes as the conformance ledger, so it sees what
    /// a gateway-side tap would.
    pub(crate) fn set_detector(&mut self, detector: DosDetector) {
        self.detector = Some(Box::new(detector));
    }

    /// The guard's shedding counters, when one is attached.
    pub(crate) fn guard_stats(&self) -> Option<GuardStats> {
        self.guard.as_ref().map(|g| g.stats())
    }

    /// Alerts the attached detector has raised (empty without one).
    pub(crate) fn dos_alerts(&self) -> Vec<Alert> {
        self.detector
            .as_ref()
            .map(|d| d.alerts().to_vec())
            .unwrap_or_default()
    }

    /// Queues the TLS first flight on a client core. Call once before the
    /// first pump; a no-op on servers.
    pub(crate) fn begin(&mut self) {
        if self.is_client() {
            if let Some(flight) = self.tls.initial_flight() {
                self.tcp.write(&flight);
            }
        }
    }

    /// The application's next scheduled wakeup, if any; the shaping
    /// schedule folds in here so an otherwise-idle host still wakes to
    /// seal dummy records.
    pub(crate) fn app_wakeup(&self) -> Option<SimTime> {
        let app = match &self.app {
            App::Client(b) => b.next_wakeup(),
            App::Server(s) => s.next_wakeup(),
            App::Attacker(a) => a.next_wakeup(),
        };
        let pad = self.shaper.as_ref().and_then(|s| s.shaper.next_wakeup());
        // Guard and detector deadlines wake an otherwise-idle server: the
        // attacks they watch for are precisely the ones that go quiet.
        let guard = self.guard.as_ref().and_then(|g| g.next_wakeup());
        let detector = self.detector.as_ref().and_then(|d| d.next_wakeup());
        earliest(earliest(app, pad), earliest(guard, detector))
    }

    /// True when this core has nothing left to send on its own: it is
    /// dead, or everything it sent is acknowledged and its application
    /// has no wakeup pending.
    pub(crate) fn is_quiet(&self) -> bool {
        self.dead || (self.tcp.send_drained() && self.app_wakeup().is_none())
    }

    /// Returns every idle buffer across the stack to `pool` — the TCP send
    /// rope's recycled chunk and drained reassembly buffer, the TLS record
    /// reader's stash, and the HTTP/2 frame-buffer pool. Called when this
    /// core's page load completes; sheds only empty capacity, so a core
    /// that receives again afterwards just reallocates small.
    pub(crate) fn shed_buffers(&mut self, pool: &mut BufPool) {
        let mut sink = |buf: Vec<u8>| pool.put(buf);
        self.tcp.shed_spare_capacity(&mut sink);
        self.tls.shed_spare_capacity(&mut sink);
        self.h2.shed_spare_capacity(&mut sink);
        self.stream_objects.shrink_to_fit();
    }

    /// Warms this core's buffers from `pool` before its first pump, so a
    /// page load starting after others finished reuses their capacity
    /// instead of growing the heap. The HTTP/2 frame pool takes at most
    /// two (frames are small; the big wins are the TCP/TLS buffers).
    pub(crate) fn adopt_buffers(&mut self, pool: &mut BufPool) {
        self.tcp.adopt_spare_capacity(&mut || pool.get());
        self.tls.adopt_spare_capacity(&mut || pool.get());
        let mut h2_budget = 2usize;
        self.h2.adopt_spare_capacity(&mut || {
            if h2_budget == 0 {
                return None;
            }
            h2_budget -= 1;
            pool.get()
        });
    }

    /// One ordered pass settling the stack: inbound → app → outbound.
    ///
    /// Inbound bytes only arrive between pumps (a packet or timer precedes
    /// every call), so inbound progresses at most once; the app stage
    /// reacts to what inbound just delivered (and to `now`); the outbound
    /// stage then drains everything the first two queued, looping
    /// internally until the send buffer fills or the mux runs dry. Neither
    /// later stage can create same-instant inbound or app work — the
    /// browser issues every due command in one `poll_cmds` call and the
    /// server drains every due response — so cycling to quiescence (as an
    /// earlier revision did) only ever bought no-progress passes.
    ///
    /// [`flush_transmit`](Self::flush_transmit) completes the pump by
    /// draining TCP's segment queue; it is separate so the arena routes
    /// the segments itself.
    pub(crate) fn pump_stages(&mut self, now: SimTime, scratch: &mut PumpScratch) {
        if !self.dead && self.tcp.is_aborted() {
            self.on_transport_death(now);
        }
        self.pump_inbound(now, scratch);
        self.pump_app(now);
        self.pump_dos(now);
        self.pump_outbound(now, scratch);
    }

    /// Drains every transmittable TCP segment through `emit`, running the
    /// endpoint conformance checker on each.
    pub(crate) fn flush_transmit(&mut self, now: SimTime, mut emit: impl FnMut(TcpSegment)) {
        while let Some(seg) = self.tcp.poll_transmit(now) {
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.tcp.on_transmit(&self.tcp, &seg, now);
            }
            emit(seg);
        }
        if self.tcp.is_aborted() && !self.dead {
            self.on_transport_death(now);
        }
    }

    fn on_transport_death(&mut self, now: SimTime) {
        self.dead = true;
        match &mut self.app {
            App::Client(b) => b.on_connection_dead(now),
            App::Server(s) => {
                // Teardown cancels every pending worker and returns all
                // held pool capacity (workers and any captured parser
                // thread) to the shard.
                if self.parser_held {
                    if let Some(pool) = s.pool() {
                        pool.borrow_mut().release_parser();
                    }
                    self.parser_held = false;
                }
                s.shutdown();
            }
            App::Attacker(_) => {}
        }
    }

    /// TCP → TLS → HTTP/2 → events.
    fn pump_inbound(&mut self, now: SimTime, scratch: &mut PumpScratch) -> bool {
        if self.dead {
            return false;
        }
        let PumpScratch { wire, app, .. } = scratch;
        wire.clear();
        self.tcp.read_into(wire);
        if wire.is_empty() {
            return false;
        }
        app.clear();
        let output = match self.tls.receive_into(wire, app) {
            Ok(o) => o,
            Err(_) => {
                self.fail_connection(now);
                return true;
            }
        };
        if !output.reply.is_empty() {
            self.tcp.write(&output.reply);
        }
        if output.established_now {
            self.tls_established = true;
            match &mut self.app {
                App::Client(b) => b.start(now),
                App::Attacker(a) => a.start(now),
                App::Server(_) => {}
            }
        }
        if !app.is_empty() {
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.h2.on_received(app, now);
            }
            if let Some(detector) = self.detector.as_mut() {
                detector.on_bytes(app, now);
            }
            if let App::Attacker(attacker) = &mut self.app {
                // The attacker parses the server's frames itself; the
                // placeholder H2Connection never sees a byte.
                attacker.on_plaintext(app, now);
            } else if self.h2.recv(app).is_err() {
                self.fail_connection(now);
                return true;
            }
        }
        self.dispatch_h2_events(now);
        true
    }

    fn fail_connection(&mut self, now: SimTime) {
        self.tcp.abort();
        self.on_transport_death(now);
    }

    fn dispatch_h2_events(&mut self, now: SimTime) {
        while let Some(event) = self.h2.poll_event() {
            match (&mut self.app, event) {
                (App::Client(b), H2Event::Headers { stream_id, .. }) => {
                    b.on_headers(stream_id, now);
                }
                (
                    App::Client(b),
                    H2Event::Data {
                        stream_id,
                        len,
                        end_stream,
                    },
                ) => {
                    b.on_data(stream_id, len, end_stream, now);
                }
                (App::Client(b), H2Event::Reset { stream_id, .. }) => {
                    b.on_reset(stream_id, now);
                }
                (App::Client(b), H2Event::GoAway { .. }) => {
                    b.on_connection_dead(now);
                }
                (
                    App::Server(s),
                    H2Event::Headers {
                        stream_id, headers, ..
                    },
                ) => {
                    let path = headers
                        .iter()
                        .find(|h| h.name == ":path")
                        .map(|h| h.value.clone())
                        .unwrap_or_default();
                    s.on_request(stream_id, &path, now);
                }
                (App::Server(s), H2Event::Reset { stream_id, .. }) => {
                    s.on_stream_reset(stream_id);
                    // A reset stream gives its pool worker back at once.
                    s.release_stream(stream_id, now);
                }
                _ => {}
            }
        }
    }

    /// Application commands → HTTP/2 calls.
    fn pump_app(&mut self, now: SimTime) -> bool {
        if self.dead || !self.tls_established {
            return false;
        }
        let mut progressed = false;
        match &mut self.app {
            App::Client(browser) => {
                let authority = &self.authority;
                for cmd in browser.poll_cmds(now) {
                    progressed = true;
                    match cmd {
                        BrowserCmd::SendRequest { req, path, .. } => {
                            let headers = vec![
                                HeaderField::new(":method", "GET"),
                                HeaderField::new(":scheme", "https"),
                                HeaderField::new(":authority", &**authority),
                                HeaderField::new(":path", path),
                                HeaderField::new("user-agent", "h2priv-firefox/74.0"),
                                HeaderField::new("accept", "*/*"),
                            ];
                            match self.h2.open_stream(&headers, true) {
                                Ok(stream) => browser.note_stream(req, stream),
                                Err(_) => { /* connection closing */ }
                            }
                        }
                        BrowserCmd::ResetStream { stream } => {
                            self.h2.send_rst(stream, ErrorCode::Cancel);
                        }
                    }
                }
            }
            App::Server(server) => {
                let record_truth = self.truth.is_some();
                for response in server.due_responses(now) {
                    progressed = true;
                    // The stream → object ledger exists only to label the
                    // ground truth's sealed ranges; without a truth sink
                    // (fleet bystanders) recording it would be dead weight.
                    if record_truth {
                        if let Some(object) = response.object {
                            self.stream_objects.push((response.stream, object));
                        }
                    }
                    // A reset may have raced the worker: ignore errors.
                    if self
                        .h2
                        .send_headers(response.stream, &response.headers, false)
                        .is_ok()
                    {
                        let _ = self
                            .h2
                            .send_data_shared(response.stream, response.body, true);
                    }
                }
            }
            // The attacker's output is pulled in pump_outbound.
            App::Attacker(_) => {}
        }
        progressed
    }

    /// Server-side DoS machinery, one pass per pump: bill inbound SETTINGS
    /// to the pool's control plane, track the parser-thread hold for an
    /// unfinished header sequence, return workers of fully-drained
    /// streams, re-try admission of parked requests (capacity may have
    /// been freed by another connection sharing the pool), run the
    /// detector's timers, and apply the guard's shedding decisions. A
    /// no-op unless a pool, guard or detector is attached.
    fn pump_dos(&mut self, now: SimTime) {
        if let Some(detector) = self.detector.as_mut() {
            detector.on_wakeup(now);
        }
        let App::Server(server) = &mut self.app else {
            return;
        };
        if let Some(pool) = server.pool().cloned() {
            let seen = self.h2.stats().settings_received;
            while self.settings_billed < seen {
                pool.borrow_mut().note_settings(now);
                self.settings_billed += 1;
            }
            // A guard-closed connection no longer parses: its blocked
            // thread was reclaimed at close and must not be re-captured
            // by the still-unfinished header sequence.
            let guard_closed = self.guard.as_ref().is_some_and(|g| g.is_closed());
            let parser_blocked = !guard_closed && self.h2.in_progress_header_stream().is_some();
            if parser_blocked && !self.parser_held {
                pool.borrow_mut().hold_parser();
                self.parser_held = true;
            } else if !parser_blocked && self.parser_held {
                pool.borrow_mut().release_parser();
                self.parser_held = false;
            }
            // Fully-served streams give their worker back: the mux closed
            // the stream when the last DATA frame drained into the wire.
            for stream in server.serving().to_vec() {
                let gone = matches!(
                    self.h2.stream_state(stream),
                    None | Some(StreamState::Closed)
                );
                if gone && self.h2.pending_data(stream) == 0 {
                    server.release_stream(stream, now);
                }
            }
            server.admit_parked(now);
        }
        if let Some(guard) = self.guard.as_mut() {
            let mut actions = Vec::new();
            guard.scan(&self.h2, now, &mut actions);
            for action in actions {
                match action {
                    GuardAction::ResetStream(stream) => {
                        self.h2.send_rst(stream, ErrorCode::EnhanceYourCalm);
                        server.on_stream_reset(stream);
                        server.release_stream(stream, now);
                    }
                    GuardAction::CloseConnection => {
                        self.h2.send_goaway(ErrorCode::EnhanceYourCalm);
                        if self.parser_held {
                            if let Some(pool) = server.pool() {
                                pool.borrow_mut().release_parser();
                            }
                            self.parser_held = false;
                        }
                        server.shutdown();
                    }
                }
            }
        }
    }

    /// HTTP/2 → TLS → TCP, with ground-truth annotation on the server.
    ///
    /// Batched: every frame the send-buffer budget admits is sealed into
    /// one coalesced run (a single keystream pass per frame, appended to
    /// one buffer), then handed to TCP as a single shared chunk. TCP
    /// segmentation slices by absolute stream offset, so coalescing is
    /// invisible on the wire; what changes is the cost model — one
    /// buffer + one `Arc` per pump pass instead of one per record, and the
    /// frame buffers returned to the HTTP/2 encoder pool. The run buffer
    /// is reused when one is free: a buffer parked by a pass that sealed
    /// nothing, or the rope's spare, the backing buffer of a fully-acked
    /// chunk that nothing else still holds. The gateway capture reads each
    /// packet in transit and keeps no view of it, so once a run is acked
    /// only a segment still in flight or held behind a receiver's gap can
    /// keep it: on a paper page load about seven sealing passes in eight
    /// start from a reused buffer.
    fn pump_outbound(&mut self, now: SimTime, scratch: &mut PumpScratch) -> bool {
        if self.dead || !self.tls_established {
            return false;
        }
        if let App::Attacker(attacker) = &mut self.app {
            // The attacker emits hand-rolled frame bytes, not mux output:
            // seal whatever is due as one record and hand it to TCP. Its
            // traffic is a trickle by design, so no send-buffer budgeting.
            let bytes = attacker.poll_wire(now);
            if bytes.is_empty() {
                return false;
            }
            if let Some(oracle) = self.oracle.as_mut() {
                oracle.h2.on_sent(&bytes, now);
            }
            let mut run = std::mem::take(&mut scratch.run);
            run.clear();
            if self.tls.seal_app_data_into(&bytes, &mut run).is_err() {
                scratch.run = run;
                return false;
            }
            self.tcp.write_shared(SharedBytes::from_vec(run));
            return true;
        }
        let mut progressed = false;
        // Kernel-style autotuned send buffer: roughly twice the congestion
        // window, capped by the configured maximum. Backpressure onto the
        // HTTP/2 mux is what makes concurrent responses interleave.
        let limit = self.socket_buffer.min(2 * self.tcp.cwnd());
        // Reuse a free buffer if there is one: the one parked in scratch
        // by a pass that sealed nothing, else the rope's spare.
        let mut run = std::mem::take(&mut scratch.run);
        if run.capacity() == 0 {
            run = self.tcp.take_send_spare().unwrap_or(run);
        }
        run.clear();
        scratch.spans.clear();
        while self.tcp.buffered() + run.len() < limit {
            let Some(out) = self.h2.poll_send() else {
                break;
            };
            progressed = true;
            if let Some(oracle) = self.oracle.as_mut() {
                // The oracle wants the frame contiguous; split DATA frames
                // are flattened into scratch, whole frames tap directly.
                if out.body.is_empty() && out.tail_pad == 0 {
                    oracle.h2.on_sent(&out.bytes, now);
                } else {
                    scratch.oracle_frame.clear();
                    out.write_wire_into(&mut scratch.oracle_frame);
                    oracle.h2.on_sent(&scratch.oracle_frame, now);
                }
            }
            let meta = out.meta;
            let start = run.len();
            // Gather seal: header, shared body chunk, and tail padding go
            // through the keystream as one message — the body is read
            // exactly once, never copied into a frame buffer first.
            if self
                .tls
                .seal_app_data_parts_into(&out.wire_parts(), &mut run)
                .is_err()
            {
                run.truncate(start);
                break;
            }
            scratch.spans.push((meta, start, run.len()));
            self.h2.recycle_outgoing(out.bytes);
        }
        // Shaping: a pass that sealed real traffic re-arms the dummy
        // schedule; a pass that sealed nothing asks the schedule whether
        // dummy records are due and seals them in-stream — through the same
        // record writer as real data, so nonce continuity (and thus the
        // oracle's `record-seq` rule) holds. Dummies go out only when the
        // real mux is silent: they fill gaps, never displace data.
        if let Some(hs) = self.shaper.as_mut() {
            if run.is_empty() {
                let due = hs.shaper.dummies_due(now, &mut hs.rng);
                for _ in 0..due {
                    if self.tcp.buffered() + run.len() >= limit {
                        break;
                    }
                    if let Some(oracle) = self.oracle.as_mut() {
                        oracle.h2.on_sent(&hs.dummy, now);
                    }
                    if self.tls.seal_app_data_into(&hs.dummy, &mut run).is_err() {
                        break;
                    }
                    progressed = true;
                }
            } else {
                hs.shaper.on_real_send(now, &mut hs.rng);
            }
        }
        if run.is_empty() {
            scratch.run = run;
            return progressed;
        }
        let base = self.tcp.total_written();
        self.tcp.write_shared(SharedBytes::from_vec(run));
        if !self.is_client() {
            if let Some(truth) = self.truth.as_ref() {
                let mut truth = truth.borrow_mut();
                for &(meta, start, end) in &scratch.spans {
                    if let OutgoingMeta::Frame {
                        stream_id,
                        end_stream,
                        frame_type,
                        ..
                    } = meta
                    {
                        use h2priv_http2::FrameType;
                        if matches!(frame_type, FrameType::Data | FrameType::Headers) {
                            let served = self
                                .stream_objects
                                .iter()
                                .rev()
                                .find(|&&(s, _)| s == stream_id)
                                .map(|&(_, o)| o);
                            if let Some(object) = served {
                                truth.add_range(
                                    base + start as u64,
                                    base + end as u64,
                                    object,
                                    stream_id,
                                );
                                if end_stream {
                                    truth.mark_complete(stream_id);
                                }
                            }
                        }
                    }
                }
            }
        }
        progressed
    }
}

/// The earlier of two optional deadlines, where `None` means no deadline.
pub(crate) fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_takes_the_earlier_deadline_and_ignores_none() {
        let (early, late) = (Some(SimTime::from_millis(1)), Some(SimTime::from_millis(2)));
        for (a, b, want) in [
            (None, None, None),
            (early, None, early),
            (None, early, early),
            (early, late, early),
            (late, early, early),
            (early, early, early),
        ] {
            assert_eq!(earliest(a, b), want, "earliest({a:?}, {b:?})");
        }
    }
}
