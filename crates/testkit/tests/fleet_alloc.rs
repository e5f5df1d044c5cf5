//! Batched host-pump allocation regression test.
//!
//! The fleet arena amortizes host work by pumping every dirty host per
//! scheduler step with one shared scratch buffer. The cost model that
//! makes that cheap lives in the outbound stage: each pass drains the
//! HTTP/2 mux, gather-seals every frame's wire parts (`[frame header,
//! shared body, tail padding]`, through
//! `TlsSession::seal_app_data_parts_into`) into **one** run buffer, and
//! hands TCP a single shared chunk — one buffer and one `Arc` per pass
//! instead of one `Vec` per record or frame, with the run buffer recycled
//! from the rope's fully-acked chunks. This binary rebuilds that exact
//! pass from the public tcp/tls/http2 APIs, installs the
//! allocation-counting global allocator, and proves steady-state
//! allocations scale with pump *passes*, not with sealed *records*.

use h2priv_bytes::count_alloc::{measure, CountingAlloc};
use h2priv_bytes::SharedBytes;
use h2priv_http2::{H2Config, H2Connection, HeaderField};
use h2priv_netsim::SimTime;
use h2priv_tcp::{TcpConfig, TcpConnection};
use h2priv_tls::{Role, TlsSession};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const KEY: u64 = 0xF1EE_7A11;
/// The testkit host's default socket-buffer cap.
const SOCKET_LIMIT: usize = 64 * 1024;

struct Endpoint {
    tcp: TcpConnection,
    tls: TlsSession,
    h2: H2Connection,
}

impl Endpoint {
    /// One outbound stage pass, mirroring the host pump: drain the mux
    /// into `run` under the send-buffer limit, one gather-sealed record
    /// per frame, then enqueue the whole run as a single shared chunk.
    fn flush(&mut self, run: &mut Vec<u8>) {
        if run.capacity() == 0 {
            *run = self.tcp.take_send_spare().unwrap_or_default();
        }
        run.clear();
        let limit = SOCKET_LIMIT.min(2 * self.tcp.cwnd());
        while self.tcp.buffered() + run.len() < limit {
            let Some(out) = self.h2.poll_send() else {
                break;
            };
            self.tls
                .seal_app_data_parts_into(&out.wire_parts(), run)
                .expect("established session seals");
            self.h2.recycle_outgoing(out.bytes);
        }
        if !run.is_empty() {
            self.tcp
                .write_shared(SharedBytes::from_vec(std::mem::take(run)));
        }
    }

    /// One inbound stage pass: TCP bytes → TLS records → HTTP/2 frames.
    fn inbound(&mut self, wire: &mut Vec<u8>, app: &mut Vec<u8>) {
        wire.clear();
        self.tcp.read_into(wire);
        if wire.is_empty() {
            return;
        }
        app.clear();
        let out = self.tls.receive_into(wire, app).expect("clean records");
        if !out.reply.is_empty() {
            self.tcp.write(&out.reply);
        }
        if !app.is_empty() {
            self.h2.recv(app).expect("clean frames");
        }
    }
}

fn deliver(a: &mut Endpoint, b: &mut Endpoint, now: SimTime) {
    loop {
        let mut moved = false;
        while let Some(seg) = a.tcp.poll_transmit(now) {
            b.tcp.on_segment(seg, now);
            moved = true;
        }
        while let Some(seg) = b.tcp.poll_transmit(now) {
            a.tcp.on_segment(seg, now);
            moved = true;
        }
        if !moved {
            break;
        }
    }
}

fn stack_pair() -> (Endpoint, Endpoint) {
    // TCP handshake.
    let mut c_tcp = TcpConnection::client(TcpConfig::default());
    let mut s_tcp = TcpConnection::server(TcpConfig::default());
    loop {
        let mut moved = false;
        while let Some(seg) = c_tcp.poll_transmit(SimTime::ZERO) {
            s_tcp.on_segment(seg, SimTime::ZERO);
            moved = true;
        }
        while let Some(seg) = s_tcp.poll_transmit(SimTime::ZERO) {
            c_tcp.on_segment(seg, SimTime::ZERO);
            moved = true;
        }
        if !moved {
            break;
        }
    }
    assert!(c_tcp.is_established() && s_tcp.is_established());

    // TLS handshake, out of band — the keystream only depends on the key
    // and the record sequence, not on how handshake bytes traveled.
    let mut c_tls = TlsSession::new(Role::Client, KEY);
    let mut s_tls = TlsSession::new(Role::Server, KEY);
    let hello = c_tls.initial_flight().expect("client starts");
    let out = s_tls.receive(&hello).unwrap();
    let out = c_tls.receive(&out.reply).unwrap();
    assert!(out.established_now);
    let out = s_tls.receive(&out.reply).unwrap();
    if !out.reply.is_empty() {
        c_tls.receive(&out.reply).unwrap();
    }
    assert!(c_tls.is_established() && s_tls.is_established());

    // HTTP/2: a big client receive window, so the server's body is
    // limited by the send-buffer pump, not by WINDOW_UPDATE round trips
    // this harness does not model.
    let mut client_cfg = H2Config::default();
    client_cfg.settings.initial_window_size = 4_000_000;
    client_cfg.connection_window_bonus = 16_000_000;
    let mut c = Endpoint {
        tcp: c_tcp,
        tls: c_tls,
        h2: H2Connection::new_client(client_cfg),
    };
    let mut s = Endpoint {
        tcp: s_tcp,
        tls: s_tls,
        h2: H2Connection::new_server(H2Config::default()),
    };

    // Settings exchange until both muxes are ready.
    let mut run_c = Vec::new();
    let mut run_s = Vec::new();
    let mut wire = Vec::new();
    let mut app = Vec::new();
    let mut ms = 1u64;
    while !(c.h2.is_ready() && s.h2.is_ready()) {
        let now = SimTime::from_millis(ms);
        c.flush(&mut run_c);
        deliver(&mut c, &mut s, now);
        s.inbound(&mut wire, &mut app);
        s.flush(&mut run_s);
        deliver(&mut c, &mut s, now);
        c.inbound(&mut wire, &mut app);
        ms += 1;
        assert!(ms < 100, "settings exchange did not converge");
    }
    (c, s)
}

/// Runs one request/response transfer and returns the server flush cost:
/// `(allocations, productive passes, records sealed)`.
fn transfer(c: &mut Endpoint, s: &mut Endpoint, base_ms: u64, body: usize) -> (u64, u64, u64) {
    let request = [
        HeaderField::new(":method", "GET"),
        HeaderField::new(":path", "/page"),
    ];
    let stream = c.h2.open_stream(&request, true).expect("stream opens");
    let mut run_c = Vec::new();
    let mut run_s = Vec::new();
    let mut wire = Vec::new();
    let mut app = Vec::new();
    let mut responded = false;
    let mut allocs = 0u64;
    let mut passes = 0u64;
    let records0 = s.tls.records_sealed();
    for ms in base_ms..base_ms + 5_000 {
        let now = SimTime::from_millis(ms);
        c.flush(&mut run_c);
        deliver(c, s, now);
        s.inbound(&mut wire, &mut app);
        // The request HEADERS create the stream on the server; respond as
        // soon as it exists (send_headers fails until then).
        if !responded
            && s.h2
                .send_headers(stream, &[HeaderField::new(":status", "200")], false)
                .is_ok()
        {
            s.h2.send_data_shared(stream, SharedBytes::from_vec(vec![0xC4; body]), true)
                .expect("body queues");
            responded = true;
        }
        let before = s.tls.records_sealed();
        let ((), n) = measure(|| s.flush(&mut run_s));
        let sealed_this_pass = s.tls.records_sealed() > before;
        if sealed_this_pass {
            passes += 1;
            allocs += n;
        }
        deliver(c, s, now);
        c.inbound(&mut wire, &mut app);
        // Done only when the mux had nothing left to seal AND TCP has
        // drained — the send-buffer limit spreads the body over passes.
        if responded && !sealed_this_pass && s.tcp.send_drained() {
            break;
        }
    }
    assert!(s.tcp.send_drained(), "transfer incomplete");
    (allocs, passes, s.tls.records_sealed() - records0)
}

#[test]
fn batched_outbound_flush_allocates_per_pass_not_per_record() {
    let (mut c, mut s) = stack_pair();

    // Warm-up transfer: grows the congestion window, fills the HTTP/2
    // encoder's buffer pool and the rope's recycled-chunk spare.
    transfer(&mut c, &mut s, 100, 128 * 1024);

    // Steady state: a second identical page.
    let (allocs, passes, records) = transfer(&mut c, &mut s, 10_000, 128 * 1024);

    assert!(
        records >= 64,
        "expected a chunked body, sealed {records} records"
    );
    assert!(passes >= 2, "expected multiple pump passes, got {passes}");
    assert!(
        records >= passes * 4,
        "batching collapsed: {records} records over {passes} passes"
    );
    // The whole point: the per-record `Vec` is gone. Each pass pays a
    // small constant (the `Arc` for the shared run chunk, plus occasional
    // run-buffer growth when no fully-acked chunk was reclaimable) —
    // nothing proportional to the records sealed.
    assert!(
        allocs <= passes * 4 + 16,
        "flush allocated {allocs} times over {passes} passes ({records} records)"
    );
}
