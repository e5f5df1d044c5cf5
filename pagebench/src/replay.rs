//! Layer replays: one load's own data pushed through a single layer's
//! public API, outside the load's span, to price that layer per unit of
//! work. In-program tracing could split a load's `run_scenario` time by
//! layer directly; until it exists, replays give per-record, per-frame
//! and per-segment costs, and `netsim.run_unattributed_share` says how
//! much of a load they leave unexplained.

use h2priv_analysis::{app_data_records, extract_records, segment_bursts, WireTrace};
use h2priv_bytes::SharedBytes;
use h2priv_core::experiment::BURST_GAP;
use h2priv_core::{identify_bursts, SizeMap};
use h2priv_defense::DefenseSpec;
use h2priv_http2::hpack::{Decoder, Encoder, HeaderField};
use h2priv_http2::{encode_frame, Frame, FrameDecoder, StreamId};
use h2priv_netsim::{Dir, SimDuration, SimTime};
use h2priv_tcp::{Seq, TcpConfig, TcpConnection};
use h2priv_tls::{ContentType, Role, TlsSession};
use h2priv_web::{RequestOutcome, Website};

use crate::trace;

/// Summed work and time of the replays run in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayTotals {
    /// Loads (or fleet victim captures) replayed.
    pub loads: u64,
    /// Self time of those loads' `run_scenario` (or fleet shard) calls.
    pub run_self_ns: u64,
    pub extract_ns: u64,
    pub identify_ns: u64,
    pub records: u64,
    pub record_bytes: u64,
    pub seal_ns: u64,
    pub open_ns: u64,
    pub frames: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub blocks: u64,
    pub hpack_encode_ns: u64,
    pub hpack_decode_ns: u64,
    pub tcp_segments: u64,
    pub tcp_ns: u64,
}

impl ReplayTotals {
    pub fn add(&mut self, o: &ReplayTotals) {
        self.loads += o.loads;
        self.run_self_ns += o.run_self_ns;
        self.extract_ns += o.extract_ns;
        self.identify_ns += o.identify_ns;
        self.records += o.records;
        self.record_bytes += o.record_bytes;
        self.seal_ns += o.seal_ns;
        self.open_ns += o.open_ns;
        self.frames += o.frames;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.blocks += o.blocks;
        self.hpack_encode_ns += o.hpack_encode_ns;
        self.hpack_decode_ns += o.hpack_decode_ns;
        self.tcp_segments += o.tcp_segments;
        self.tcp_ns += o.tcp_ns;
    }

    /// Replayed TCP + TLS + HTTP/2 time: the part of a run these replays
    /// attribute to a layer.
    pub fn host_stack_ns(&self) -> u64 {
        self.tcp_ns
            + self.seal_ns
            + self.open_ns
            + self.encode_ns
            + self.decode_ns
            + self.hpack_encode_ns
            + self.hpack_decode_ns
    }
}

/// One captured load, as the replays need it.
pub struct Capture<'a> {
    pub trace: &'a WireTrace,
    pub outcomes: &'a [RequestOutcome],
    pub site: &'a Website,
    pub map: &'a SizeMap,
    pub analysis_start: Option<SimTime>,
    pub defense: DefenseSpec,
    pub run_self_ns: u64,
}

/// Runs every layer replay on `cap`. Each replay checks its own output,
/// so a codec that stops round-tripping fails the load.
pub fn replay(cap: &Capture<'_>) -> ReplayTotals {
    let mut t = ReplayTotals {
        loads: 1,
        run_self_ns: cap.run_self_ns,
        ..ReplayTotals::default()
    };
    let (records, extract_ns) = trace::scope_self("analysis.extract", || {
        let records = extract_records(cap.trace);
        let mut data = app_data_records(&records, Dir::RightToLeft);
        if let Some(start) = cap.analysis_start {
            data.retain(|r| r.time >= start);
        }
        (records, segment_bursts(&data, BURST_GAP))
    });
    t.extract_ns = extract_ns;
    let (records, bursts) = records;
    let (_, identify_ns) = trace::scope_self("core.identify", || identify_bursts(cap.map, &bursts));
    t.identify_ns = identify_ns;

    for dir in [Dir::LeftToRight, Dir::RightToLeft] {
        let lens: Vec<usize> = records
            .iter()
            .filter(|r| r.dir == dir && r.content_type == ContentType::ApplicationData)
            .map(|r| r.plaintext_len())
            .collect();
        tls_replay(&lens, dir, &mut t);
    }
    h2_replay(cap, &mut t);
    tcp_replay(cap.trace, &mut t);
    t
}

/// A handshaken client/server session pair.
fn tls_pair() -> (TlsSession, TlsSession) {
    let mut client = TlsSession::new(Role::Client, 0x5EC0_0D5E);
    let mut server = TlsSession::new(Role::Server, 0x5EC0_0D5E);
    let hello = client.initial_flight().expect("client opens");
    let flight = server.receive(&hello).expect("server flight");
    let finish = client.receive(&flight.reply).expect("client finish");
    let done = server.receive(&finish.reply).expect("server finish");
    client.receive(&done.reply).expect("client established");
    (client, server)
}

fn tls_replay(lens: &[usize], dir: Dir, t: &mut ReplayTotals) {
    let (client, server) = tls_pair();
    let (mut sealer, mut opener) = match dir {
        Dir::LeftToRight => (client, server),
        Dir::RightToLeft => (server, client),
    };
    let payload = vec![0x5A_u8; lens.iter().copied().max().unwrap_or(0)];
    let mut wire = Vec::new();
    let (_, seal_ns) = trace::scope_self("tls.seal", || {
        for &len in lens {
            sealer
                .seal_app_data_into(&payload[..len], &mut wire)
                .expect("established session seals");
        }
    });
    let mut plain = Vec::new();
    let (_, open_ns) = trace::scope_self("tls.open", || {
        opener
            .receive_into(&wire, &mut plain)
            .expect("peer opens its own records")
    });
    let bytes: usize = lens.iter().sum();
    assert_eq!(plain.len(), bytes, "TLS replay lost plaintext");
    t.records += lens.len() as u64;
    t.record_bytes += bytes as u64;
    t.seal_ns += seal_ns;
    t.open_ns += open_ns;
}

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

/// The padding a frame-quantize defense adds to a `len`-byte payload.
fn quantum_pad(len: usize, quantum: usize) -> Option<u8> {
    (quantum > 1).then(|| {
        let total = len + 1;
        (total.div_ceil(quantum) * quantum - total).min(255) as u8
    })
}

fn h2_replay(cap: &Capture<'_>, t: &mut ReplayTotals) {
    let quantum = match cap.defense {
        DefenseSpec::FrameQuantize { quantum } => quantum as usize,
        _ => 0,
    };
    let headers: Vec<Vec<HeaderField>> = cap
        .outcomes
        .iter()
        .map(|o| {
            let path = cap
                .site
                .object(o.object)
                .map_or("/", |obj| obj.path.as_str());
            request_headers(path)
        })
        .collect();
    let Some(first) = headers.first() else {
        return;
    };
    // Warm tables, as on a connection that already carried a request.
    let mut encoder = Encoder::new();
    let mut decoder = Decoder::new();
    decoder
        .decode(&encoder.encode(first))
        .expect("HPACK round-trips");
    let (blocks, encode_ns) = trace::scope_self("http2.hpack_encode", || {
        headers
            .iter()
            .map(|h| encoder.encode(h))
            .collect::<Vec<_>>()
    });
    let (decoded, decode_ns) = trace::scope_self("http2.hpack_decode", || {
        blocks
            .iter()
            .map(|b| decoder.decode(b).expect("HPACK round-trips"))
            .collect::<Vec<_>>()
    });
    assert_eq!(decoded, headers, "HPACK replay changed a header block");
    t.blocks += blocks.len() as u64;
    t.hpack_encode_ns += encode_ns;
    t.hpack_decode_ns += decode_ns;

    // One HEADERS frame plus DATA_CHUNK_SIZE DATA frames per request.
    let chunk = h2priv_testkit::calib::DATA_CHUNK_SIZE;
    let mut frames = Vec::new();
    for (k, (outcome, block)) in cap.outcomes.iter().zip(blocks).enumerate() {
        let stream_id = StreamId(2 * k as u32 + 1);
        let body = outcome.bytes as usize;
        frames.push(Frame::Headers {
            stream_id,
            end_stream: body == 0,
            pad: quantum_pad(block.len(), quantum),
            header_block: block,
        });
        let mut left = body;
        while left > 0 {
            let n = left.min(chunk);
            left -= n;
            frames.push(Frame::Data {
                stream_id,
                end_stream: left == 0,
                data: SharedBytes::zeros(n),
                pad: quantum_pad(n, quantum),
            });
        }
    }
    let (wire, encode_ns) = trace::scope_self("http2.encode", || {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }
        wire
    });
    let (decoded, decode_ns) = trace::scope_self("http2.decode", || {
        let mut dec = FrameDecoder::new(false);
        dec.set_opaque_data(true);
        dec.push(&wire);
        let mut n = 0u64;
        while dec.next_frame().expect("replayed frames decode").is_some() {
            n += 1;
        }
        n
    });
    assert_eq!(decoded, frames.len() as u64, "HTTP/2 replay lost frames");
    t.frames += decoded;
    t.encode_ns += encode_ns;
    t.decode_ns += decode_ns;
}

/// Moves the capture's TCP payload bytes, each way, over a lossless
/// zero-delay connection pair.
fn tcp_replay(capture: &WireTrace, t: &mut ReplayTotals) {
    let payload = |dir: Dir| -> usize { capture.in_dir(dir).map(|p| p.payload.len()).sum() };
    let (up, down) = (payload(Dir::LeftToRight), payload(Dir::RightToLeft));
    let mut client = TcpConnection::client(TcpConfig::default());
    let mut server = TcpConnection::server(TcpConfig {
        iss: Seq(9_000),
        ..TcpConfig::default()
    });
    let ((), ns) = trace::scope_self("tcp.transfer", || {
        client.write_shared(SharedBytes::zeros(up));
        let mut server_wrote = false;
        let (mut got_up, mut got_down) = (0, 0);
        let mut sink = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..1_000_000 {
            let mut moved = false;
            while let Some(seg) = client.poll_transmit(now) {
                server.on_segment(seg, now);
                moved = true;
            }
            if !server_wrote && server.is_established() {
                server.write_shared(SharedBytes::zeros(down));
                server_wrote = true;
            }
            while let Some(seg) = server.poll_transmit(now) {
                client.on_segment(seg, now);
                moved = true;
            }
            server.read_into(&mut sink);
            got_up += sink.len();
            sink.clear();
            client.read_into(&mut sink);
            got_down += sink.len();
            sink.clear();
            if got_up == up && got_down == down && server_wrote {
                return;
            }
            if !moved {
                now += SimDuration::from_millis(1);
                client.on_tick(now);
                server.on_tick(now);
            }
        }
        panic!("TCP replay stalled at {got_up}/{up} up, {got_down}/{down} down");
    });
    t.tcp_segments += client.stats().segments_sent + server.stats().segments_sent;
    t.tcp_ns += ns;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_pad_fills_to_the_quantum() {
        assert_eq!(quantum_pad(100, 0), None);
        assert_eq!(quantum_pad(1023, 1024), Some(0));
        assert_eq!(quantum_pad(100, 128), Some(27));
        // Capped at one pad-length octet.
        assert_eq!(quantum_pad(10, 1024), Some(255));
    }

    #[test]
    fn tls_replay_round_trips_every_record() {
        let mut t = ReplayTotals::default();
        tls_replay(&[0, 100, 16_384, 20_000], Dir::RightToLeft, &mut t);
        assert_eq!(t.records, 4);
        assert_eq!(t.record_bytes, 36_484);
    }
}
