//! Microbenchmarks of the protocol substrates: the hot paths every trial
//! exercises millions of times.

use h2priv_bench::harness::{black_box, Harness};
use h2priv_bytes::SharedBytes;
use h2priv_http2::hpack::{Decoder, Encoder, HeaderField};
use h2priv_http2::{encode_frame, Frame, FrameDecoder, StreamId};
use h2priv_tcp::{Reassembler, Seq, TcpConfig, TcpConnection};
use h2priv_tls::{ContentType, RecordCipher, RecordReader, RecordScanner, RecordWriter};

fn request_headers() -> Vec<HeaderField> {
    vec![
        HeaderField::new(":method", "GET"),
        HeaderField::new(":scheme", "https"),
        HeaderField::new(":authority", "www.isidewith.com"),
        HeaderField::new(":path", "/img/parties/democratic.png"),
        HeaderField::new("user-agent", "h2priv-firefox/74.0"),
        HeaderField::new("accept", "*/*"),
    ]
}

fn bench_hpack(h: &mut Harness) {
    h.bench("hpack/encode_request_cold", || {
        let mut enc = Encoder::new();
        black_box(enc.encode(&request_headers()));
    });
    let mut warm = Encoder::new();
    warm.encode(&request_headers());
    h.bench("hpack/encode_request_warm", move || {
        black_box(warm.encode(&request_headers()));
    });
    let mut enc = Encoder::new();
    let block = enc.encode(&request_headers());
    h.bench("hpack/decode_request", move || {
        let mut dec = Decoder::new();
        black_box(dec.decode(&block).unwrap());
    });
}

fn bench_frame_codec(h: &mut Harness) {
    let frame = Frame::Data {
        stream_id: StreamId(7),
        end_stream: false,
        data: vec![0xAB; 2048].into(),
        pad: None,
    };
    {
        let frame = frame.clone();
        h.bench_throughput("frame_codec/encode_data_2k", 2048, move || {
            black_box(encode_frame(&frame));
        });
    }
    let wire = encode_frame(&frame);
    h.bench_throughput("frame_codec/decode_data_2k", 2048, move || {
        let mut dec = FrameDecoder::new(false);
        dec.push(&wire);
        black_box(dec.next_frame().unwrap());
    });
}

fn bench_tls(h: &mut Harness) {
    let payload = vec![0x5Au8; 2048];
    {
        let payload = payload.clone();
        let mut w = RecordWriter::new(RecordCipher::new(1, 1));
        h.bench_throughput("tls_records/seal_2k", 2048, move || {
            black_box(w.seal_message(ContentType::ApplicationData, &payload));
        });
    }
    {
        let payload = payload.clone();
        h.bench_throughput("tls_records/seal_open_roundtrip_2k", 2048, move || {
            let mut w = RecordWriter::new(RecordCipher::new(1, 1));
            let mut r = RecordReader::new(RecordCipher::new(1, 1));
            let wire = w.seal_message(ContentType::ApplicationData, &payload);
            r.push(&wire);
            black_box(r.next_message().unwrap());
        });
    }
    let mut w = RecordWriter::new(RecordCipher::new(1, 1));
    let wire = w.seal_message(ContentType::ApplicationData, &payload);
    h.bench_throughput("tls_records/scanner_headers_only_2k", 2048, move || {
        RecordScanner::new().scan(&wire, |record| {
            black_box(record);
        });
    });
}

fn bench_reassembly(h: &mut Harness) {
    // 100 KB delivered as 1460-byte segments, 10 % delivered out of order.
    let data: Vec<u8> = (0..100_000u32).map(|i| i as u8).collect();
    let mut chunks: Vec<(u64, SharedBytes)> = data
        .chunks(1460)
        .enumerate()
        .map(|(i, c)| ((i * 1460) as u64, SharedBytes::copy_from_slice(c)))
        .collect();
    let n = chunks.len();
    for i in (0..n.saturating_sub(1)).step_by(10) {
        chunks.swap(i, i + 1);
    }
    let bytes = data.len() as u64;
    h.bench_throughput(
        "tcp_reassembly/insert_100k_mild_reorder",
        bytes,
        move || {
            let mut r = Reassembler::new();
            for (off, c) in &chunks {
                r.insert(*off, c);
            }
            black_box(r.read());
        },
    );
}

fn bench_tcp_transfer(h: &mut Harness) {
    h.bench("tcp_connection/handshake_plus_64k_transfer", || {
        let mut client = TcpConnection::client(TcpConfig::default());
        let mut server = TcpConnection::server(TcpConfig {
            iss: Seq(9_000),
            ..TcpConfig::default()
        });
        client.write(&vec![7u8; 65_536]);
        let mut now = h2priv_netsim::SimTime::ZERO;
        for _ in 0..200 {
            let mut moved = false;
            while let Some(seg) = client.poll_transmit(now) {
                server.on_segment(seg, now);
                moved = true;
            }
            while let Some(seg) = server.poll_transmit(now) {
                client.on_segment(seg, now);
                moved = true;
            }
            if !moved {
                break;
            }
            now += h2priv_netsim::SimDuration::from_millis(1);
        }
        black_box(server.read());
    });
}

fn main() {
    let mut h = Harness::default();
    bench_hpack(&mut h);
    bench_frame_codec(&mut h);
    bench_tls(&mut h);
    bench_reassembly(&mut h);
    bench_tcp_transfer(&mut h);
    h.finish();
}
