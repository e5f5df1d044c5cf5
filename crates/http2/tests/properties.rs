//! Properties of the HTTP/2 substrate: codec and HPACK round-trips over
//! arbitrary inputs, decoder totality over arbitrary bytes, and
//! connection-level conservation under every send policy.

use std::collections::HashMap;

use h2priv_http2::hpack::{Decoder, Encoder, HeaderField};
use h2priv_http2::{
    encode_frame, ErrorCode, Frame, FrameDecodeError, FrameDecoder, H2Config, H2Connection,
    H2Event, SendPolicy, StreamId,
};
use h2priv_netsim::prop::{self, Gen};

/// A string of `len` characters drawn from `chars`.
fn string(g: &mut Gen, chars: &[u8], len: impl std::ops::RangeBounds<usize>) -> String {
    g.vec(len, |g| char::from(g.pick(chars)))
        .into_iter()
        .collect()
}

/// A header named `[a-z][a-z0-9-]{0,20}` with a printable-ASCII value of up
/// to 40 characters.
fn header(g: &mut Gen) -> HeaderField {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    let printable: Vec<u8> = (b' '..=b'~').collect();
    let name = string(g, LOWER, 1..=1) + &string(g, NAME, 0..=20);
    HeaderField::new(name, string(g, &printable, 0..=40))
}

/// Optional padding, as a padding defense's schedule would set it.
fn pad(g: &mut Gen) -> Option<u8> {
    g.bool().then(|| g.any())
}

fn frame(g: &mut Gen) -> Frame {
    match g.range(0u32..5) {
        0 => Frame::Data {
            stream_id: StreamId(g.range(1..1_000)),
            end_stream: g.bool(),
            data: g.bytes(0..2_048).into(),
            pad: pad(g),
        },
        1 => Frame::Headers {
            stream_id: StreamId(g.range(1..1_000)),
            end_stream: g.bool(),
            header_block: g.bytes(0..256),
            pad: pad(g),
        },
        2 => Frame::RstStream {
            stream_id: StreamId(g.range(1..1_000)),
            error_code: ErrorCode::from_u32(g.range(0..14)),
        },
        3 => Frame::Ping {
            ack: g.bool(),
            data: g.any::<u64>().to_be_bytes(),
        },
        _ => Frame::WindowUpdate {
            stream_id: StreamId(g.range(0..1_000)),
            increment: g.range(1..0x7FFF_FFFF),
        },
    }
}

/// Any frame survives encode → decode exactly.
#[test]
fn frame_codec_roundtrips() {
    prop::check("frame_codec_roundtrips", 128, |g| {
        let frame = frame(g);
        let mut dec = FrameDecoder::new(false);
        dec.push(&encode_frame(&frame));
        assert_eq!(dec.next_frame().unwrap(), Some(frame));
        assert_eq!(dec.next_frame().unwrap(), None);
    });
}

/// Streams `wire` through `next_frame_borrowed` in chunks of random sizes,
/// as `H2Connection::recv` feeds it, up to the first error.
fn stream_frames(g: &mut Gen, mut wire: &[u8]) -> Result<Vec<Frame>, FrameDecodeError> {
    let mut dec = FrameDecoder::new(false);
    let mut got = Vec::new();
    let max = g.pick(&[1, 8, 64, 4_096]);
    while !wire.is_empty() {
        let (mut chunk, rest) = wire.split_at(g.range(1..=max).min(wire.len()));
        wire = rest;
        while let Some(f) = dec.next_frame_borrowed(&mut chunk)? {
            got.push(f);
        }
        assert!(chunk.is_empty(), "Ok(None) leaves no input behind");
    }
    Ok(got)
}

/// A frame stream survives being cut in two anywhere, and being streamed
/// in chunks of any size (the partial-frame stash and its top-up).
#[test]
fn frame_decoder_is_chunking_invariant() {
    prop::check("frame_decoder_is_chunking_invariant", 128, |g| {
        let frames = g.vec(1..8, frame);
        let wire: Vec<u8> = frames.iter().flat_map(encode_frame).collect();
        let mid = g.range(0..=wire.len());
        let mut dec = FrameDecoder::new(false);
        let mut got = Vec::new();
        for part in [&wire[..mid], &wire[mid..]] {
            dec.push(part);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(stream_frames(g, &wire), Ok(frames));
    });
}

/// HPACK round-trips header lists through one stateful encoder/decoder
/// pair, across several blocks.
#[test]
fn hpack_roundtrips_statefully() {
    prop::check("hpack_roundtrips_statefully", 128, |g| {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for headers in g.vec(1..6, |g| g.vec(0..12, header)) {
            let wire = enc.encode(&headers);
            assert_eq!(dec.decode(&wire).unwrap(), headers);
        }
    });
}

/// Decoding arbitrary bytes never panics (errors are fine).
#[test]
fn hpack_decoder_total() {
    prop::check("hpack_decoder_total", 2_048, |g| {
        let _ = Decoder::new().decode(&g.bytes(0..256));
    });
}

/// Frame decoding of arbitrary bytes never panics, pushed whole or
/// streamed in chunks.
#[test]
fn frame_decoder_total() {
    prop::check("frame_decoder_total", 2_048, |g| {
        let bytes = g.bytes(0..512);
        let mut dec = FrameDecoder::new(false);
        dec.push(&bytes);
        for _ in 0..16 {
            if !matches!(dec.next_frame(), Ok(Some(_))) {
                break;
            }
        }
        let _ = stream_frames(g, &bytes);
    });
}

/// Delivers everything `from` has queued to `to`, flattening split DATA
/// sends to their wire bytes; panics on protocol errors. True if anything
/// moved.
fn pump(from: &mut H2Connection, to: &mut H2Connection) -> bool {
    let mut wire = Vec::new();
    let mut moved = false;
    while let Some(out) = from.poll_send() {
        wire.clear();
        out.write_wire_into(&mut wire);
        to.recv(&wire).unwrap();
        moved = true;
    }
    moved
}

/// Shuttles frames between two connections until both are quiet.
fn shuttle(a: &mut H2Connection, b: &mut H2Connection) {
    while pump(a, b) | pump(b, a) {}
}

/// Conservation: every request gets a response, bytes sent on each stream
/// equal bytes received, and no send policy, frame size or padding
/// schedule loses data.
#[test]
fn connection_conserves_bytes() {
    prop::check("connection_conserves_bytes", 64, |g| {
        let sizes = g.vec(1..10, |g| g.range(1usize..30_000));
        let policy = match g.range(0u32..3) {
            0 => SendPolicy::RoundRobin,
            1 => SendPolicy::Sequential,
            _ => SendPolicy::RandomOrder {
                seed: g.range(0..1_000),
            },
        };
        let mut client = H2Connection::new_client(H2Config::default());
        let mut server = H2Connection::new_server(H2Config {
            send_policy: policy,
            data_chunk_size: g.range(256..4_096),
            data_pad_quantum: g.pick(&[0, 16, 256]),
            headers_pad_quantum: g.pick(&[0, 64]),
            ..H2Config::default()
        });
        shuttle(&mut client, &mut server);
        let ids: Vec<StreamId> = (0..sizes.len())
            .map(|i| {
                let path = HeaderField::new(":path", format!("/{i}"));
                client.open_stream(&[path], true).unwrap()
            })
            .collect();
        shuttle(&mut client, &mut server);
        while server.poll_event().is_some() {}
        let status = [HeaderField::new(":status", "200")];
        for (&id, &size) in ids.iter().zip(&sizes) {
            server.send_headers(id, &status, false).unwrap();
            server.send_data(id, &vec![id.0 as u8; size], true).unwrap();
        }
        shuttle(&mut client, &mut server);
        let mut received = HashMap::new();
        while let Some(ev) = client.poll_event() {
            if let H2Event::Data {
                stream_id, data, ..
            } = ev
            {
                *received.entry(stream_id).or_insert(0usize) += data.len();
            }
        }
        for (id, &size) in ids.iter().zip(&sizes) {
            assert_eq!(
                received.get(id).copied().unwrap_or(0),
                size,
                "stream {id:?}"
            );
        }
        assert_eq!(
            server.stats().data_bytes_sent,
            client.stats().data_bytes_received
        );
    });
}
