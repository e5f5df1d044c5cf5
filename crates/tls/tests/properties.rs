//! Properties of the TLS record layer: round-trips, chunking invariance,
//! tamper detection, totality over arbitrary bytes, and the
//! observer/endpoint agreement that the attack's analysis relies on.

use h2priv_netsim::prop::{self, Gen};
use h2priv_tls::{
    ContentType, RecordCipher, RecordReader, RecordScanner, RecordWriter, Role, SessionError,
    TlsSession, AEAD_OVERHEAD, HEADER_LEN, MAX_PLAINTEXT,
};

/// Up to `count` messages of any content type and up to `max_len` bytes.
fn messages(
    g: &mut Gen,
    count: std::ops::Range<usize>,
    max_len: usize,
) -> Vec<(ContentType, Vec<u8>)> {
    use ContentType::*;
    let types = [Handshake, ApplicationData, Alert, ChangeCipherSpec];
    g.vec(count, |g| (g.pick(&types), g.bytes(0..max_len)))
}

fn seal_all(writer: &mut RecordWriter, msgs: &[(ContentType, Vec<u8>)]) -> Vec<u8> {
    msgs.iter()
        .flat_map(|(ct, m)| writer.seal_message(*ct, m))
        .collect()
}

/// Streams server→client `wire` (label 2) into a client session that has
/// sent its hello, through `receive_into` in chunks of random sizes as the
/// host pump feeds it; the application plaintext, or the first error.
fn stream_records(g: &mut Gen, key: u64, mut wire: &[u8]) -> Result<Vec<u8>, SessionError> {
    let mut client = TlsSession::new(Role::Client, key);
    client.initial_flight();
    let mut app = Vec::new();
    let max = g.pick(&[1, 8, 64, 4_096]);
    while !wire.is_empty() {
        let (piece, rest) = wire.split_at(g.range(1..=max).min(wire.len()));
        wire = rest;
        client.receive_into(piece, &mut app)?;
    }
    Ok(app)
}

/// Message streams round-trip through seal → chunked delivery → open, both
/// pushed into a reader and streamed through a session in chunks of any
/// size (the partial-record stash and its top-up).
#[test]
fn records_roundtrip_under_any_chunking() {
    prop::check("records_roundtrip_under_any_chunking", 64, |g| {
        let key = g.any();
        // The server flight establishes the streaming client, which then
        // takes records of every content type.
        let mut msgs = vec![(ContentType::Handshake, b"server flight".to_vec())];
        msgs.extend(messages(g, 1..8, 2_000));
        let chunk = g.range(1usize..1_600);
        let wire = seal_all(&mut RecordWriter::new(RecordCipher::new(key, 2)), &msgs);
        let mut reader = RecordReader::new(RecordCipher::new(key, 2));
        let mut got = Vec::new();
        for piece in wire.chunks(chunk) {
            reader.push(piece);
            while let Some(msg) = reader.next_message().unwrap() {
                got.push((msg.content_type, msg.plaintext));
            }
        }
        assert_eq!(got, msgs);
        let app: Vec<u8> = msgs
            .iter()
            .filter(|(ct, _)| *ct == ContentType::ApplicationData)
            .flat_map(|(_, m)| m.clone())
            .collect();
        assert_eq!(stream_records(g, key, &wire), Ok(app));
    });
}

/// Oversized messages fragment and reassemble.
#[test]
fn oversized_messages_fragment() {
    prop::check("oversized_messages_fragment", 64, |g| {
        let key = g.any();
        let len = MAX_PLAINTEXT + g.range(1usize..5_000);
        let payload: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
        let mut writer = RecordWriter::new(RecordCipher::new(key, 2));
        let mut reader = RecordReader::new(RecordCipher::new(key, 2));
        reader.push(&writer.seal_message(ContentType::ApplicationData, &payload));
        let total: Vec<u8> = reader
            .drain_messages()
            .unwrap()
            .into_iter()
            .flat_map(|m| m.plaintext)
            .collect();
        assert_eq!(total, payload);
    });
}

/// Flipping any single ciphertext bit is detected.
#[test]
fn any_bitflip_is_detected() {
    prop::check("any_bitflip_is_detected", 64, |g| {
        let key = g.any();
        let payload = g.bytes(1..500);
        let mut writer = RecordWriter::new(RecordCipher::new(key, 1));
        let mut reader = RecordReader::new(RecordCipher::new(key, 1));
        let mut wire = writer.seal_message(ContentType::ApplicationData, &payload);
        // Flip a bit anywhere in the fragment: the nonce (a sequence
        // mismatch), the body, the tag, or the filler behind it.
        let idx = g.range(HEADER_LEN..HEADER_LEN + payload.len() + AEAD_OVERHEAD);
        wire[idx] ^= 1 << g.range(0u32..8);
        reader.push(&wire);
        assert!(reader.next_message().is_err());
    });
}

/// The keyless scanner and the keyed reader agree on record boundaries:
/// the observer sees exactly the record structure the endpoints use.
#[test]
fn scanner_agrees_with_reader() {
    prop::check("scanner_agrees_with_reader", 64, |g| {
        let key = g.any();
        let msgs = messages(g, 1..6, 1_500);
        let mut writer = RecordWriter::new(RecordCipher::new(key, 1));
        let mut scanned = Vec::new();
        RecordScanner::new().scan(&seal_all(&mut writer, &msgs), |r| scanned.push(r));
        assert_eq!(scanned.len(), msgs.len());
        for (rec, (ct, m)) in scanned.iter().zip(&msgs) {
            assert_eq!(rec.content_type, *ct);
            assert_eq!(rec.wire_len, HEADER_LEN + m.len() + AEAD_OVERHEAD);
        }
    });
}

/// The scanner, the reader and the streaming session never panic on
/// arbitrary bytes: either pure noise, or a valid record stream with a few
/// bytes overwritten, which gets past header checks into length and tag
/// handling.
#[test]
fn scanner_and_reader_total() {
    prop::check("scanner_and_reader_total", 2_048, |g| {
        let key = g.any();
        let bytes = if g.bool() {
            g.bytes(0..2_000)
        } else {
            let msgs = messages(g, 1..4, 600);
            let mut wire = seal_all(&mut RecordWriter::new(RecordCipher::new(key, 2)), &msgs);
            for _ in 0..g.range(1u32..4) {
                let i = g.range(0..wire.len());
                wire[i] = g.any();
            }
            wire
        };
        RecordScanner::new().scan(&bytes, |_| {});
        let mut reader = RecordReader::new(RecordCipher::new(key, 2));
        reader.push(&bytes);
        while let Ok(Some(_)) = reader.next_message() {}
        let _ = stream_records(g, key, &bytes);
    });
}
