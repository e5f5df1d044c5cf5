//! End-to-end tests of two [`H2Connection`]s wired back to back.

use crate::*;

/// One frame's complete wire bytes: DATA leaves split into header, body
/// and padding parts.
fn wire(out: &Outgoing) -> Vec<u8> {
    let mut wire = Vec::new();
    out.write_wire_into(&mut wire);
    wire
}

fn shuttle(a: &mut H2Connection, b: &mut H2Connection) {
    loop {
        let mut moved = false;
        while let Some(out) = a.poll_send() {
            b.recv(&wire(&out)).unwrap();
            moved = true;
        }
        while let Some(out) = b.poll_send() {
            a.recv(&wire(&out)).unwrap();
            moved = true;
        }
        if !moved {
            break;
        }
    }
}

fn ready_pair(client_cfg: H2Config, server_cfg: H2Config) -> (H2Connection, H2Connection) {
    let mut c = H2Connection::new_client(client_cfg);
    let mut s = H2Connection::new_server(server_cfg);
    shuttle(&mut c, &mut s);
    assert!(c.is_ready() && s.is_ready());
    (c, s)
}

fn get(path: &str) -> Vec<HeaderField> {
    vec![
        HeaderField::new(":method", "GET"),
        HeaderField::new(":scheme", "https"),
        HeaderField::new(":authority", "example.org"),
        HeaderField::new(":path", path),
    ]
}

fn resp_200() -> Vec<HeaderField> {
    vec![HeaderField::new(":status", "200")]
}

fn drain_events(c: &mut H2Connection) -> Vec<H2Event> {
    std::iter::from_fn(|| c.poll_event()).collect()
}

/// Collects (stream, len) for each DATA frame received.
fn data_sequence(events: &[H2Event]) -> Vec<(StreamId, usize)> {
    events
        .iter()
        .filter_map(|ev| match ev {
            H2Event::Data { stream_id, len, .. } => Some((*stream_id, *len)),
            _ => None,
        })
        .collect()
}

#[test]
fn settings_exchange_completes() {
    let (c, s) = ready_pair(H2Config::default(), H2Config::default());
    assert_eq!(c.peer(), Peer::Client);
    assert_eq!(s.peer(), Peer::Server);
}

#[test]
fn request_response_roundtrip() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let sid = c.open_stream(&get("/index.html"), true).unwrap();
    shuttle(&mut c, &mut s);
    let events = drain_events(&mut s);
    let req = events.iter().find_map(|ev| match ev {
        H2Event::Headers {
            stream_id,
            headers,
            end_stream,
        } => Some((*stream_id, headers.clone(), *end_stream)),
        _ => None,
    });
    let (rsid, headers, end) = req.expect("request seen");
    assert_eq!(rsid, sid);
    assert!(end);
    assert!(headers.contains(&HeaderField::new(":path", "/index.html")));

    s.send_headers(sid, &resp_200(), false).unwrap();
    s.send_data(sid, &vec![7u8; 5000], true).unwrap();
    shuttle(&mut c, &mut s);
    let events = drain_events(&mut c);
    let body: usize = data_sequence(&events).iter().map(|(_, l)| l).sum();
    assert_eq!(body, 5000);
    assert_eq!(c.stream_state(sid), Some(StreamState::Closed));
    assert_eq!(s.stream_state(sid), Some(StreamState::Closed));
}

#[test]
fn round_robin_interleaves_two_responses() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/a"), true).unwrap();
    let b = c.open_stream(&get("/b"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_headers(b, &resp_200(), false).unwrap();
    s.send_data(a, &vec![1u8; 10_000], true).unwrap();
    s.send_data(b, &vec![2u8; 10_000], true).unwrap();
    shuttle(&mut c, &mut s);
    let seq = data_sequence(&drain_events(&mut c));
    // Interleaved: stream a does not finish before b starts.
    let first_b = seq.iter().position(|&(id, _)| id == b).unwrap();
    let last_a = seq.iter().rposition(|&(id, _)| id == a).unwrap();
    assert!(first_b < last_a, "sequence not interleaved: {seq:?}");
}

#[test]
fn sequential_policy_serializes_responses() {
    let server_cfg = H2Config {
        send_policy: SendPolicy::Sequential,
        ..H2Config::default()
    };
    let (mut c, mut s) = ready_pair(H2Config::default(), server_cfg);
    let a = c.open_stream(&get("/a"), true).unwrap();
    let b = c.open_stream(&get("/b"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_headers(b, &resp_200(), false).unwrap();
    s.send_data(a, &vec![1u8; 10_000], true).unwrap();
    s.send_data(b, &vec![2u8; 10_000], true).unwrap();
    shuttle(&mut c, &mut s);
    let seq = data_sequence(&drain_events(&mut c));
    let first_b = seq.iter().position(|&(id, _)| id == b).unwrap();
    let last_a = seq.iter().rposition(|&(id, _)| id == a).unwrap();
    assert!(last_a < first_b, "sequence not serialized: {seq:?}");
}

#[test]
fn random_policy_is_deterministic_per_seed() {
    fn run(seed: u64) -> Vec<(StreamId, usize)> {
        let server_cfg = H2Config {
            send_policy: SendPolicy::RandomOrder { seed },
            ..H2Config::default()
        };
        let (mut c, mut s) = ready_pair(H2Config::default(), server_cfg);
        let a = c.open_stream(&get("/a"), true).unwrap();
        let b = c.open_stream(&get("/b"), true).unwrap();
        shuttle(&mut c, &mut s);
        drain_events(&mut s);
        s.send_headers(a, &resp_200(), false).unwrap();
        s.send_headers(b, &resp_200(), false).unwrap();
        s.send_data(a, &vec![1u8; 8_000], true).unwrap();
        s.send_data(b, &vec![2u8; 8_000], true).unwrap();
        shuttle(&mut c, &mut s);
        data_sequence(&drain_events(&mut c))
    }
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn data_chunk_size_bounds_frames() {
    let server_cfg = H2Config {
        data_chunk_size: 1_000,
        ..H2Config::default()
    };
    let (mut c, mut s) = ready_pair(H2Config::default(), server_cfg);
    let a = c.open_stream(&get("/a"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_data(a, &vec![1u8; 5_500], true).unwrap();
    shuttle(&mut c, &mut s);
    let seq = data_sequence(&drain_events(&mut c));
    assert!(seq.iter().all(|&(_, l)| l <= 1_000), "{seq:?}");
    assert_eq!(seq.iter().map(|(_, l)| l).sum::<usize>(), 5_500);
}

#[test]
fn flow_control_stalls_without_updates() {
    // A response bigger than the 64 KiB connection window cannot fully
    // drain until WINDOW_UPDATEs flow back.
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/big"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_data(a, &vec![9u8; 200_000], true).unwrap();
    // One-way only: server → client, no return path for WINDOW_UPDATE.
    let mut sent = 0usize;
    while let Some(out) = s.poll_send() {
        if let OutgoingMeta::Frame {
            frame_type: FrameType::Data,
            payload_len,
            ..
        } = out.meta
        {
            sent += payload_len;
        }
        c.recv(&wire(&out)).unwrap();
    }
    assert!(sent <= 65_535, "sent {sent} beyond the connection window");
    // Open the return path: the rest drains.
    shuttle(&mut c, &mut s);
    let total: usize = data_sequence(&drain_events(&mut c))
        .iter()
        .map(|(_, l)| l)
        .sum();
    assert_eq!(total, 200_000);
}

#[test]
fn window_bonus_lifts_connection_limit() {
    let client_cfg = H2Config {
        connection_window_bonus: 1 << 20,
        ..H2Config::default()
    };
    let (mut c, mut s) = ready_pair(client_cfg, H2Config::default());
    let a = c.open_stream(&get("/big"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_data(a, &vec![9u8; 200_000], true).unwrap();
    // One-way: the stream window (65 535) is now the binding limit.
    let mut sent = 0usize;
    while let Some(out) = s.poll_send() {
        if let OutgoingMeta::Frame {
            frame_type: FrameType::Data,
            payload_len,
            ..
        } = out.meta
        {
            sent += payload_len;
        }
        c.recv(&wire(&out)).unwrap();
    }
    assert!(sent > 60_000 && sent <= 65_535, "sent = {sent}");
}

#[test]
fn rst_stream_drops_pending_data() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/a"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_data(a, &vec![1u8; 50_000], true).unwrap();
    // Client resets before the response drains.
    c.send_rst(a, ErrorCode::Cancel);
    // Deliver the reset to the server.
    while let Some(out) = c.poll_send() {
        s.recv(&wire(&out)).unwrap();
    }
    assert_eq!(s.pending_data(a), 0);
    assert_eq!(s.stream_state(a), Some(StreamState::Closed));
    let events = drain_events(&mut s);
    assert!(events
        .iter()
        .any(|ev| matches!(ev, H2Event::Reset { stream_id, .. } if *stream_id == a)));
    assert_eq!(s.stats().resets_received, 1);
    assert_eq!(c.stats().resets_sent, 1);
}

#[test]
fn late_data_after_reset_is_discarded() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/a"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(a, &resp_200(), false).unwrap();
    s.send_data(a, &vec![1u8; 4_000], true).unwrap();
    // Server emits some DATA that is "in flight".
    let in_flight: Vec<_> = std::iter::from_fn(|| s.poll_send()).collect();
    // Client resets, then the in-flight data arrives.
    c.send_rst(a, ErrorCode::Cancel);
    drain_events(&mut c);
    for out in in_flight {
        c.recv(&wire(&out)).unwrap();
    }
    // No Data events for the reset stream reach the application.
    let events = drain_events(&mut c);
    assert!(!events
        .iter()
        .any(|ev| matches!(ev, H2Event::Data { stream_id, .. } if *stream_id == a)));
}

#[test]
fn reset_stream_conn_accounting_is_exactly_once() {
    // §IV-D flush regression: DATA in flight across a RST_STREAM must be
    // debited from — and credited back to — the *connection* window exactly
    // once, even though it is never delivered to the application. A leak
    // (never credited) pins the window at zero after a few flushed bodies;
    // a double credit inflates it past its initial size.
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let initial = s.conn_send_available();
    // Ten flushed bodies of 30 kB vastly exceed the 64 kB default window:
    // the transfer only keeps moving if reset-stream DATA earns credit.
    for round in 0..10 {
        let a = c.open_stream(&get("/flush"), true).unwrap();
        shuttle(&mut c, &mut s);
        drain_events(&mut s);
        s.send_headers(a, &resp_200(), false).unwrap();
        s.send_data(a, &vec![0xDD; 30_000], true).unwrap();
        // Some of the body goes into flight before the reset.
        let in_flight: Vec<_> = std::iter::from_fn(|| s.poll_send()).collect();
        c.send_rst(a, ErrorCode::Cancel);
        for out in in_flight {
            c.recv(&wire(&out)).unwrap();
        }
        shuttle(&mut c, &mut s);
        drain_events(&mut s);
        // None of the flushed body reaches the application...
        assert!(
            !drain_events(&mut c)
                .iter()
                .any(|ev| matches!(ev, H2Event::Data { stream_id, .. } if *stream_id == a)),
            "round {round}: reset-stream DATA surfaced"
        );
        // ...and the server's view of the connection window never exceeds
        // its initial size (a double credit would overshoot here).
        assert!(
            s.conn_send_available() <= initial,
            "round {round}: conn window over-credited ({} > {initial})",
            s.conn_send_available()
        );
        // Nothing may remain stuck in the server's send queue.
        assert_eq!(s.pending_data(a), 0, "round {round}: flush stalled");
    }
    // A clean request after all the flushes still completes in full: the
    // window was not leaked away.
    let b = c.open_stream(&get("/after"), true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(b, &resp_200(), false).unwrap();
    s.send_data(b, &vec![0xEE; 60_000], true).unwrap();
    shuttle(&mut c, &mut s);
    let body: usize = data_sequence(&drain_events(&mut c))
        .iter()
        .filter(|(id, _)| *id == b)
        .map(|(_, l)| l)
        .sum();
    assert_eq!(body, 60_000, "post-flush transfer lost window credit");
}

#[test]
fn ping_pong() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let data = [3, 1, 4, 1, 5, 9, 2, 6];
    s.recv(&encode_frame(&Frame::Ping { ack: false, data }))
        .unwrap();
    let answer = drain_frames(&mut s);
    assert_eq!(answer, vec![Frame::Ping { ack: true, data }]);
    c.recv(&encode_frame(&answer[0])).unwrap();
    assert!(drain_events(&mut c)
        .iter()
        .any(|ev| matches!(ev, H2Event::PingAcked)));
}

#[test]
fn goaway_closes_connection() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    s.send_goaway(ErrorCode::NoError);
    shuttle(&mut c, &mut s);
    assert!(c.is_closed());
    assert!(drain_events(&mut c)
        .iter()
        .any(|ev| matches!(ev, H2Event::GoAway { .. })));
    assert!(c.open_stream(&get("/x"), true).is_err());
}

#[test]
fn many_concurrent_streams() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let ids: Vec<StreamId> = (0..20)
        .map(|i| c.open_stream(&get(&format!("/obj{i}")), true).unwrap())
        .collect();
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    for (i, &id) in ids.iter().enumerate() {
        s.send_headers(id, &resp_200(), false).unwrap();
        s.send_data(id, &vec![i as u8; 3_000], true).unwrap();
    }
    shuttle(&mut c, &mut s);
    let events = drain_events(&mut c);
    for &id in &ids {
        let total: usize = data_sequence(&events)
            .iter()
            .filter(|&&(sid, _)| sid == id)
            .map(|(_, l)| l)
            .sum();
        assert_eq!(total, 3_000, "stream {id}");
    }
}

#[test]
fn send_on_unknown_stream_fails() {
    let (mut c, _s) = ready_pair(H2Config::default(), H2Config::default());
    assert!(c.send_data(StreamId(99), b"x", false).is_err());
    assert!(c.send_headers(StreamId(99), &resp_200(), false).is_err());
}

#[test]
fn stream_ids_are_odd_and_increasing() {
    let (mut c, _s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/1"), true).unwrap();
    let b = c.open_stream(&get("/2"), true).unwrap();
    assert_eq!(a, StreamId(1));
    assert_eq!(b, StreamId(3));
}

#[test]
fn garbage_input_kills_connection_with_goaway() {
    let (mut c, _s) = ready_pair(H2Config::default(), H2Config::default());
    // A PUSH_PROMISE (unsupported) is a protocol error.
    let push = [0u8, 0, 4, 0x5, 0, 0, 0, 0, 1, 0, 0, 0, 2];
    assert!(c.recv(&push).is_err());
    // The connection is dead but the GOAWAY was queued first.
    assert!(c.is_closed());
}

#[test]
fn concurrent_stream_limit_is_enforced() {
    let server_cfg = H2Config {
        settings: Settings {
            max_concurrent_streams: 3,
            ..Settings::default()
        },
        ..H2Config::default()
    };
    let (mut c, mut s) = ready_pair(H2Config::default(), server_cfg);
    let ids: Vec<StreamId> = (0..3)
        .map(|i| c.open_stream(&get(&format!("/{i}")), true).unwrap())
        .collect();
    // The fourth is refused locally.
    let err = c.open_stream(&get("/overflow"), true).unwrap_err();
    assert_eq!(err.code, ErrorCode::RefusedStream);
    // Completing a stream frees a slot.
    shuttle(&mut c, &mut s);
    drain_events(&mut s);
    s.send_headers(ids[0], &resp_200(), false).unwrap();
    s.send_data(ids[0], &[1u8; 100], true).unwrap();
    shuttle(&mut c, &mut s);
    drain_events(&mut c);
    assert!(c.open_stream(&get("/now-fits"), true).is_ok());
}

/// Builds the raw bytes of one HEADERS frame (END_HEADERS, optional
/// END_STREAM) for a hand-rolled hostile client.
fn raw_headers(enc: &mut hpack::Encoder, stream: u32, end_stream: bool) -> Vec<u8> {
    encode_frame(&Frame::Headers {
        stream_id: StreamId(stream),
        end_stream,
        header_block: enc.encode(&get("/hoard")),
        pad: None,
    })
}

/// Drains a connection's wire output and parses it into frames.
fn drain_frames(c: &mut H2Connection) -> Vec<Frame> {
    let mut dec = FrameDecoder::new(false);
    while let Some(out) = c.poll_send() {
        if !matches!(out.meta, OutgoingMeta::Preface) {
            dec.push(&wire(&out));
        }
    }
    std::iter::from_fn(|| dec.next_frame().unwrap()).collect()
}

#[test]
fn remote_streams_beyond_advertised_limit_are_refused() {
    let server_cfg = H2Config {
        settings: Settings {
            max_concurrent_streams: 2,
            ..Settings::default()
        },
        ..H2Config::default()
    };
    let mut s = H2Connection::new_server(server_cfg);
    // A hostile client ignores the advertised limit: preface, SETTINGS,
    // then three opens back to back.
    let mut wire = CLIENT_PREFACE.to_vec();
    wire.extend_from_slice(&encode_frame(&Frame::Settings {
        ack: false,
        settings: vec![],
    }));
    let mut enc = hpack::Encoder::new();
    for stream in [1u32, 3, 5] {
        wire.extend_from_slice(&raw_headers(&mut enc, stream, true));
    }
    s.recv(&wire).unwrap();
    let delivered: Vec<StreamId> = drain_events(&mut s)
        .iter()
        .filter_map(|ev| match ev {
            H2Event::Headers { stream_id, .. } => Some(*stream_id),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![StreamId(1), StreamId(3)]);
    assert_eq!(s.open_remote_streams(), 2);
    // The third open got RST_STREAM(REFUSED_STREAM) and no stream state.
    let resets: Vec<(StreamId, ErrorCode)> = drain_frames(&mut s)
        .iter()
        .filter_map(|f| match f {
            Frame::RstStream {
                stream_id,
                error_code,
            } => Some((*stream_id, *error_code)),
            _ => None,
        })
        .collect();
    assert_eq!(resets, vec![(StreamId(5), ErrorCode::RefusedStream)]);
    assert_eq!(s.stream_state(StreamId(5)), None);
    assert_eq!(s.stats().resets_sent, 1);
}

#[test]
fn refused_remote_stream_keeps_hpack_synchronized() {
    let server_cfg = H2Config {
        settings: Settings {
            max_concurrent_streams: 1,
            ..Settings::default()
        },
        ..H2Config::default()
    };
    let mut s = H2Connection::new_server(server_cfg);
    let mut wire = CLIENT_PREFACE.to_vec();
    wire.extend_from_slice(&encode_frame(&Frame::Settings {
        ack: false,
        settings: vec![],
    }));
    // The refused stream's block still indexes into the dynamic table; the
    // follow-up block on stream 1 (after stream 1 closes... stream 1 first)
    let mut enc = hpack::Encoder::new();
    wire.extend_from_slice(&raw_headers(&mut enc, 1, true));
    wire.extend_from_slice(&raw_headers(&mut enc, 3, true)); // refused
    s.recv(&wire).unwrap();
    drain_events(&mut s);
    drain_frames(&mut s);
    // Close stream 1 so a new open fits, then reuse the table entries the
    // refused block installed. Decoding succeeds only if the server kept
    // decoding refused blocks (RFC 7540 §4.3).
    s.send_headers(StreamId(1), &resp_200(), true).unwrap();
    drain_frames(&mut s);
    let mut wire = Vec::new();
    wire.extend_from_slice(&raw_headers(&mut enc, 5, true));
    s.recv(&wire).unwrap();
    let delivered: Vec<StreamId> = drain_events(&mut s)
        .iter()
        .filter_map(|ev| match ev {
            H2Event::Headers { stream_id, .. } => Some(*stream_id),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![StreamId(5)]);
}

#[test]
fn goaway_cancels_streams_above_last_stream_id() {
    let (mut c, _s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/a"), true).unwrap();
    let b = c.open_stream(&get("/b"), false).unwrap();
    c.send_data(b, &[7u8; 4_096], false).unwrap();
    let d = c.open_stream(&get("/d"), true).unwrap();
    assert_eq!((a, b, d), (StreamId(1), StreamId(3), StreamId(5)));
    // The server walks away having processed only stream 1.
    c.recv(&encode_frame(&Frame::GoAway {
        last_stream_id: StreamId(1),
        error_code: ErrorCode::NoError,
    }))
    .unwrap();
    let events = drain_events(&mut c);
    assert!(events.iter().any(
        |ev| matches!(ev, H2Event::GoAway { last_stream_id, .. } if *last_stream_id == StreamId(1))
    ));
    let cancelled: Vec<StreamId> = events
        .iter()
        .filter_map(|ev| match ev {
            H2Event::Reset {
                stream_id,
                error_code: ErrorCode::RefusedStream,
            } => Some(*stream_id),
            _ => None,
        })
        .collect();
    assert_eq!(cancelled, vec![StreamId(3), StreamId(5)]);
    assert_eq!(c.stream_state(a), Some(StreamState::HalfClosedLocal));
    assert_eq!(c.stream_state(b), Some(StreamState::Closed));
    assert_eq!(c.stream_state(d), Some(StreamState::Closed));
    assert_eq!(c.pending_data(b), 0, "cancelled output is dropped");
}

#[test]
fn goaway_names_the_last_peer_stream() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    let a = c.open_stream(&get("/a"), true).unwrap();
    let b = c.open_stream(&get("/b"), true).unwrap();
    shuttle(&mut c, &mut s);
    assert_eq!((a, b), (StreamId(1), StreamId(3)));
    s.send_goaway(ErrorCode::NoError);
    let goaway = drain_frames(&mut s);
    assert_eq!(
        goaway,
        vec![Frame::GoAway {
            last_stream_id: StreamId(3),
            error_code: ErrorCode::NoError,
        }]
    );
    c.recv(&encode_frame(&goaway[0])).unwrap();
    assert!(drain_events(&mut c)
        .iter()
        .all(|ev| !matches!(ev, H2Event::Reset { .. })));
    assert_eq!(c.stream_state(a), Some(StreamState::HalfClosedLocal));
    assert_eq!(c.stream_state(b), Some(StreamState::HalfClosedLocal));
}

/// Feeds a fresh server a client preface, SETTINGS and one HEADERS frame
/// on stream 1 carrying `header_block`, and checks that the server fails
/// the connection with COMPRESSION_ERROR and sends only that GOAWAY.
fn assert_compression_error(header_block: Vec<u8>) {
    let mut s = H2Connection::new_server(H2Config::default());
    let mut wire = CLIENT_PREFACE.to_vec();
    wire.extend_from_slice(&encode_frame(&Frame::Settings {
        ack: false,
        settings: vec![],
    }));
    wire.extend_from_slice(&encode_frame(&Frame::Headers {
        stream_id: StreamId(1),
        end_stream: true,
        header_block,
        pad: None,
    }));
    assert_eq!(s.recv(&wire).unwrap_err().code, ErrorCode::CompressionError);
    assert!(s.is_closed());
    assert_eq!(
        drain_frames(&mut s),
        vec![Frame::GoAway {
            last_stream_id: StreamId(0),
            error_code: ErrorCode::CompressionError,
        }]
    );
    assert!(drain_events(&mut s)
        .iter()
        .all(|ev| !matches!(ev, H2Event::Headers { .. })));
}

#[test]
fn huffman_literal_is_a_compression_error() {
    // GET https://example.org/images/party_3.png with the `:path` value
    // Huffman-coded (`0x44 0x8f`: literal with indexing, name index 4,
    // H bit set, 15 octets), as an encoder with Huffman coding on wrote it.
    let block = vec![
        0x82, 0x87, 0x41, 0x0b, b'e', b'x', b'a', b'm', b'p', b'l', b'e', b'.', b'o', b'r', b'g',
        0x44, 0x8f, 0x19, 0xe8, 0x96, 0x71, 0xaa, 0x06, 0x95, 0x69, 0xe9, 0xb9, 0x52, 0x85, 0x96,
        0x37, 0x3f,
    ];
    assert_compression_error(block);
}

#[test]
fn size_update_above_settings_is_a_compression_error() {
    // A table-size update to 100 000 000 ahead of the request, against
    // the server's advertised SETTINGS_HEADER_TABLE_SIZE of 4 096.
    let mut block = Vec::new();
    hpack::encode_integer(&mut block, 0x20, 5, 100_000_000);
    block.extend_from_slice(&hpack::Encoder::new().encode(&get("/")));
    assert_compression_error(block);
}

#[test]
fn settings_received_counter_and_header_sequence_inspector() {
    let (mut c, mut s) = ready_pair(H2Config::default(), H2Config::default());
    assert_eq!(s.stats().settings_received, 1, "the handshake SETTINGS");
    for _ in 0..3 {
        s.recv(&encode_frame(&Frame::Settings {
            ack: false,
            settings: vec![],
        }))
        .unwrap();
    }
    assert_eq!(s.stats().settings_received, 4);
    // A HEADERS frame without END_HEADERS leaves the sequence open.
    assert_eq!(s.in_progress_header_stream(), None);
    let sid = c.open_stream(&get("/x"), true).unwrap();
    let mut frames = Vec::new();
    while let Some(out) = c.poll_send() {
        frames.push(out);
    }
    let headers_wire = frames
        .iter()
        .find(|o| {
            matches!(
                o.meta,
                OutgoingMeta::Frame {
                    frame_type: FrameType::Headers,
                    ..
                }
            )
        })
        .unwrap()
        .bytes
        .clone();
    // Clear the END_HEADERS flag (byte 4 of the frame header) and truncate
    // nothing: the sequence is now open until a CONTINUATION closes it.
    let mut partial = headers_wire.clone();
    partial[4] &= !flags::END_HEADERS;
    s.recv(&partial).unwrap();
    assert_eq!(s.in_progress_header_stream(), Some(sid));
}
