//! Properties of the analysis crate: the degree-of-multiplexing metric's
//! invariants and its agreement with a reference implementation, burst
//! segmentation's conservation, the passive observer's stream
//! reconstruction, and record extraction against a brute-force reference.

use h2priv_analysis::{
    extract_records, segment_bursts, GroundTruth, ObjectRange, RecordEvent, StreamFollower,
    WireTrace,
};
use h2priv_bytes::{FxHashMap, SharedBytes};
use h2priv_http2::StreamId;
use h2priv_netsim::prop::{self, Gen};
use h2priv_netsim::{Dir, SimDuration, SimTime};
use h2priv_tcp::{Seq, TcpFlags, TcpSegment};
use h2priv_tls::{
    ContentType, RecordCipher, RecordHeader, RecordWriter, HEADER_LEN, MAX_PLAINTEXT,
};
use h2priv_web::ObjectId;

/// The HTTP/2 stream carrying object instance `who`.
fn instance(who: u32) -> StreamId {
    StreamId(1 + 2 * who)
}

/// Degrees are always within [0, 1].
#[test]
fn degree_is_a_fraction() {
    prop::check("degree_is_a_fraction", 64, |g| {
        // Consecutive ranges owned by random instances.
        let layout = g.vec(1..40, |g| (g.range(0u32..8), g.range(1u64..2_000)));
        let mut gt = GroundTruth::new();
        let mut offset = 0u64;
        for &(who, len) in &layout {
            gt.add_range(offset, offset + len, ObjectId(who), instance(who));
            offset += len;
        }
        for &(who, _) in &layout {
            gt.mark_complete(instance(who));
            let d = gt.degree_of_instance(instance(who)).unwrap();
            assert!((0.0..=1.0).contains(&d), "degree {d}");
        }
    });
}

/// Strictly sequential transmissions always have degree zero.
#[test]
fn sequential_layout_has_degree_zero() {
    prop::check("sequential_layout_has_degree_zero", 64, |g| {
        let sizes = g.vec(1..20, |g| g.range(1u64..5_000));
        let mut gt = GroundTruth::new();
        let mut offset = 0;
        for (who, &len) in (0u32..).zip(&sizes) {
            gt.add_range(offset, offset + len, ObjectId(who), instance(who));
            gt.mark_complete(instance(who));
            offset += len;
        }
        for who in 0..sizes.len() as u32 {
            assert_eq!(gt.degree_of_instance(instance(who)), Some(0.0));
            assert_eq!(gt.min_degree_for(ObjectId(who)), Some(0.0));
        }
    });
}

/// Perfect round-robin interleaving of two or more instances gives every
/// instance a degree above 0.5.
#[test]
fn round_robin_layout_is_multiplexed() {
    prop::check("round_robin_layout_is_multiplexed", 64, |g| {
        let instances = g.range(2u32..6);
        let rounds = g.range(3u32..20);
        let chunk = g.range(1u64..2_000);
        let mut gt = GroundTruth::new();
        let mut offset = 0;
        for _ in 0..rounds {
            for who in 0..instances {
                gt.add_range(offset, offset + chunk, ObjectId(who), instance(who));
                offset += chunk;
            }
        }
        for who in 0..instances {
            gt.mark_complete(instance(who));
            let d = gt.degree_of_instance(instance(who)).unwrap();
            assert!(d > 0.5, "instance {who} degree {d}");
        }
    });
}

/// Burst segmentation conserves records and bytes, and consecutive bursts
/// are separated by at least the gap.
#[test]
fn bursts_conserve_records() {
    prop::check("bursts_conserve_records", 64, |g| {
        let gaps_ms = g.vec(1..60, |g| g.range(0u64..100));
        let min_gap = SimDuration::from_millis(g.range(1..50));
        let mut t = 0u64;
        let records: Vec<RecordEvent> = (0u64..)
            .zip(&gaps_ms)
            .map(|(i, &gap)| {
                t += gap;
                RecordEvent {
                    time: SimTime::from_millis(t),
                    dir: Dir::RightToLeft,
                    content_type: ContentType::ApplicationData,
                    wire_len: 100,
                    stream_offset: i * 100,
                }
            })
            .collect();
        let bursts = segment_bursts(&records, min_gap);
        assert_eq!(
            bursts.iter().map(|b| b.records).sum::<usize>(),
            records.len()
        );
        assert_eq!(
            bursts.iter().map(|b| b.plaintext_bytes).sum::<u64>(),
            records
                .iter()
                .map(|r| r.plaintext_len() as u64)
                .sum::<u64>()
        );
        for w in bursts.windows(2) {
            assert!(w[1].start.saturating_since(w[0].end) >= min_gap);
        }
    });
}

/// The passive follower reproduces the endpoint's byte stream for any
/// segmentation and delivery order of a sent stream.
#[test]
fn follower_matches_endpoint_stream() {
    prop::check("follower_matches_endpoint_stream", 64, |g| {
        let data: Vec<u8> = (0..g.range(1usize..20_000))
            .map(|i| (i % 256) as u8)
            .collect();
        let mss = g.range(100usize..1_460);
        let packet = |seq: u32, flags, payload: SharedBytes| TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags,
            window: 0,
            payload,
        };
        let mut packets: Vec<TcpSegment> = (0u32..)
            .zip(data.chunks(mss))
            .map(|(i, c)| packet(1_001 + i * mss as u32, TcpFlags::ACK, c.to_vec().into()))
            .collect();
        let n = packets.len();
        for _ in 0..g.range(0u32..10) {
            packets.swap(g.range(0..n), g.range(0..n));
        }
        let mut follower = StreamFollower::new();
        follower.push(&packet(1_000, TcpFlags::SYN, SharedBytes::new()), |_| {});
        let mut stream = Vec::new();
        for p in &packets {
            follower.push(p, |bytes| stream.extend_from_slice(bytes));
        }
        assert_eq!(stream, data);
        assert_eq!(follower.gap_bytes(), 0);
    });
}

// ---------- record extraction against a brute-force reference -------------

/// One direction's sealed record stream: its bytes and each record's
/// start offset.
struct Flow {
    dir: Dir,
    isn: u32,
    stream: Vec<u8>,
    starts: Vec<usize>,
}

/// Seals 1–8 handshake and application-data records of 0–16,384 plaintext
/// bytes, mostly small so that many headers fall near segment edges.
fn sealed_flow(g: &mut Gen, dir: Dir) -> Flow {
    let mut writer = RecordWriter::new(RecordCipher::new(g.any(), g.any()));
    let mut stream = Vec::new();
    let mut starts = Vec::new();
    for _ in 0..g.range(1usize..=8) {
        let content_type = g.pick(&[ContentType::Handshake, ContentType::ApplicationData]);
        let len = if g.bool() {
            g.range(0usize..64)
        } else {
            g.range(0..=MAX_PLAINTEXT)
        };
        starts.push(stream.len());
        writer.seal_message_into(content_type, &vec![0x5A; len], &mut stream);
    }
    Flow {
        dir,
        isn: g.any(),
        stream,
        starts,
    }
}

/// The byte windows one direction's packets carry, in delivery order: a
/// segmentation cut at random points (1–6-byte segments half the time,
/// so headers split at every position), re-segmented retransmissions of
/// random windows, duplicates, local reordering, and one window held back
/// to fill its hole last.
fn deliveries(g: &mut Gen, len: usize) -> Vec<(usize, usize)> {
    let cut = |g: &mut Gen, from: usize, to: usize| {
        let mut out = Vec::new();
        let mut at = from;
        while at < to {
            let step = if g.bool() {
                g.range(1usize..=6)
            } else {
                g.range(1usize..2_000)
            };
            out.push((at, (at + step).min(to)));
            at += step;
        }
        out
    };
    let mut windows = cut(g, 0, len);
    for _ in 0..g.range(0usize..4) {
        let from = g.range(0..len);
        let to = g.range(from + 1..=len);
        let resent = cut(g, from, to);
        let at = g.range(0..=windows.len());
        windows.splice(at..at, resent);
    }
    for _ in 0..g.range(0usize..6) {
        let again = g.pick(&windows);
        let at = g.range(0..=windows.len());
        windows.insert(at, again);
    }
    for _ in 0..g.range(0usize..8) {
        let i = g.range(0..windows.len());
        let j = (i + g.range(1usize..4)).min(windows.len() - 1);
        windows.swap(i, j);
    }
    let late = windows.remove(g.range(0..windows.len()));
    windows.push(late);
    windows
}

/// The reference observer: after each packet it rebuilds its direction's
/// contiguous prefix from the byte intervals received so far, re-walks the
/// record headers over that prefix from offset 0, and stamps every record
/// the packet newly completed with the packet's time. A header with an
/// unknown content type ends the walk.
fn reference_records(trace: &WireTrace, flows: &[Flow]) -> Vec<RecordEvent> {
    let mut received: Vec<Vec<(usize, usize)>> = vec![Vec::new(); flows.len()];
    let mut emitted = vec![0usize; flows.len()];
    let mut out = Vec::new();
    for packet in trace.packets() {
        if packet.payload.is_empty() {
            continue;
        }
        let f = flows.iter().position(|f| f.dir == packet.dir).unwrap();
        let flow = &flows[f];
        let start = (packet.seq.0.wrapping_sub(flow.isn.wrapping_add(1))) as usize;
        received[f].push((start, start + packet.payload.len()));
        received[f].sort_unstable();
        let mut prefix = 0;
        for &(a, b) in &received[f] {
            if a <= prefix {
                prefix = prefix.max(b);
            }
        }
        let mut at = 0;
        let mut complete = 0;
        while at + HEADER_LEN <= prefix {
            let Some(header) = RecordHeader::decode(&flow.stream[at..]) else {
                break;
            };
            if at + header.wire_len() > prefix {
                break;
            }
            if complete >= emitted[f] {
                out.push(RecordEvent {
                    time: packet.time,
                    dir: packet.dir,
                    content_type: header.content_type,
                    wire_len: header.wire_len(),
                    stream_offset: at as u64,
                });
            }
            complete += 1;
            at += header.wire_len();
        }
        emitted[f] = emitted[f].max(complete);
    }
    out
}

/// `extract_records` equals the brute-force reference for sealed record
/// streams in both directions, cut anywhere and delivered reordered,
/// duplicated, re-segmented and with a hole filled late — and a corrupted
/// content-type byte stops its direction's extraction at that record.
#[test]
fn extraction_matches_brute_force_reference() {
    prop::check("extraction_matches_brute_force_reference", 96, |g| {
        let mut flows = vec![
            sealed_flow(g, Dir::LeftToRight),
            sealed_flow(g, Dir::RightToLeft),
        ];
        // A quarter of the cases corrupt one record's content type.
        let corrupt = if g.range(0u32..4) == 0 {
            let f = g.range(0..flows.len());
            let k = g.range(0..flows[f].starts.len());
            let at = flows[f].starts[k];
            flows[f].stream[at] = g.pick(&[0u8, 19, 24, 0xFF]);
            Some((f, k))
        } else {
            None
        };
        // Each packet is stamped with its capture index, in microseconds,
        // as it is pushed: the capture reads it in transit.
        let mut trace = WireTrace::new();
        let push = |trace: &mut WireTrace, flow: &Flow, from, to, flags| {
            let at = SimTime::from_micros(trace.len() as u64);
            trace.push(at, flow.dir, &segment(flow, from, to, flags));
        };
        for flow in &flows {
            push(&mut trace, flow, 0, 0, TcpFlags::SYN);
        }
        let mut queues: Vec<Vec<(usize, usize)>> = flows
            .iter()
            .map(|f| {
                let mut d = deliveries(g, f.stream.len());
                d.reverse();
                d
            })
            .collect();
        while queues.iter().any(|q| !q.is_empty()) {
            let f = g.range(0..flows.len());
            if let Some((from, to)) = queues[f].pop() {
                push(&mut trace, &flows[f], from, to, TcpFlags::ACK);
            }
        }
        let records = extract_records(&trace);
        assert_eq!(records, reference_records(&trace, &flows));
        for (f, flow) in flows.iter().enumerate() {
            let seen = records.iter().filter(|r| r.dir == flow.dir).count();
            match corrupt {
                Some((cf, k)) if cf == f => assert_eq!(seen, k, "stops at the corrupt header"),
                _ => assert_eq!(seen, flow.starts.len()),
            }
        }
    });
}

/// A segment of `flow` carrying its stream bytes `[from, to)` (none for a
/// SYN).
fn segment(flow: &Flow, from: usize, to: usize, flags: TcpFlags) -> TcpSegment {
    let (seq, payload) = if flags.syn {
        (Seq(flow.isn), SharedBytes::new())
    } else {
        (
            Seq(flow.isn.wrapping_add(1).wrapping_add(from as u32)),
            SharedBytes::copy_from_slice(&flow.stream[from..to]),
        )
    };
    TcpSegment {
        seq,
        ack: Seq(0),
        flags,
        window: 0,
        payload,
    }
}

// ---------- the degree of multiplexing against a reference ----------------

/// The degree of multiplexing as first implemented: per instance, filter
/// its ranges and sort them, hash every other instance's span, merge the
/// spans, and test each run boundary against every foreign range.
fn reference_degree(ranges: &[ObjectRange], instance: StreamId) -> Option<f64> {
    let mut mine: Vec<&ObjectRange> = ranges.iter().filter(|r| r.instance == instance).collect();
    if mine.is_empty() {
        return None;
    }
    mine.sort_unstable_by_key(|r| r.start);
    let total: u64 = mine.iter().map(|r| r.end - r.start).sum();

    let mut spans: FxHashMap<StreamId, (u64, u64)> = FxHashMap::default();
    for r in ranges {
        if r.instance == instance {
            continue;
        }
        let e = spans.entry(r.instance).or_insert((r.start, r.end));
        e.0 = e.0.min(r.start);
        e.1 = e.1.max(r.end);
    }
    let mut intervals: Vec<(u64, u64)> = spans.values().copied().collect();
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    let in_spans: u64 = mine
        .iter()
        .map(|r| {
            merged
                .iter()
                .filter(|&&(s, e)| e > r.start && s < r.end)
                .map(|&(s, e)| r.end.min(e) - r.start.max(s))
                .sum::<u64>()
        })
        .sum();
    let span_degree = in_spans as f64 / total as f64;

    let mut foreign: Vec<(u64, u64)> = ranges
        .iter()
        .filter(|r| r.instance != instance)
        .map(|r| (r.start, r.end))
        .collect();
    foreign.sort_unstable();
    let mut largest_run = 0u64;
    let mut current_run = 0u64;
    let mut prev_end: Option<u64> = None;
    for r in &mine {
        let broken = match prev_end {
            None => false,
            Some(pe) => foreign
                .iter()
                .any(|&(fs, fe)| fe > pe && fs < r.start && fe > fs),
        };
        if broken {
            largest_run = largest_run.max(current_run);
            current_run = 0;
        }
        current_run += r.end - r.start;
        prev_end = Some(r.end);
    }
    largest_run = largest_run.max(current_run);
    let run_degree = 1.0 - largest_run as f64 / total as f64;
    Some(span_degree.max(run_degree))
}

/// Instances of `object` in first-byte order, as first implemented.
fn reference_instances(ranges: &[ObjectRange], object: ObjectId) -> Vec<StreamId> {
    let mut firsts: FxHashMap<StreamId, u64> = FxHashMap::default();
    for r in ranges.iter().filter(|r| r.object == object) {
        let e = firsts.entry(r.instance).or_insert(r.start);
        *e = (*e).min(r.start);
    }
    let mut v: Vec<(u64, StreamId)> = firsts.into_iter().map(|(s, f)| (f, s)).collect();
    v.sort_unstable();
    v.into_iter().map(|(_, s)| s).collect()
}

/// `degree_of_instance`, `instances_of` and `min_degree_for` equal the
/// reference on random disjoint layouts — bursts of one instance, gaps of
/// non-DATA bytes, several copies of one object, some instances never
/// completed — whose ranges are added in any order.
#[test]
fn degree_matches_reference() {
    prop::check("degree_matches_reference", 512, |g| {
        let instances = g.range(1u32..10);
        let objects = g.range(1u32..=instances);
        let object_of = |who: u32| ObjectId(who % objects);
        let mut ranges: Vec<ObjectRange> = Vec::new();
        let mut offset = 0u64;
        let mut who = g.range(0..instances);
        for _ in 0..g.range(1usize..80) {
            if g.bool() {
                who = g.range(0..instances);
            }
            offset += if g.bool() { 0 } else { g.range(1u64..40) };
            let len = g.range(1u64..3_000);
            ranges.push(ObjectRange {
                start: offset,
                end: offset + len,
                object: object_of(who),
                instance: instance(who),
            });
            offset += len;
        }
        let order: Vec<usize> = if g.bool() {
            g.permutation(ranges.len())
        } else {
            let mut order: Vec<usize> = (0..ranges.len()).collect();
            for _ in 0..g.range(0usize..4) {
                order.swap(g.range(0..ranges.len()), g.range(0..ranges.len()));
            }
            order
        };
        let mut gt = GroundTruth::new();
        for i in order {
            let r = ranges[i];
            gt.add_range(r.start, r.end, r.object, r.instance);
        }
        let complete: Vec<bool> = (0..instances).map(|_| g.range(0u32..4) != 0).collect();
        for who in 0..instances {
            if complete[who as usize] {
                gt.mark_complete(instance(who));
            }
        }
        for who in 0..=instances {
            assert_eq!(
                gt.degree_of_instance(instance(who)),
                reference_degree(&ranges, instance(who)),
                "instance {who}"
            );
        }
        for o in 0..=objects {
            let object = ObjectId(o);
            let expected = reference_instances(&ranges, object);
            assert_eq!(gt.instances_of(object), expected, "object {o}");
            let min = expected
                .iter()
                .filter(|i| complete[(i.0 as usize - 1) / 2])
                .filter_map(|&i| reference_degree(&ranges, i))
                .min_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(gt.min_degree_for(object), min, "object {o}");
        }
    });
}
