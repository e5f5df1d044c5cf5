//! Properties of the analysis crate: the degree-of-multiplexing metric's
//! invariants, burst segmentation's conservation, and the passive
//! observer's stream reconstruction.

use h2priv_analysis::{segment_bursts, GroundTruth, RecordEvent, StreamFollower};
use h2priv_bytes::SharedBytes;
use h2priv_http2::StreamId;
use h2priv_netsim::prop;
use h2priv_netsim::{Dir, SimDuration, SimTime};
use h2priv_tcp::{Seq, TcpFlags, TcpSegment};
use h2priv_tls::ContentType;
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
        let segment = |seq: u32, flags, payload: SharedBytes| TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags,
            window: 0,
            payload,
        };
        let mut segments: Vec<TcpSegment> = (0u32..)
            .zip(data.chunks(mss))
            .map(|(i, c)| segment(1_001 + i * mss as u32, TcpFlags::ACK, c.to_vec().into()))
            .collect();
        let n = segments.len();
        for _ in 0..g.range(0u32..10) {
            segments.swap(g.range(0..n), g.range(0..n));
        }
        let mut follower = StreamFollower::new();
        follower.push(&segment(1_000, TcpFlags::SYN, SharedBytes::new()));
        let stream: Vec<u8> = segments.iter().flat_map(|s| follower.push(s)).collect();
        assert_eq!(stream, data);
    });
}
