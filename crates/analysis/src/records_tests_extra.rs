//! Additional record-extraction edge cases: mixed directions, desync
//! behaviour, and retransmission transparency — the situations the live
//! monitor encounters during the attack's disruption phase.

use crate::{extract_records, RecordEvent, RecordExtractor, WireTrace};
use h2priv_netsim::{Dir, SimTime};
use h2priv_tcp::{Seq, TcpFlags, TcpSegment};
use h2priv_tls::{ContentType, RecordCipher, RecordWriter};

struct Flow {
    writer: RecordWriter,
    next_seq: u32,
    dir: Dir,
    synced: bool,
}

impl Flow {
    fn new(dir: Dir, label: u64) -> Self {
        Flow {
            writer: RecordWriter::new(RecordCipher::new(42, label)),
            next_seq: 1_001,
            dir,
            synced: false,
        }
    }

    fn syn(&mut self) -> Live {
        self.synced = true;
        Live {
            time: SimTime::ZERO,
            dir: self.dir,
            segment: TcpSegment {
                seq: Seq(1_000),
                ack: Seq(0),
                flags: TcpFlags::SYN,
                window: 0,
                payload: h2priv_bytes::SharedBytes::new(),
            },
        }
    }

    fn message(&mut self, len: usize, at_ms: u64) -> Vec<Live> {
        assert!(self.synced);
        let wire = self
            .writer
            .seal_message(ContentType::ApplicationData, &vec![7u8; len]);
        wire.chunks(1460)
            .map(|chunk| {
                let seq = self.next_seq;
                self.next_seq += chunk.len() as u32;
                Live {
                    time: SimTime::from_millis(at_ms),
                    dir: self.dir,
                    segment: TcpSegment {
                        seq: Seq(seq),
                        ack: Seq(0),
                        flags: TcpFlags::ACK,
                        window: 0,
                        payload: chunk.to_vec().into(),
                    },
                }
            })
            .collect()
    }
}

/// A packet in transit past the observer.
struct Live {
    time: SimTime,
    dir: Dir,
    segment: TcpSegment,
}

impl Live {
    fn capture(&self, trace: &mut WireTrace) {
        trace.push(self.time, self.dir, &self.segment);
    }

    fn extract(&self, extractor: &mut RecordExtractor, emit: impl FnMut(RecordEvent)) {
        extractor.push(self.time, self.dir, &self.segment, emit);
    }
}

#[test]
fn directions_are_followed_independently() {
    let mut c2s = Flow::new(Dir::LeftToRight, 1);
    let mut s2c = Flow::new(Dir::RightToLeft, 2);
    let mut trace = WireTrace::new();
    c2s.syn().capture(&mut trace);
    s2c.syn().capture(&mut trace);
    // Interleave packets of both directions.
    for p in c2s.message(100, 1) {
        p.capture(&mut trace);
    }
    for p in s2c.message(5_000, 2) {
        p.capture(&mut trace);
    }
    for p in c2s.message(80, 3) {
        p.capture(&mut trace);
    }
    let records = extract_records(&trace);
    let c2s_count = records.iter().filter(|r| r.dir == Dir::LeftToRight).count();
    let s2c_count = records.iter().filter(|r| r.dir == Dir::RightToLeft).count();
    assert_eq!(c2s_count, 2);
    assert_eq!(s2c_count, 1);
    // Stream offsets are per-direction.
    let offsets: Vec<u64> = records
        .iter()
        .filter(|r| r.dir == Dir::LeftToRight)
        .map(|r| r.stream_offset)
        .collect();
    assert_eq!(offsets[0], 0);
    assert!(offsets[1] > 0);
}

#[test]
fn hole_blocks_later_records_until_filled() {
    let mut flow = Flow::new(Dir::RightToLeft, 2);
    let mut extractor = RecordExtractor::new();
    flow.syn().extract(&mut extractor, |_| {});
    let first = flow.message(2_000, 1);
    let second = flow.message(2_000, 2);
    // Deliver the second message's packets first: nothing completes.
    let mut got = 0;
    for p in &second {
        p.extract(&mut extractor, |_| got += 1);
    }
    assert_eq!(got, 0, "records behind a hole must not complete");
    // Fill the hole: both messages flood out, stamped with the filling
    // packet's time — exactly the behaviour the adversary's gate has to
    // wait out after its drop window.
    let mut released = Vec::new();
    for p in &first {
        p.extract(&mut extractor, |r| released.push(r));
    }
    assert_eq!(released.len(), 2);
    assert!(released
        .iter()
        .all(|r| r.time == first.last().unwrap().time));
}

#[test]
fn duplicate_packets_do_not_duplicate_records() {
    let mut flow = Flow::new(Dir::RightToLeft, 2);
    let mut extractor = RecordExtractor::new();
    flow.syn().extract(&mut extractor, |_| {});
    let packets = flow.message(3_000, 1);
    let mut count = 0;
    for p in packets.iter().chain(&packets) {
        p.extract(&mut extractor, |_| count += 1);
    }
    assert_eq!(count, 1);
}
