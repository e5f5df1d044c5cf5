//! What a passive on-path observer sees, and what the capture keeps of it.
//!
//! The paper's adversary "can (1) access unencrypted header fields of both
//! control and data packets, (2) monitor size of encrypted packets" (§III).
//! The capture keeps exactly that. [`WireTrace::push`] reads each packet
//! while it transits the gateway: one [`RecordExtractor`] per direction
//! walks the TLS record headers in the payload, and the trace stores the
//! [`RecordEvent`]s they emit. The stored [`ObservedPacket`] holds the
//! TCP/IP header fields, sizes and timing; of the encrypted payload it
//! keeps the length alone, so a finished capture holds no payload bytes
//! and no view of any sealed buffer.

use h2priv_netsim::{Dir, SimTime};
use h2priv_tcp::{TcpFlags, TcpSegment};

use crate::records::{RecordEvent, RecordExtractor};

/// The length of a captured payload: the size the observer saw of bytes
/// it does not keep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PayloadLen(u32);

impl PayloadLen {
    /// Payload bytes the packet carried.
    pub fn len(self) -> usize {
        self.0 as usize
    }

    /// True if the packet carried no payload (a pure ACK or a SYN).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// One packet as captured at the gateway: header fields, sizes and timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservedPacket {
    /// Capture timestamp.
    pub time: SimTime,
    /// Direction through the gateway.
    pub dir: Dir,
    /// Total bytes on the wire.
    pub wire_bytes: u32,
    /// TCP sequence number (plaintext header field).
    pub seq: h2priv_tcp::Seq,
    /// TCP acknowledgment number.
    pub ack: h2priv_tcp::Seq,
    /// TCP flags.
    pub flags: TcpFlags,
    /// The encrypted payload's length. Its records were read as the packet
    /// passed (see [`WireTrace::records`]).
    pub payload: PayloadLen,
}

impl ObservedPacket {
    /// The header fields and sizes of a segment transiting the gateway at
    /// `time`.
    pub(crate) fn capture(time: SimTime, dir: Dir, segment: &TcpSegment) -> Self {
        ObservedPacket {
            time,
            dir,
            wire_bytes: segment.wire_bytes(),
            seq: segment.seq,
            ack: segment.ack,
            flags: segment.flags,
            payload: PayloadLen(segment.payload.len() as u32),
        }
    }
}

/// A complete capture of one connection's traffic: every packet's header
/// fields and the TLS records extracted from the payloads as they passed.
#[derive(Debug, Clone, Default)]
pub struct WireTrace {
    packets: Vec<ObservedPacket>,
    records: Vec<RecordEvent>,
    /// The followers of a capture in progress: client→server, then
    /// server→client.
    extractors: [RecordExtractor; 2],
}

impl WireTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        WireTrace::default()
    }

    /// Captures a segment transiting the gateway at `time`: its direction's
    /// extractor reads the record headers in the payload while the bytes
    /// are still in transit, and the trace stores the completed records
    /// and the packet's header fields. Allocates only when a vector grows.
    pub fn push(&mut self, time: SimTime, dir: Dir, segment: &TcpSegment) {
        let records = &mut self.records;
        self.extractors[dir.index()].push(time, dir, segment, |r| records.push(r));
        self.packets
            .push(ObservedPacket::capture(time, dir, segment));
    }

    /// Ends the capture and moves it out, leaving this trace empty. The
    /// followers' state stays behind: a segment still held behind a gap
    /// when the capture ends completes no record, so the finished trace
    /// drops it and keeps no payload bytes.
    pub fn finish(&mut self) -> WireTrace {
        let mut finished = std::mem::take(self);
        finished.extractors = Default::default();
        finished
    }

    /// Packets in capture order.
    pub fn packets(&self) -> &[ObservedPacket] {
        &self.packets
    }

    /// Every TLS record the capture completed, both directions, in arrival
    /// order.
    pub fn records(&self) -> &[RecordEvent] {
        &self.records
    }

    /// Packets traveling in `dir`.
    pub fn in_dir(&self, dir: Dir) -> impl Iterator<Item = &ObservedPacket> {
        self.packets.iter().filter(move |p| p.dir == dir)
    }

    /// Total wire bytes in `dir`.
    pub fn bytes_in_dir(&self, dir: Dir) -> u64 {
        self.in_dir(dir).map(|p| p.wire_bytes as u64).sum()
    }

    /// Number of packets captured.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Capture duration (first to last packet).
    pub fn duration(&self) -> h2priv_netsim::SimDuration {
        match (self.packets.first(), self.packets.last()) {
            (Some(a), Some(b)) => b.time - a.time,
            _ => h2priv_netsim::SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::Seq;

    fn seg(len: usize) -> TcpSegment {
        TcpSegment {
            seq: Seq(1),
            ack: Seq(2),
            flags: TcpFlags::ACK,
            window: 1000,
            payload: vec![0xEE; len].into(),
        }
    }

    #[test]
    fn capture_copies_metadata() {
        let p = ObservedPacket::capture(SimTime::from_millis(3), Dir::LeftToRight, &seg(100));
        assert_eq!(p.wire_bytes, 140);
        assert_eq!(p.payload.len(), 100);
        assert!(!p.payload.is_empty());
        assert_eq!(p.time, SimTime::from_millis(3));
    }

    #[test]
    fn trace_filters_by_direction() {
        let mut t = WireTrace::new();
        t.push(SimTime::ZERO, Dir::LeftToRight, &seg(10));
        t.push(SimTime::from_millis(1), Dir::RightToLeft, &seg(20));
        t.push(SimTime::from_millis(2), Dir::RightToLeft, &seg(30));
        assert_eq!(t.len(), 3);
        assert_eq!(t.in_dir(Dir::RightToLeft).count(), 2);
        assert_eq!(t.bytes_in_dir(Dir::RightToLeft), 60 + 70);
        assert_eq!(t.duration(), h2priv_netsim::SimDuration::from_millis(2));
    }

    #[test]
    fn empty_trace() {
        let t = WireTrace::new();
        assert!(t.is_empty());
        assert_eq!(t.duration(), h2priv_netsim::SimDuration::ZERO);
    }

    #[test]
    fn finished_capture_holds_no_payload_bytes() {
        let mut t = WireTrace::new();
        let syn = TcpSegment {
            flags: TcpFlags::SYN,
            ..seg(0)
        };
        t.push(SimTime::ZERO, Dir::RightToLeft, &syn);
        // A segment behind a gap: the follower holds it until the gap
        // fills, which it never does.
        let held = TcpSegment {
            seq: Seq(100),
            ..seg(10)
        };
        t.push(SimTime::from_millis(1), Dir::RightToLeft, &held);
        let done = t.finish();
        assert_eq!(done.len(), 2);
        assert_eq!(done.packets()[1].payload.len(), 10);
        assert!(done.records().is_empty());
        assert!(t.is_empty());
        assert!(
            held.payload.try_into_vec().is_ok(),
            "the finished trace still shares the held segment's bytes"
        );
    }
}
