//! Passive TCP stream following.
//!
//! `tshark` reconstructs TCP streams from captured packets without being an
//! endpoint; so does the paper's monitor. [`StreamFollower`] does the same:
//! it learns the initial sequence number from the SYN, maps wire sequence
//! numbers to stream offsets, and reassembles the byte stream — duplicates
//! and retransmissions included — using the very same [`Reassembler`] the
//! endpoints use. Reassembly is not an endpoint privilege.
//!
//! The follower reads segments as they pass and keeps no copy of the
//! stream. Each newly in-order range is handed to the caller as a
//! borrowed view of the segment's bytes; only a segment held behind a gap
//! stays, as a shared view of its bytes, until the gap fills.

use h2priv_tcp::{Reassembler, Seq, TcpSegment};

/// Follows one direction of one TCP connection from the segments that
/// pass the observer.
#[derive(Debug, Clone, Default)]
pub struct StreamFollower {
    /// The sender's ISN, learned from its SYN.
    isn: Option<Seq>,
    reassembler: Reassembler,
    /// Segments seen before the SYN (should not happen in ordered captures;
    /// counted for diagnostics).
    orphan_segments: u64,
}

impl StreamFollower {
    /// Creates a follower awaiting the SYN.
    pub fn new() -> Self {
        StreamFollower::default()
    }

    /// Feeds one segment (must be from the followed direction) and hands
    /// `deliver` each range of stream bytes it brings in order, in stream
    /// order.
    pub fn push(&mut self, segment: &TcpSegment, deliver: impl FnMut(&[u8])) {
        if segment.flags.syn {
            self.isn = Some(segment.seq);
            return;
        }
        let Some(isn) = self.isn else {
            if !segment.payload.is_empty() {
                self.orphan_segments += 1;
            }
            return;
        };
        // Data starts at isn + 1 (the SYN consumes one sequence number).
        let offset = (segment.seq - (isn + 1)) as u64;
        self.reassembler
            .insert_with(offset, &segment.payload, deliver);
    }

    /// Bytes buffered out of order (a gap is in front of them).
    pub fn gap_bytes(&self) -> usize {
        self.reassembler.pending_bytes()
    }

    /// Duplicate bytes seen (retransmissions).
    pub fn duplicate_bytes(&self) -> u64 {
        self.reassembler.duplicate_bytes()
    }

    /// Segments with data that arrived before the SYN was seen.
    pub fn orphan_segments(&self) -> u64 {
        self.orphan_segments
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_tcp::TcpFlags;

    fn packet(seq: u32, flags: TcpFlags, payload: &[u8]) -> TcpSegment {
        TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags,
            window: 1000,
            payload: payload.to_vec().into(),
        }
    }

    fn syn(seq: u32) -> TcpSegment {
        packet(seq, TcpFlags::SYN, b"")
    }

    fn data(seq: u32, payload: &[u8]) -> TcpSegment {
        packet(seq, TcpFlags::ACK, payload)
    }

    /// The bytes `segment` brings in order, concatenated.
    fn follow(f: &mut StreamFollower, segment: &TcpSegment) -> Vec<u8> {
        let mut out = Vec::new();
        f.push(segment, |bytes| out.extend_from_slice(bytes));
        out
    }

    #[test]
    fn follows_in_order_stream() {
        let mut f = StreamFollower::new();
        assert!(follow(&mut f, &syn(100)).is_empty());
        assert_eq!(follow(&mut f, &data(101, b"hel")), b"hel");
        assert_eq!(follow(&mut f, &data(104, b"lo")), b"lo");
    }

    #[test]
    fn reorders_like_an_endpoint() {
        let mut f = StreamFollower::new();
        follow(&mut f, &syn(100));
        assert!(follow(&mut f, &data(104, b"lo")).is_empty());
        assert_eq!(f.gap_bytes(), 2);
        assert_eq!(follow(&mut f, &data(101, b"hel")), b"hello");
    }

    #[test]
    fn retransmissions_are_deduplicated() {
        let mut f = StreamFollower::new();
        follow(&mut f, &syn(100));
        assert_eq!(follow(&mut f, &data(101, b"abc")), b"abc");
        assert!(follow(&mut f, &data(101, b"abc")).is_empty());
        assert_eq!(f.duplicate_bytes(), 3);
    }

    #[test]
    fn data_before_syn_is_orphaned() {
        let mut f = StreamFollower::new();
        assert!(follow(&mut f, &data(101, b"abc")).is_empty());
        assert_eq!(f.orphan_segments(), 1);
    }

    #[test]
    fn pure_acks_produce_nothing() {
        let mut f = StreamFollower::new();
        follow(&mut f, &syn(100));
        assert!(follow(&mut f, &data(101, b"")).is_empty());
    }
}
