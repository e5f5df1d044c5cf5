//! Per-connection counters.
//!
//! Table I of the paper reports the *increase in the number of
//! retransmissions* as injected jitter grows, and Fig. 5 plots
//! retransmissions against throttled bandwidth; both are read off
//! [`TcpStats::retransmissions`] collected from the simulated endpoints.

/// Counters maintained by a [`TcpConnection`](crate::TcpConnection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments emitted (including control segments and retransmissions).
    pub segments_sent: u64,
    /// Segments processed from the peer.
    pub segments_received: u64,
    /// Payload bytes sent (including retransmitted bytes).
    pub bytes_sent: u64,
    /// New in-order payload bytes received.
    pub bytes_received: u64,
    /// Data segments retransmitted, by any mechanism.
    pub retransmissions: u64,
    /// Payload bytes retransmitted.
    pub retransmitted_bytes: u64,
    /// Fast-retransmit events (3rd duplicate ACK).
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// SYN / SYN-ACK retransmissions.
    pub syn_retransmissions: u64,
    /// Duplicate ACKs received from the peer.
    pub dup_acks_received: u64,
    /// Duplicate ACKs we sent (out-of-order arrivals).
    pub dup_acks_sent: u64,
    /// Bytes *resident* in the send buffer (queued chunks not yet
    /// released by acknowledgments). A gauge, not a cumulative counter:
    /// on a healthy connection it stays bounded by the send window no
    /// matter how much data the stream carries. See
    /// [`TcpConnection::send_buf_bytes`](crate::TcpConnection::send_buf_bytes).
    pub send_buf_bytes: u64,
}

impl TcpStats {
    /// Sums two endpoints' counters (e.g. client + server of one trial).
    pub fn merged(&self, other: &TcpStats) -> TcpStats {
        TcpStats {
            segments_sent: self.segments_sent + other.segments_sent,
            segments_received: self.segments_received + other.segments_received,
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            retransmissions: self.retransmissions + other.retransmissions,
            retransmitted_bytes: self.retransmitted_bytes + other.retransmitted_bytes,
            fast_retransmits: self.fast_retransmits + other.fast_retransmits,
            timeouts: self.timeouts + other.timeouts,
            syn_retransmissions: self.syn_retransmissions + other.syn_retransmissions,
            dup_acks_received: self.dup_acks_received + other.dup_acks_received,
            dup_acks_sent: self.dup_acks_sent + other.dup_acks_sent,
            send_buf_bytes: self.send_buf_bytes + other.send_buf_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed() {
        let s = TcpStats::default();
        assert_eq!(s.segments_sent, 0);
        assert_eq!(s.retransmissions, 0);
    }

    #[test]
    fn merged_sums_fields() {
        let a = TcpStats {
            segments_sent: 3,
            retransmissions: 2,
            ..TcpStats::default()
        };
        let b = TcpStats {
            segments_sent: 4,
            timeouts: 1,
            ..TcpStats::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.segments_sent, 7);
        assert_eq!(m.retransmissions, 2);
        assert_eq!(m.timeouts, 1);
    }
}
