//! TCP segments as they appear on the simulated wire.

use crate::seq::Seq;
use h2priv_bytes::SharedBytes;
use std::fmt;

/// Modeled size of the IP + TCP headers on every segment, in bytes.
/// (20 IP + 20 TCP, no options — timestamps etc. are not modeled.)
pub const HEADER_BYTES: u32 = 40;

/// Default maximum segment size: 1500-byte Ethernet MTU minus headers.
pub const DEFAULT_MSS: usize = 1460;

/// TCP header flags (only the ones the model uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Synchronize sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgment field is valid.
    pub ack: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// Flags for a plain data or pure-ACK segment.
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        ack: true,
        rst: false,
    };
    /// Flags for an initial SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        ack: false,
        rst: false,
    };
    /// Flags for a SYN-ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        ack: true,
        rst: false,
    };
    /// Flags for a RST.
    pub const RST: TcpFlags = TcpFlags {
        syn: false,
        ack: false,
        rst: true,
    };
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn {
            parts.push("SYN");
        }
        if self.ack {
            parts.push("ACK");
        }
        if self.rst {
            parts.push("RST");
        }
        if parts.is_empty() {
            parts.push("-");
        }
        write!(f, "{}", parts.join("|"))
    }
}

/// One TCP segment. This is the payload type carried by
/// `h2priv_netsim::Packet` throughout the workspace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment {
    /// Sequence number of the first payload byte (or of the SYN).
    pub seq: Seq,
    /// Acknowledgment number (next expected byte), valid iff `flags.ack`.
    pub ack: Seq,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window, in bytes.
    pub window: u32,
    /// Payload bytes (encrypted TLS records in the h2priv stack). A
    /// shared slice of the sender's retransmission buffer: cloning the
    /// segment through links, middleboxes and taps shares the bytes
    /// instead of copying them.
    pub payload: SharedBytes,
}

impl TcpSegment {
    /// Total on-the-wire size of this segment.
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + self.payload.len() as u32
    }

    /// Sequence space this segment occupies (payload bytes, plus one for
    /// SYN).
    pub fn seq_len(&self) -> u32 {
        self.payload.len() as u32 + u32::from(self.flags.syn)
    }

    /// The sequence number just past this segment.
    pub fn seq_end(&self) -> Seq {
        self.seq + self.seq_len()
    }

    /// True if this is a pure acknowledgment (no payload, no SYN/RST).
    pub fn is_pure_ack(&self) -> bool {
        self.flags.ack && !self.flags.syn && !self.flags.rst && self.payload.is_empty()
    }
}

impl fmt::Display for TcpSegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} seq={} ack={} len={} win={}]",
            self.flags,
            self.seq,
            self.ack,
            self.payload.len(),
            self.window
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_seg(len: usize) -> TcpSegment {
        TcpSegment {
            seq: Seq(100),
            ack: Seq(1),
            flags: TcpFlags::ACK,
            window: 65_535,
            payload: vec![0; len].into(),
        }
    }

    #[test]
    fn wire_bytes_includes_headers() {
        assert_eq!(data_seg(0).wire_bytes(), 40);
        assert_eq!(data_seg(1460).wire_bytes(), 1500);
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut s = data_seg(10);
        assert_eq!(s.seq_len(), 10);
        s.flags.syn = true;
        assert_eq!(s.seq_len(), 11);
        assert_eq!(s.seq_end(), Seq(111));
    }

    #[test]
    fn pure_ack_detection() {
        assert!(data_seg(0).is_pure_ack());
        assert!(!data_seg(1).is_pure_ack());
        let syn = TcpSegment {
            seq: Seq(0),
            ack: Seq(0),
            flags: TcpFlags::SYN,
            window: 0,
            payload: SharedBytes::new(),
        };
        assert!(!syn.is_pure_ack());
    }

    #[test]
    fn display_flags() {
        assert_eq!(format!("{}", TcpFlags::SYN_ACK), "SYN|ACK");
        assert_eq!(format!("{}", TcpFlags::default()), "-");
        assert_eq!(format!("{}", TcpFlags::RST), "RST");
    }
}
