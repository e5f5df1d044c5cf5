//! Cross-layer protocol conformance oracle.
//!
//! Sans-IO invariant checkers that attach to the existing netsim taps and
//! testkit hosts and validate, at every event, that the TCP, TLS and
//! HTTP/2 substrates obey the RFC rules the paper's attack depends on:
//!
//! * **TCP** ([`tcp::TcpEndpointChecker`], wire checks in
//!   [`tap::ConformanceTap`]) — seq/ack monotonicity, acks never cover
//!   unsent data, cwnd/ssthresh floors, retransmit-only-unacked, and
//!   Karn's sampling rule. The §IV-C cwnd contraction is only meaningful
//!   if congestion accounting is right.
//! * **TLS** ([`tls::TlsDirChecker`]) — record headers tile each
//!   direction's byte stream exactly, lengths stay within
//!   `MAX_CIPHERTEXT`, and the explicit per-record nonce is a gapless
//!   sequence. The monitor's record-counting heuristics (§V) assume this.
//! * **HTTP/2** ([`h2::H2LedgerChecker`]) — connection and stream
//!   flow-control ledgers never go negative, WINDOW_UPDATE never
//!   overflows, DATA in flight across `RST_STREAM` is accounted exactly
//!   once (the §IV-D flush), stream-state legality, and HPACK
//!   dynamic-table-size sync.
//!
//! Checkers never mutate or perturb the stacks they watch: they observe
//! wire bytes and public inspector state only, and report into a shared
//! [`ViolationSink`]. Scenarios assert the sink stays empty.

pub mod h2;
pub mod tap;
pub mod tcp;
pub mod tls;

pub use h2::H2LedgerChecker;
pub use tap::ConformanceTap;
pub use tcp::TcpEndpointChecker;

use h2priv_netsim::SimTime;
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Which protocol layer a violation was detected in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// TCP (RFC 793 / 5681 / 6298).
    Tcp,
    /// TLS record layer.
    Tls,
    /// HTTP/2 framing and flow control (RFC 7540 / 7541).
    Http2,
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Layer::Tcp => "tcp",
            Layer::Tls => "tls",
            Layer::Http2 => "h2",
        })
    }
}

/// One detected invariant breach.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Layer the rule belongs to.
    pub layer: Layer,
    /// Short stable rule identifier, e.g. `"ack-monotonic"`.
    pub rule: &'static str,
    /// Simulation time at which the breach was observed.
    pub time: SimTime,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}/{}: {}",
            self.time, self.layer, self.rule, self.detail
        )
    }
}

/// Stored violations are capped so a systemic breach (one rule tripping on
/// every segment of a long transfer) cannot balloon memory; the total
/// count keeps climbing past the cap.
const MAX_STORED: usize = 1024;

/// Shared collector the checkers report into.
///
/// Cloning is cheap (an `Rc` handle); the scenario keeps one handle and
/// gives one to every checker it installs.
#[derive(Clone, Default)]
pub struct ViolationSink {
    inner: Rc<RefCell<SinkState>>,
}

#[derive(Default)]
struct SinkState {
    stored: Vec<Violation>,
    total: u64,
}

impl ViolationSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one violation.
    pub fn report(&self, layer: Layer, rule: &'static str, time: SimTime, detail: String) {
        let mut s = self.inner.borrow_mut();
        s.total += 1;
        if s.stored.len() < MAX_STORED {
            s.stored.push(Violation {
                layer,
                rule,
                time,
                detail,
            });
        }
    }

    /// Total violations reported (including any past the storage cap).
    pub fn total(&self) -> u64 {
        self.inner.borrow().total
    }

    /// True if nothing has been reported.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Takes the stored violations and the total reported (including any
    /// past the storage cap), leaving the sink empty. One call reads both,
    /// so no caller can read the total after the take has zeroed it.
    pub fn take(&self) -> (Vec<Violation>, u64) {
        let mut s = self.inner.borrow_mut();
        (std::mem::take(&mut s.stored), std::mem::take(&mut s.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sink_counts_past_storage_cap() {
        let sink = ViolationSink::new();
        for i in 0..(MAX_STORED as u64 + 10) {
            sink.report(Layer::Tcp, "test", SimTime::ZERO, format!("v{i}"));
        }
        assert_eq!(sink.total(), MAX_STORED as u64 + 10);
        let (stored, _) = sink.take();
        assert_eq!(stored.len(), MAX_STORED);
        assert!(sink.is_empty());
    }

    #[test]
    fn take_returns_the_stored_violations_and_the_full_total() {
        let sink = ViolationSink::new();
        for i in 0..(MAX_STORED as u64 + 3) {
            sink.report(Layer::Http2, "test", SimTime::ZERO, format!("v{i}"));
        }
        let (stored, total) = sink.take();
        assert_eq!(stored.len(), MAX_STORED);
        assert_eq!(total, MAX_STORED as u64 + 3);
        assert!(sink.is_empty());
        let (rest, rest_total) = sink.take();
        assert!(rest.is_empty());
        assert_eq!(rest_total, 0);
    }

    #[test]
    fn violation_display_is_compact() {
        let v = Violation {
            layer: Layer::Http2,
            rule: "conn-send-negative",
            time: SimTime::ZERO,
            detail: "window -3".into(),
        };
        let s = format!("{v}");
        assert!(s.contains("h2/conn-send-negative"), "{s}");
    }
}
