//! Mid-path wire checker: a [`Middlebox`] that validates every forwarded
//! segment without perturbing it.
//!
//! The tap sits at the gateway — the adversary's own vantage point — and
//! checks the invariants that are decidable from the wire: TCP sequence
//! and acknowledgment sanity per direction, and TLS record framing via
//! [`TlsDirChecker`]. (Sender-private invariants like retransmit-only-
//! unacked live in [`crate::TcpEndpointChecker`] instead: an ACK observed
//! mid-path may still be in flight toward the sender, so they are not
//! wire-decidable.)
//!
//! Ordering makes the ack-vs-sent cross-check sound at this vantage: any
//! data a receiver acknowledges passed the tap before reaching it, and its
//! ACK passes the tap after — so at the tap, an ACK may never cover bytes
//! the tap has not already seen travel the other way.

use crate::tls::TlsDirChecker;
use crate::{Layer, ViolationSink};
use h2priv_netsim::{Dir, MbContext, Middlebox, Packet, Verdict};
use h2priv_tcp::{Seq, TcpSegment};

/// Per-direction wire state.
struct DirState {
    label: &'static str,
    /// Sender's ISS, learned from its SYN.
    iss: Option<Seq>,
    /// One past the highest sequence-space byte seen (seq + seq_len).
    max_seq_end: Option<Seq>,
    /// Highest acknowledgment number seen.
    max_ack: Option<Seq>,
    tls: TlsDirChecker,
}

impl DirState {
    fn new(label: &'static str) -> Self {
        DirState {
            label,
            iss: None,
            max_seq_end: None,
            max_ack: None,
            tls: TlsDirChecker::new(label),
        }
    }
}

/// Conformance middlebox; install last in the gateway chain so it observes
/// exactly the traffic that survives the adversary.
pub struct ConformanceTap {
    sink: ViolationSink,
    l2r: DirState,
    r2l: DirState,
}

impl ConformanceTap {
    /// Creates a tap reporting into `sink`.
    pub fn new(sink: ViolationSink) -> Self {
        ConformanceTap {
            sink,
            l2r: DirState::new("client->server"),
            r2l: DirState::new("server->client"),
        }
    }
}

impl Middlebox<TcpSegment> for ConformanceTap {
    fn process(&mut self, packet: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
        let seg = &packet.payload;
        let now = ctx.now;
        let (fwd, rev) = match ctx.dir {
            Dir::LeftToRight => (&mut self.l2r, &mut self.r2l),
            Dir::RightToLeft => (&mut self.r2l, &mut self.l2r),
        };
        if seg.flags.syn {
            match fwd.iss {
                Some(iss) if iss != seg.seq => self.sink.report(
                    Layer::Tcp,
                    "syn-iss-stable",
                    now,
                    format!(
                        "{}: retransmitted SYN changed ISS {iss} -> {}",
                        fwd.label, seg.seq
                    ),
                ),
                _ => fwd.iss = Some(seg.seq),
            }
        } else if let Some(iss) = fwd.iss {
            if !seg.payload.is_empty() {
                // Data never precedes the sequence space (ISS+1 onward).
                if seg.seq.lt(iss + 1) {
                    self.sink.report(
                        Layer::Tcp,
                        "seq-below-iss",
                        now,
                        format!("{}: data at {} precedes ISS {iss}", fwd.label, seg.seq),
                    );
                } else {
                    let rel = (seg.seq - (iss + 1)) as u64;
                    fwd.tls.on_payload(rel, &seg.payload, now, &self.sink);
                }
            }
        }
        let seq_end = seg.seq + seg.seq_len();
        fwd.max_seq_end = Some(match fwd.max_seq_end {
            Some(m) => m.max(seq_end),
            None => seq_end,
        });
        if seg.flags.ack {
            // Acks only ever advance (cumulative acknowledgment).
            if let Some(prev) = fwd.max_ack {
                if seg.ack.lt(prev) {
                    self.sink.report(
                        Layer::Tcp,
                        "ack-monotonic",
                        now,
                        format!("{}: ack regressed {prev} -> {}", fwd.label, seg.ack),
                    );
                }
            }
            fwd.max_ack = Some(match fwd.max_ack {
                Some(m) => m.max(seg.ack),
                None => seg.ack,
            });
            // An ack can never cover sequence space the tap has not seen
            // travel the opposite direction.
            if let Some(rev_end) = rev.max_seq_end {
                if seg.ack.gt(rev_end) {
                    self.sink.report(
                        Layer::Tcp,
                        "ack-unsent",
                        now,
                        format!(
                            "{}: ack {} beyond opposite stream end {rev_end}",
                            fwd.label, seg.ack
                        ),
                    );
                }
            }
        }
        Verdict::Forward
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::{NodeId, ShapingState, SimRng, SimTime};
    use h2priv_tcp::TcpFlags;

    fn packet(seg: TcpSegment) -> Packet<TcpSegment> {
        let wire = seg.wire_bytes();
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            wire_bytes: wire,
            id: 0,
            payload: seg,
        }
    }

    fn run(tap: &mut ConformanceTap, dir: Dir, seg: TcpSegment) {
        let mut rng = SimRng::seed_from(0);
        let mut shaping = ShapingState::default();
        let mut ctx = MbContext {
            now: SimTime::ZERO,
            dir,
            rng: &mut rng,
            shaping: &mut shaping,
        };
        tap.process(&packet(seg), &mut ctx);
    }

    fn syn(seq: u32) -> TcpSegment {
        TcpSegment {
            seq: Seq(seq),
            ack: Seq(0),
            flags: TcpFlags::SYN,
            window: 65_535,
            payload: h2priv_bytes::SharedBytes::new(),
        }
    }

    fn pure_ack(ack: u32) -> TcpSegment {
        TcpSegment {
            seq: Seq(1),
            ack: Seq(ack),
            flags: TcpFlags::ACK,
            window: 65_535,
            payload: h2priv_bytes::SharedBytes::new(),
        }
    }

    #[test]
    fn ack_regression_is_flagged() {
        let sink = ViolationSink::new();
        let mut tap = ConformanceTap::new(sink.clone());
        run(&mut tap, Dir::LeftToRight, syn(100));
        run(&mut tap, Dir::RightToLeft, syn(500));
        run(&mut tap, Dir::LeftToRight, pure_ack(501));
        run(&mut tap, Dir::LeftToRight, pure_ack(510));
        assert!(sink.take().0.iter().any(|v| v.rule == "ack-unsent"));
        run(&mut tap, Dir::LeftToRight, pure_ack(502));
        assert!(sink.take().0.iter().any(|v| v.rule == "ack-monotonic"));
    }

    #[test]
    fn handshake_acks_are_clean() {
        let sink = ViolationSink::new();
        let mut tap = ConformanceTap::new(sink.clone());
        run(&mut tap, Dir::LeftToRight, syn(100));
        let mut synack = syn(500);
        synack.flags = TcpFlags::SYN_ACK;
        synack.ack = Seq(101);
        run(&mut tap, Dir::RightToLeft, synack);
        run(&mut tap, Dir::LeftToRight, pure_ack(501));
        assert!(sink.is_empty(), "violations: {:?}", sink.take().0);
    }

    #[test]
    fn changed_iss_on_syn_retransmit_is_flagged() {
        let sink = ViolationSink::new();
        let mut tap = ConformanceTap::new(sink.clone());
        run(&mut tap, Dir::LeftToRight, syn(100));
        run(&mut tap, Dir::LeftToRight, syn(100)); // same ISS: fine
        assert!(sink.is_empty());
        run(&mut tap, Dir::LeftToRight, syn(200));
        assert!(sink.take().0.iter().any(|v| v.rule == "syn-iss-stable"));
    }
}
