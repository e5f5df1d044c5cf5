//! Middleboxes and the gateway node that hosts them.
//!
//! The paper's adversary is "a compromised network device on the
//! client–server path" (§III) that can inspect headers, measure encrypted
//! packet sizes, delay packets, throttle bandwidth, and drop packets. All
//! five capabilities map onto this module:
//!
//! * inspect / measure — [`Middlebox::process`] receives each transiting
//!   packet by reference;
//! * delay — return [`Verdict::Hold`];
//! * drop — return [`Verdict::Drop`];
//! * throttle — mutate [`ShapingState`] through the [`MbContext`], which the
//!   gateway applies as an egress rate limiter per direction.
//!
//! A [`GatewayNode`] bridges two endpoints and runs an ordered
//! [`MiddleboxChain`] over every transiting packet. The passive wire tap
//! used by the analysis crate and the active adversary of `h2priv-core`
//! are both just middleboxes, which mirrors reality: the attack needs no
//! privilege beyond what a traffic-shaping gateway already has.

use std::cell::RefCell;
use std::rc::Rc;

use crate::link::{BitsPerSec, LinkConfig};
use crate::node::{Context, Node};
use crate::packet::{Dir, NodeId, Packet};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a middlebox decided to do with one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Pass the packet along unchanged.
    Forward,
    /// Delay the packet by the given amount before forwarding. Holds from
    /// multiple middleboxes in a chain accumulate.
    Hold(SimDuration),
    /// Discard the packet.
    Drop,
}

/// Mutable egress shaping state of a gateway, adjustable by middleboxes at
/// any packet. `rate[dir]` of `None` means "no cap" (wire speed).
#[derive(Debug, Clone, Default)]
pub struct ShapingState {
    rate: [Option<BitsPerSec>; 2],
}

impl ShapingState {
    /// Current cap for a direction.
    pub fn rate(&self, dir: Dir) -> Option<BitsPerSec> {
        self.rate[dir.index()]
    }

    /// Caps egress bandwidth for a direction.
    pub fn set_rate(&mut self, dir: Dir, rate: Option<BitsPerSec>) {
        self.rate[dir.index()] = rate;
    }

    /// Caps both directions at once (the paper's experiments throttle the
    /// medium symmetrically: "bandwidth limits are applied for both incoming
    /// and outgoing packets", §IV-C).
    pub fn set_rate_both(&mut self, rate: Option<BitsPerSec>) {
        self.rate = [rate, rate];
    }
}

/// Environment for [`Middlebox::process`].
#[derive(Debug)]
pub struct MbContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// Which way the packet is heading through the gateway.
    pub dir: Dir,
    /// The run's deterministic RNG.
    pub rng: &'a mut SimRng,
    /// The gateway's egress shaping state, mutable by the middlebox.
    pub shaping: &'a mut ShapingState,
}

/// A packet-processing element installed on a gateway.
pub trait Middlebox<P> {
    /// Inspects one transiting packet and decides its fate.
    fn process(&mut self, packet: &Packet<P>, ctx: &mut MbContext<'_>) -> Verdict;
}

/// Blanket impl so shared-handle middleboxes (`Rc<RefCell<T>>`) can be
/// installed directly; the experiment driver keeps a clone to interrogate
/// the middlebox after the run.
impl<P, T: Middlebox<P>> Middlebox<P> for Rc<RefCell<T>> {
    fn process(&mut self, packet: &Packet<P>, ctx: &mut MbContext<'_>) -> Verdict {
        self.borrow_mut().process(packet, ctx)
    }
}

/// Blanket impl so boxed middleboxes (including trait objects) can be
/// installed and composed.
impl<P, T: Middlebox<P> + ?Sized> Middlebox<P> for Box<T> {
    fn process(&mut self, packet: &Packet<P>, ctx: &mut MbContext<'_>) -> Verdict {
        (**self).process(packet, ctx)
    }
}

/// A middlebox that forwards everything untouched.
#[derive(Debug, Clone, Copy, Default)]
pub struct Passthrough;

impl<P> Middlebox<P> for Passthrough {
    fn process(&mut self, _packet: &Packet<P>, _ctx: &mut MbContext<'_>) -> Verdict {
        Verdict::Forward
    }
}

/// Counters kept by a [`GatewayNode`], indexed by [`Dir`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Packets forwarded (after any hold/shaping), per direction.
    pub forwarded: [u64; 2],
    /// Packets dropped by a middlebox verdict, per direction.
    pub dropped: [u64; 2],
    /// Packets that were held before forwarding, per direction.
    pub held: [u64; 2],
}

impl GatewayStats {
    /// Total packets dropped in both directions.
    pub fn total_dropped(&self) -> u64 {
        self.dropped[0] + self.dropped[1]
    }
}

/// An ordered middlebox chain and the egress shaper it drives: the verdict
/// fold a gateway runs over each transiting packet.
///
/// A drop verdict ends the chain at once; holds from several middleboxes
/// add up. The shaper then serializes un-held packets in verdict order at
/// the per-direction rate the middleboxes set through [`ShapingState`].
/// Held packets are already paced by their hold and bypass the shaper:
/// advancing its cursor to a far-future release would wrongly queue every
/// later packet behind them.
pub struct MiddleboxChain<P> {
    chain: Vec<Box<dyn Middlebox<P>>>,
    shaping: ShapingState,
    /// Egress serializer cursor per direction (rate limiting).
    shaper_busy: [SimTime; 2],
    stats: GatewayStats,
}

impl<P> std::fmt::Debug for MiddleboxChain<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiddleboxChain")
            .field("len", &self.chain.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl<P> MiddleboxChain<P> {
    /// A chain running `chain` in order, with no shaping cap yet.
    pub fn new(chain: Vec<Box<dyn Middlebox<P>>>) -> Self {
        MiddleboxChain {
            chain,
            shaping: ShapingState::default(),
            shaper_busy: [SimTime::ZERO; 2],
            stats: GatewayStats::default(),
        }
    }

    /// Appends a middlebox to the chain.
    pub(crate) fn push(&mut self, mb: impl Middlebox<P> + 'static) {
        self.chain.push(Box::new(mb));
    }

    /// Accumulated counters.
    pub(crate) fn stats(&self) -> GatewayStats {
        self.stats
    }

    /// Runs the chain over one packet heading `dir` at `now`. Returns
    /// `None` if a middlebox dropped it, otherwise how long to hold it
    /// before it enters the outgoing link: the summed holds, or for an
    /// un-held packet its egress shaping delay.
    pub fn process(
        &mut self,
        packet: &Packet<P>,
        dir: Dir,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Option<SimDuration> {
        let mut hold = SimDuration::ZERO;
        let mut ctx = MbContext {
            now,
            dir,
            rng,
            shaping: &mut self.shaping,
        };
        for mb in &mut self.chain {
            match mb.process(packet, &mut ctx) {
                Verdict::Forward => {}
                Verdict::Hold(d) => hold += d,
                Verdict::Drop => {
                    self.stats.dropped[dir.index()] += 1;
                    return None;
                }
            }
        }
        self.stats.forwarded[dir.index()] += 1;
        if !hold.is_zero() {
            self.stats.held[dir.index()] += 1;
            return Some(hold);
        }
        let Some(rate) = self.shaping.rate(dir) else {
            return Some(SimDuration::ZERO);
        };
        let cfg = LinkConfig::default().bandwidth(rate);
        let start = now.max(self.shaper_busy[dir.index()]);
        let departure = start + cfg.serialization_time(packet.wire_bytes);
        self.shaper_busy[dir.index()] = departure;
        Some(departure - now)
    }
}

/// A node bridging a "left" endpoint and a "right" endpoint, running a
/// [`MiddleboxChain`] over transiting traffic.
///
/// The gateway classifies direction by the packet's original source: packets
/// whose `src` equals the left endpoint travel [`Dir::LeftToRight`]. It is
/// therefore intended for the canonical three-node chain
/// `client — gateway — server` (the paper's topology: the lab gateway,
/// §V "Adversary Setup").
pub struct GatewayNode<P> {
    left: NodeId,
    right: NodeId,
    chain: MiddleboxChain<P>,
}

impl<P> std::fmt::Debug for GatewayNode<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayNode")
            .field("left", &self.left)
            .field("right", &self.right)
            .field("chain", &self.chain)
            .finish()
    }
}

impl<P> GatewayNode<P> {
    /// Creates a gateway bridging `left` and `right`.
    pub fn new(left: NodeId, right: NodeId) -> Self {
        GatewayNode {
            left,
            right,
            chain: MiddleboxChain::new(Vec::new()),
        }
    }

    /// Appends a middlebox to the chain (builder style). Chain order is
    /// processing order; install taps before active elements to observe
    /// traffic exactly as it arrives.
    pub fn with_middlebox(mut self, mb: impl Middlebox<P> + 'static) -> Self {
        self.chain.push(mb);
        self
    }

    /// Appends a middlebox to the chain.
    pub fn push_middlebox(&mut self, mb: impl Middlebox<P> + 'static) {
        self.chain.push(mb);
    }

    /// Accumulated counters.
    pub fn stats(&self) -> GatewayStats {
        self.chain.stats()
    }
}

impl<P> Node<P> for GatewayNode<P> {
    fn on_packet(&mut self, packet: Packet<P>, ctx: &mut Context<'_, P>) {
        let dir = if packet.src == self.left {
            Dir::LeftToRight
        } else {
            Dir::RightToLeft
        };
        if let Some(delay) = self.chain.process(&packet, dir, ctx.now, ctx.rng) {
            ctx.send_after(delay, packet);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::mbps;

    fn ctx_parts() -> (SimRng, Vec<crate::node::Effect<u8>>, u64) {
        (SimRng::seed_from(0), Vec::new(), 0)
    }

    fn make_ctx<'a>(
        now: SimTime,
        rng: &'a mut SimRng,
        effects: &'a mut Vec<crate::node::Effect<u8>>,
        timer_seq: &'a mut u64,
    ) -> Context<'a, u8> {
        Context {
            now,
            node: NodeId(1),
            rng,
            effects,
            timer_seq,
        }
    }

    struct DropAll;
    impl Middlebox<u8> for DropAll {
        fn process(&mut self, _p: &Packet<u8>, _c: &mut MbContext<'_>) -> Verdict {
            Verdict::Drop
        }
    }

    struct HoldBy(SimDuration);
    impl Middlebox<u8> for HoldBy {
        fn process(&mut self, _p: &Packet<u8>, _c: &mut MbContext<'_>) -> Verdict {
            Verdict::Hold(self.0)
        }
    }

    #[test]
    fn passthrough_forwards() {
        let mut gw: GatewayNode<u8> =
            GatewayNode::new(NodeId(0), NodeId(2)).with_middlebox(Passthrough);
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 100, 1u8), &mut ctx);
        assert_eq!(fx.len(), 1);
        assert_eq!(gw.stats().forwarded, [1, 0]);
    }

    #[test]
    fn direction_classification() {
        let mut gw: GatewayNode<u8> = GatewayNode::new(NodeId(0), NodeId(2));
        let (mut rng, mut fx, mut seq) = ctx_parts();
        {
            let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
            gw.on_packet(Packet::new(NodeId(0), NodeId(2), 100, 1u8), &mut ctx);
            gw.on_packet(Packet::new(NodeId(2), NodeId(0), 100, 1u8), &mut ctx);
        }
        assert_eq!(gw.stats().forwarded, [1, 1]);
    }

    #[test]
    fn drop_verdict_discards() {
        let mut gw: GatewayNode<u8> =
            GatewayNode::new(NodeId(0), NodeId(2)).with_middlebox(DropAll);
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 100, 1u8), &mut ctx);
        assert!(fx.is_empty());
        assert_eq!(gw.stats().dropped, [1, 0]);
        assert_eq!(gw.stats().total_dropped(), 1);
    }

    #[test]
    fn holds_accumulate_across_chain() {
        let mut gw: GatewayNode<u8> = GatewayNode::new(NodeId(0), NodeId(2))
            .with_middlebox(HoldBy(SimDuration::from_millis(10)))
            .with_middlebox(HoldBy(SimDuration::from_millis(5)));
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 100, 1u8), &mut ctx);
        match &fx[0] {
            crate::node::Effect::SendAfter(d, _) => {
                assert_eq!(*d, SimDuration::from_millis(15));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(gw.stats().held, [1, 0]);
    }

    #[test]
    fn drop_short_circuits_chain() {
        struct Counter(Rc<RefCell<u64>>);
        impl Middlebox<u8> for Counter {
            fn process(&mut self, _p: &Packet<u8>, _c: &mut MbContext<'_>) -> Verdict {
                *self.0.borrow_mut() += 1;
                Verdict::Forward
            }
        }
        let count = Rc::new(RefCell::new(0));
        let mut gw: GatewayNode<u8> = GatewayNode::new(NodeId(0), NodeId(2))
            .with_middlebox(DropAll)
            .with_middlebox(Counter(count.clone()));
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 100, 1u8), &mut ctx);
        assert_eq!(*count.borrow(), 0);
    }

    #[test]
    fn shaping_serializes_packets() {
        struct Throttle;
        impl Middlebox<u8> for Throttle {
            fn process(&mut self, _p: &Packet<u8>, c: &mut MbContext<'_>) -> Verdict {
                c.shaping.set_rate_both(Some(mbps(1)));
                Verdict::Forward
            }
        }
        let mut gw: GatewayNode<u8> =
            GatewayNode::new(NodeId(0), NodeId(2)).with_middlebox(Throttle);
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        // Two 1500 B packets at 1 Mbps: 12 ms each, so the second departs
        // 24 ms after arrival.
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 1500, 1u8), &mut ctx);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 1500, 2u8), &mut ctx);
        let delays: Vec<SimDuration> = fx
            .iter()
            .map(|e| match e {
                crate::node::Effect::SendAfter(d, _) => *d,
                crate::node::Effect::Send(_) => SimDuration::ZERO,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            delays,
            vec![SimDuration::from_millis(12), SimDuration::from_millis(24)]
        );
    }

    #[test]
    fn shaping_is_per_direction() {
        struct ThrottleC2s;
        impl Middlebox<u8> for ThrottleC2s {
            fn process(&mut self, _p: &Packet<u8>, c: &mut MbContext<'_>) -> Verdict {
                c.shaping.set_rate(Dir::LeftToRight, Some(mbps(1)));
                Verdict::Forward
            }
        }
        let mut gw: GatewayNode<u8> =
            GatewayNode::new(NodeId(0), NodeId(2)).with_middlebox(ThrottleC2s);
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(2), NodeId(0), 1500, 1u8), &mut ctx);
        // Server→client is uncapped: forwarded immediately.
        assert!(matches!(fx[0], crate::node::Effect::Send(_)));
    }

    #[test]
    fn rc_refcell_middlebox_shares_state() {
        #[derive(Default)]
        struct Tap {
            seen: Vec<u32>,
        }
        impl Middlebox<u8> for Tap {
            fn process(&mut self, p: &Packet<u8>, _c: &mut MbContext<'_>) -> Verdict {
                self.seen.push(p.wire_bytes);
                Verdict::Forward
            }
        }
        let tap = Rc::new(RefCell::new(Tap::default()));
        let mut gw: GatewayNode<u8> =
            GatewayNode::new(NodeId(0), NodeId(2)).with_middlebox(tap.clone());
        let (mut rng, mut fx, mut seq) = ctx_parts();
        let mut ctx = make_ctx(SimTime::ZERO, &mut rng, &mut fx, &mut seq);
        gw.on_packet(Packet::new(NodeId(0), NodeId(2), 111, 1u8), &mut ctx);
        assert_eq!(tap.borrow().seen, vec![111]);
    }
}
