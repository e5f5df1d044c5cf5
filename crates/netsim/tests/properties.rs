//! Properties of the simulator: conservation, ordering and timing
//! invariants of links, gateways and the event engine, and the scheduler
//! differential — the calendar queue pops the **exact** `(at, seq)` order
//! of the 4-ary min-heap it replaced, and both pop the order of a sorted
//! reference, under workloads shaped like the simulator's and at
//! pathological times near `u64::MAX`.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use h2priv_netsim::internals::{CalendarQueue, MinHeap4};
use h2priv_netsim::prop;
use h2priv_netsim::{
    mbps, Context, DurationDist, GatewayNode, Link, LinkConfig, MbContext, Middlebox, Node, NodeId,
    Packet, Passthrough, SimDuration, SimRng, SimTime, Simulator, Verdict,
};

/// A link's arrivals never precede their departure plus serialization and
/// propagation delay, never regress (order preservation), and
/// serialization is work-conserving.
#[test]
fn link_timing_invariants() {
    prop::check("link_timing_invariants", 64, |g| {
        let delay_us = g.range(0u64..100_000);
        let rate_mbps = g.range(1u64..1_000);
        let sizes = g.vec(1..50, |g| g.range(40u32..1_500));
        let send_gap_us = g.range(0u64..2_000);
        let mut rng = SimRng::seed_from(g.any());
        let cfg = LinkConfig::with_delay(SimDuration::from_micros(delay_us))
            .bandwidth(mbps(rate_mbps))
            .jitter(DurationDist::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_micros(500),
            });
        let mut link = Link::new(cfg.clone());
        let mut last_arrival = SimTime::ZERO;
        let mut busy = SimTime::ZERO;
        for (i, &size) in sizes.iter().enumerate() {
            let now = SimTime::from_micros(i as u64 * send_gap_us);
            let arrival = link.transmit(now, size, &mut rng).unwrap();
            // Lower bound: serialization from max(now, busy) + delay.
            let start = now.max(busy);
            busy = start + cfg.serialization_time(size);
            assert!(arrival >= busy + SimDuration::from_micros(delay_us));
            assert!(arrival >= last_arrival, "arrivals regressed");
            last_arrival = arrival;
        }
        assert_eq!(link.stats().delivered as usize, sizes.len());
    });
}

/// Lossless links, of infinite or finite bandwidth, deliver every packet,
/// and their stats add up.
#[test]
fn link_conservation() {
    prop::check("link_conservation", 64, |g| {
        let sizes = g.vec(1..100, |g| g.range(40u32..1_500));
        let mut rng = SimRng::seed_from(g.any());
        let mut link = Link::new(LinkConfig {
            bandwidth: g.bool().then(|| mbps(g.range(1..1_000))),
            ..LinkConfig::default()
        });
        for &s in &sizes {
            link.transmit(SimTime::ZERO, s, &mut rng).unwrap();
        }
        let stats = link.stats();
        assert_eq!(stats.delivered as usize, sizes.len());
        assert_eq!(
            stats.delivered_bytes,
            sizes.iter().map(|&s| s as u64).sum::<u64>()
        );
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.overflowed, 0);
    });
}

/// A middlebox that drops the `m`-th, `2m`-th, … packet and holds every
/// other `n`-th by a fixed amount (0 disables either). Packets are
/// numbered from 1 by their [`Blaster`] payload.
struct PatternBox {
    n: u32,
    m: u32,
    hold: SimDuration,
}

impl Middlebox<u32> for PatternBox {
    fn process(&mut self, p: &Packet<u32>, _ctx: &mut MbContext<'_>) -> Verdict {
        let k = p.payload + 1;
        if self.m > 0 && k.is_multiple_of(self.m) {
            Verdict::Drop
        } else if self.n > 0 && k.is_multiple_of(self.n) {
            Verdict::Hold(self.hold)
        } else {
            Verdict::Forward
        }
    }
}

/// Sends packets carrying 0, 1, …, `.1 - 1` to node `.0`, 100 µs apart.
struct Blaster(NodeId, u32);

impl Node<u32> for Blaster {
    fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
        ctx.set_timer(SimDuration::from_micros(100), 0);
    }
    fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
    fn on_timer(&mut self, sent: u64, ctx: &mut Context<'_, u32>) {
        ctx.send(Packet::new(ctx.node_id(), self.0, 100, sent as u32));
        if sent + 1 < u64::from(self.1) {
            ctx.set_timer(SimDuration::from_micros(100), sent + 1);
        }
    }
}

/// Records every reception with its arrival time.
struct Collector {
    got: Rc<RefCell<Vec<(SimTime, u32)>>>,
}

impl Node<u32> for Collector {
    fn on_packet(&mut self, p: Packet<u32>, ctx: &mut Context<'_, u32>) {
        self.got.borrow_mut().push((ctx.now(), p.payload));
    }
}

/// Gateway conservation: received + dropped == offered, and held packets
/// arrive late but arrive, exactly once.
#[test]
fn gateway_conserves_packets() {
    prop::check("gateway_conserves_packets", 32, |g| {
        let count = g.range(1u32..80);
        let (n, m) = (g.range(0u32..6), g.range(0u32..6));
        let hold = SimDuration::from_millis(g.range(1..50));
        let got = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        let client = sim.reserve_node_id();
        let gw = sim.reserve_node_id();
        let server = sim.reserve_node_id();
        let gateway = GatewayNode::<u32>::new(client, server)
            .with_middlebox(PatternBox { n, m, hold })
            .with_middlebox(Passthrough);
        sim.install_node(client, Box::new(Blaster(server, count)));
        sim.install_node(gw, Box::new(gateway));
        sim.install_node(server, Box::new(Collector { got: got.clone() }));
        let hop = LinkConfig::with_delay(SimDuration::from_micros(500));
        sim.add_link(client, gw, hop.clone());
        sim.add_link(gw, server, hop);
        sim.run();
        let received = got.borrow().len() as u32;
        let dropped = count.checked_div(m).unwrap_or(0);
        assert_eq!(received + dropped, count);
        let mut payloads: Vec<u32> = got.borrow().iter().map(|&(_, p)| p).collect();
        payloads.sort_unstable();
        payloads.dedup();
        assert_eq!(payloads.len() as u32, received, "a packet was duplicated");
    });
}

/// Identical seeds and topology give identical delivery schedules, jitter
/// included.
#[test]
fn engine_is_deterministic() {
    prop::check("engine_is_deterministic", 32, |g| {
        let seed = g.any();
        let count = g.range(1u32..40);
        let run = || {
            let got = Rc::new(RefCell::new(Vec::new()));
            let mut sim = Simulator::new(seed);
            let a = sim.reserve_node_id();
            let b = sim.reserve_node_id();
            sim.install_node(a, Box::new(Blaster(b, count)));
            sim.install_node(b, Box::new(Collector { got: got.clone() }));
            let jitter = DurationDist::Exponential {
                mean: SimDuration::from_micros(400),
            };
            sim.add_link(
                a,
                b,
                LinkConfig::with_delay(SimDuration::from_micros(300))
                    .bandwidth(mbps(10))
                    .jitter(jitter),
            );
            sim.run();
            got.take()
        };
        assert_eq!(run(), run());
    });
}

// ---------- scheduler differential ----------------------------------------

/// One step of a scheduler workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `Push(delta_ns, cancelled)`: push a key `delta_ns` after the last
    /// popped instant (the only push discipline the engine, and the queue's
    /// window invariant, requires), carrying a cancelled-timer tombstone
    /// bit: the engine pops and skips those, never removes them early.
    Push(u64, bool),
    /// Pop the minimum.
    Pop,
}

/// The queue under test, the queue it replaced, and a sorted reference.
#[derive(Default)]
struct Queues {
    wheel: CalendarQueue<bool>,
    heap: MinHeap4<(SimTime, u64, bool)>,
    reference: BTreeSet<(SimTime, u64, bool)>,
}

impl Queues {
    fn push(&mut self, key: (SimTime, u64, bool)) {
        self.wheel.push(key.0, key.1, key.2);
        self.heap.push(key);
        self.reference.insert(key);
    }

    fn pop(&mut self) -> Option<(SimTime, u64, bool)> {
        let want = self.reference.first().copied();
        assert_eq!(
            self.wheel.min_key(),
            want.map(|(at, seq, _)| (at, seq)),
            "wheel's peek diverged from the sorted reference"
        );
        self.reference.pop_first();
        assert_eq!(
            self.heap.pop(),
            want,
            "heap diverged from the sorted reference"
        );
        assert_eq!(self.wheel.pop(), want, "wheel diverged from the heap");
        want
    }
}

/// Runs `ops` through all three queues, asserting every pop agrees, then
/// drains them and asserts the tails agree.
fn differential(ops: &[Op]) {
    let mut queues = Queues::default();
    let mut now = SimTime::ZERO;
    for (seq, &op) in (0u64..).zip(ops) {
        match op {
            Op::Push(delta_ns, cancelled) => {
                queues.push((now + SimDuration::from_nanos(delta_ns), seq, cancelled));
            }
            Op::Pop => {
                if let Some((at, _, _)) = queues.pop() {
                    now = at;
                }
            }
        }
    }
    while queues.pop().is_some() {}
}

#[test]
fn wheel_pops_exact_heap_order() {
    prop::check("wheel_pops_exact_heap_order", 256, |g| {
        // One pop per `pop_one_in` ops: 2 is the pop-heavy regime where the
        // queue stays small and the window re-anchors often; 4 lets it grow.
        let pop_one_in = g.range(2u32..=4);
        // One case in 16 runs long enough to hold ~10k live keys.
        let max_ops = if g.range(0u32..16) == 0 {
            20_000
        } else {
            4_000
        };
        let ops = g.vec(1..=max_ops, |g| {
            if g.range(0..pop_one_in) == 0 {
                return Op::Pop;
            }
            // Bimodal deltas mirroring the engine: mostly µs-scale
            // serialization/ACK events, a thin tail of RTO- and stall-scale
            // deadlines that cross the bucket window into the overflow heap.
            let delta_ns = match g.range(0u32..16) {
                0..=2 => 0, // the same instant: only `seq` orders the ties
                3..=11 => g.range(0..100_000),
                12 | 13 => g.range(1_000_000..400_000_000),
                _ => g.range(1_000_000_000..10_000_000_000),
            };
            Op::Push(delta_ns, g.bool())
        });
        differential(&ops);
    });
}

#[test]
fn rollover_near_u64_max_matches_heap() {
    // Bucket index arithmetic must not overflow at the end of time. Pile
    // keys into the last ~70 ms before u64::MAX ns (several window widths),
    // plus exact-u64::MAX keys.
    let mut rng = SimRng::seed_from(9);
    let mut ops: Vec<Op> = (0..2_000)
        .map(|_| Op::Push(u64::MAX - rng.gen_range_u64(0..70_000_000), false))
        .collect();
    ops.extend([Op::Push(u64::MAX, false); 10]);
    differential(&ops);
}

#[test]
fn saturating_push_at_exact_max_still_pops() {
    // SimTime::MAX is the engine's "infinite deadline" sentinel; keys there
    // must queue and pop like any other.
    assert_eq!(
        SimTime::ZERO + SimDuration::from_nanos(u64::MAX),
        SimTime::MAX
    );
    let (near, max) = (Op::Push(1, false), Op::Push(u64::MAX, false));
    differential(&[near, max, Op::Pop, Op::Pop, Op::Pop]);
}
