//! The discrete-event engine.
//!
//! A [`Simulator`] owns the nodes, the links, the event queue and the run's
//! RNG. Events are totally ordered by `(time, insertion sequence)`, so
//! simultaneous events execute in a deterministic FIFO order and every run
//! with the same seed and the same construction order is bit-identical.
//!
//! The queue is a two-tier calendar queue ([`CalendarQueue`]): O(1) for the
//! dense near-future mix, an overflow heap for RTO/stall-scale deadlines.
//! Links never reorder, so delivery is **batched**: each link's
//! in-flight packets wait in a per-link FIFO with a single scheduler entry
//! for the head, and one scheduler visit drains the whole due packet-train
//! (each next packet is delivered in-line exactly while it is provably the
//! global minimum), so a serialized burst costs one queue round-trip
//! instead of one per packet.

use std::collections::VecDeque;

use h2priv_bytes::{FxHashMap, FxHashSet};

use crate::link::{Link, LinkConfig, LinkDrop, LinkStats};
use crate::node::{Context, Effect, Node, TimerId};
use crate::packet::{NodeId, Packet};
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::wheel::{CalendarQueue, SchedStats};

/// Internal event kinds.
#[derive(Debug)]
enum Ev<P> {
    /// A node's timer fires.
    Timer {
        node: NodeId,
        token: u64,
        id: TimerId,
    },
    /// A deferred transmission enters the outbound link of `from`.
    Transmit { from: NodeId, packet: Packet<P> },
    /// The head of a link's in-flight FIFO is due; the visit drains the
    /// link's whole due packet-train.
    LinkHead { link: u32 },
}

/// One unidirectional link plus its engine-side delivery state.
struct LinkState<P> {
    link: Link,
    /// The far-end node.
    to: usize,
    /// In-flight packets awaiting delivery, as `(arrival, seq, packet)`.
    /// Arrivals are non-decreasing (the link preserves order), and exactly
    /// one [`Ev::LinkHead`] scheduler entry — keyed by the head packet's
    /// own `(arrival, seq)` — is outstanding whenever this is non-empty.
    inflight: VecDeque<(SimTime, u64, Packet<P>)>,
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The event queue drained: nothing left to do.
    Quiescent,
    /// A node requested a halt.
    Halted,
    /// The deadline passed with events still queued.
    DeadlineReached,
    /// The configured event budget was exhausted (safety valve against
    /// livelocked protocols).
    EventBudgetExhausted,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Why the run stopped.
    pub stop: StopReason,
    /// Simulated time when the run stopped.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
}

/// Drop counters maintained by the engine (beyond per-link stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Packets abandoned because no route existed to their destination.
    pub unroutable: u64,
    /// Packets dropped by links (loss + overflow), summed over all links.
    pub link_dropped: u64,
}

/// The discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use h2priv_netsim::{
///     Context, LinkConfig, Node, NodeId, Packet, SimDuration, Simulator,
/// };
///
/// struct Pinger { peer: NodeId, got: u32 }
/// impl Node<u32> for Pinger {
///     fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
///         ctx.send(Packet::new(ctx.node_id(), self.peer, 100, 7));
///     }
///     fn on_packet(&mut self, p: Packet<u32>, _ctx: &mut Context<'_, u32>) {
///         self.got = p.payload;
///     }
/// }
///
/// let mut sim = Simulator::new(42);
/// let a = sim.reserve_node_id();
/// let b = sim.reserve_node_id();
/// sim.install_node(a, Box::new(Pinger { peer: b, got: 0 }));
/// sim.install_node(b, Box::new(Pinger { peer: a, got: 0 }));
/// sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(5)));
/// let summary = sim.run();
/// // Both pings were sent at t=0 and arrived after the 5 ms link delay.
/// assert_eq!(summary.end_time.as_millis(), 5);
/// ```
pub struct Simulator<P> {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue<Ev<P>>,
    nodes: Vec<Option<Box<dyn Node<P>>>>,
    /// Edge → index into `link_states`. The dense vector keeps the hot
    /// delivery path on an index instead of a hash probe.
    links: FxHashMap<(usize, usize), u32>,
    link_states: Vec<LinkState<P>>,
    /// Sorted out-neighbors per node, maintained incrementally by
    /// [`Simulator::add_link_oneway`] so route misses never rebuild the
    /// graph from `links.keys()`.
    adjacency: Vec<Vec<usize>>,
    /// Next-hop cache: dense `from * nodes + dst` → computed next hop
    /// (outer `None` = not computed yet). Node counts are tiny, so a flat
    /// table keeps the per-transmit lookup to one indexed load instead of
    /// a hash probe. Invalidated (cleared / resized) on topology change.
    route_cache: Vec<Option<Option<u32>>>,
    /// Timers scheduled but not yet fired or cancelled. An id is removed
    /// when its event pops (fired or skipped-as-cancelled), so the set is
    /// bounded by the number of live timers.
    pending_timers: FxHashSet<u64>,
    /// Scratch effects buffer reused across event dispatches.
    scratch: Vec<Effect<P>>,
    rng: SimRng,
    timer_seq: u64,
    packet_seq: u64,
    started: bool,
    halted: bool,
    max_events: u64,
    events_processed: u64,
    stats: EngineStats,
}

impl<P: 'static> Simulator<P> {
    /// Creates a simulator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: CalendarQueue::new(),
            nodes: Vec::new(),
            links: FxHashMap::default(),
            link_states: Vec::new(),
            adjacency: Vec::new(),
            route_cache: Vec::new(),
            pending_timers: FxHashSet::default(),
            scratch: Vec::new(),
            rng: SimRng::seed_from(seed),
            timer_seq: 0,
            packet_seq: 0,
            started: false,
            halted: false,
            max_events: 200_000_000,
            events_processed: 0,
            stats: EngineStats::default(),
        }
    }

    /// Caps the number of events a run may process (safety valve).
    pub fn set_event_budget(&mut self, max_events: u64) {
        self.max_events = max_events;
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node<P>>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.adjacency.push(Vec::new());
        id
    }

    /// Reserves a node id without installing the node yet. Useful when nodes
    /// need to know each other's ids at construction time.
    ///
    /// # Panics
    ///
    /// The run panics (at [`Simulator::run`]) if a reserved id was never
    /// filled with [`Simulator::install_node`].
    pub fn reserve_node_id(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(None);
        self.adjacency.push(Vec::new());
        id
    }

    /// Installs a node into a reserved id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not reserved or is already installed.
    pub fn install_node(&mut self, id: NodeId, node: Box<dyn Node<P>>) {
        let slot = self
            .nodes
            .get_mut(id.0)
            .unwrap_or_else(|| panic!("install_node: unknown node id {id}"));
        assert!(slot.is_none(), "install_node: node {id} already installed");
        *slot = Some(node);
    }

    /// Connects `a` and `b` with symmetric links (one per direction).
    ///
    /// # Panics
    ///
    /// Panics if either node id does not exist.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, config: LinkConfig) {
        self.add_link_oneway(a, b, config.clone());
        self.add_link_oneway(b, a, config);
    }

    /// Connects `from` → `to` with a single unidirectional link.
    ///
    /// # Panics
    ///
    /// Panics if either node id does not exist.
    pub fn add_link_oneway(&mut self, from: NodeId, to: NodeId, config: LinkConfig) {
        assert!(from.0 < self.nodes.len(), "add_link: unknown node {from}");
        assert!(to.0 < self.nodes.len(), "add_link: unknown node {to}");
        match self.links.get(&(from.0, to.0)) {
            Some(&idx) => {
                // Re-adding an existing edge replaces the link (fresh stats
                // and queue state); packets already in flight still arrive.
                self.link_states[idx as usize].link = Link::new(config);
            }
            None => {
                let idx = u32::try_from(self.link_states.len()).expect("more than 2^32 links");
                self.link_states.push(LinkState {
                    link: Link::new(config),
                    to: to.0,
                    inflight: VecDeque::new(),
                });
                self.links.insert((from.0, to.0), idx);
                // New edge: keep the neighbor list sorted for deterministic BFS.
                let neighbors = &mut self.adjacency[from.0];
                if let Err(pos) = neighbors.binary_search(&to.0) {
                    neighbors.insert(pos, to.0);
                }
            }
        }
        self.route_cache.clear();
    }

    /// Stats of the `from` → `to` link, if it exists.
    pub fn link_stats(&self, from: NodeId, to: NodeId) -> Option<LinkStats> {
        self.links
            .get(&(from.0, to.0))
            .map(|&idx| self.link_states[idx as usize].link.stats())
    }

    /// Engine-level drop counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Scheduler behaviour counters for the run so far (tier split, window
    /// re-anchors, peak occupancy).
    pub fn sched_stats(&self) -> SchedStats {
        self.queue.stats()
    }

    /// Number of timers currently armed (scheduled, neither fired nor
    /// cancelled). Bounded bookkeeping: fired and cancelled ids are purged.
    pub fn live_timers(&self) -> usize {
        self.pending_timers.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Runs until quiescent or halted.
    pub fn run(&mut self) -> RunSummary {
        self.run_until(SimTime::MAX)
    }

    /// Runs until quiescent, halted, or `deadline` is reached (events at
    /// exactly `deadline` still execute).
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        if !self.started {
            self.started = true;
            for i in 0..self.nodes.len() {
                assert!(
                    self.nodes[i].is_some(),
                    "node n{i} was reserved but never installed"
                );
                self.dispatch_start(NodeId(i));
                if self.halted {
                    break;
                }
            }
        }
        while !self.halted {
            if self.events_processed >= self.max_events {
                return self.summary(StopReason::EventBudgetExhausted);
            }
            let Some((head_at, _)) = self.queue.min_key() else {
                return self.summary(StopReason::Quiescent);
            };
            if head_at > deadline {
                return self.summary(StopReason::DeadlineReached);
            }
            let (at, _seq, ev) = self.queue.pop().expect("peeked entry must pop");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            match ev {
                Ev::Timer { node, token, id } => {
                    // A timer fires only while still pending; removing the
                    // id here keeps the set bounded by live timers.
                    if !self.pending_timers.remove(&id.0) {
                        continue;
                    }
                    self.dispatch_timer(node, token);
                }
                Ev::Transmit { from, packet } => self.transmit(from, packet),
                Ev::LinkHead { link } => self.deliver_link_head(link, deadline),
            }
        }
        self.summary(StopReason::Halted)
    }

    /// Drains the due packet-train of link `link`: called when the link's
    /// [`Ev::LinkHead`] entry pops (the popped key is the head packet's
    /// own `(arrival, seq)`). Each following packet is delivered in-line
    /// only while its key is strictly below the queue minimum — i.e.
    /// exactly while per-packet scheduling would have popped it next — so
    /// the global dispatch order, the event count, and the sequence-number
    /// stream are all identical to the unbatched engine.
    fn deliver_link_head(&mut self, link: u32, deadline: SimTime) {
        loop {
            let state = &mut self.link_states[link as usize];
            let (at, _seq, packet) = state
                .inflight
                .pop_front()
                .expect("LinkHead implies an in-flight head");
            let to = NodeId(state.to);
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.dispatch_packet(to, packet);
            let Some(&(next_at, next_seq, _)) = self.link_states[link as usize].inflight.front()
            else {
                return;
            };
            let due_now = !self.halted
                && self.events_processed < self.max_events
                && next_at <= deadline
                && self
                    .queue
                    .min_key()
                    .is_none_or(|min| (next_at, next_seq) < min);
            if due_now {
                self.events_processed += 1;
            } else {
                // Suspend the batch: re-key the single LinkHead entry at the
                // next packet's own (arrival, seq) — no new seq consumed.
                self.queue.push(next_at, next_seq, Ev::LinkHead { link });
                return;
            }
        }
    }

    fn summary(&self, stop: StopReason) -> RunSummary {
        RunSummary {
            stop,
            end_time: self.now,
            events: self.events_processed,
        }
    }

    fn schedule(&mut self, at: SimTime, ev: Ev<P>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(at, seq, ev);
    }

    fn dispatch_start(&mut self, node: NodeId) {
        let mut boxed = self.nodes[node.0].take().expect("node present");
        let mut effects = std::mem::take(&mut self.scratch);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                timer_seq: &mut self.timer_seq,
            };
            boxed.on_start(&mut ctx);
        }
        self.nodes[node.0] = Some(boxed);
        self.apply_effects(node, &mut effects);
        self.scratch = effects;
    }

    // Kept out of line: inlined into its one caller, `deliver_link_head`,
    // it made pagebench's `attack` loads about 4% slower.
    #[inline(never)]
    fn dispatch_packet(&mut self, node: NodeId, packet: Packet<P>) {
        let mut boxed = self.nodes[node.0].take().expect("node present");
        let mut effects = std::mem::take(&mut self.scratch);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                timer_seq: &mut self.timer_seq,
            };
            boxed.on_packet(packet, &mut ctx);
        }
        self.nodes[node.0] = Some(boxed);
        self.apply_effects(node, &mut effects);
        self.scratch = effects;
    }

    fn dispatch_timer(&mut self, node: NodeId, token: u64) {
        let mut boxed = self.nodes[node.0].take().expect("node present");
        let mut effects = std::mem::take(&mut self.scratch);
        {
            let mut ctx = Context {
                now: self.now,
                node,
                rng: &mut self.rng,
                effects: &mut effects,
                timer_seq: &mut self.timer_seq,
            };
            boxed.on_timer(token, &mut ctx);
        }
        self.nodes[node.0] = Some(boxed);
        self.apply_effects(node, &mut effects);
        self.scratch = effects;
    }

    /// Applies and drains `effects`, leaving the buffer empty for reuse.
    fn apply_effects(&mut self, node: NodeId, effects: &mut Vec<Effect<P>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send(packet) => self.transmit(node, packet),
                Effect::SendAfter(delay, packet) => {
                    let at = self.now + delay;
                    self.schedule(at, Ev::Transmit { from: node, packet });
                }
                Effect::SetTimer { at, token, id } => {
                    self.pending_timers.insert(id.0);
                    self.schedule(at, Ev::Timer { node, token, id });
                }
                Effect::CancelTimer(id) => {
                    // Already-fired or unknown ids are no-ops, so the set
                    // never accumulates dead entries.
                    self.pending_timers.remove(&id.0);
                }
                Effect::Halt => {
                    self.halted = true;
                }
            }
        }
    }

    /// Sends `packet` from `from` onto the link toward the next hop for
    /// `packet.dst`.
    fn transmit(&mut self, from: NodeId, mut packet: Packet<P>) {
        if packet.id == 0 {
            self.packet_seq += 1;
            packet.id = self.packet_seq;
        }
        let Some(link) = self.next_hop(from.0, packet.dst.0) else {
            self.stats.unroutable += 1;
            return;
        };
        let state = &mut self.link_states[link as usize];
        match state
            .link
            .transmit(self.now, packet.wire_bytes, &mut self.rng)
        {
            Ok(arrival) => {
                // The packet joins the link's in-flight FIFO under its own
                // (arrival, seq) key; one LinkHead scheduler entry — keyed
                // by the head packet — stands for the whole FIFO, so a
                // serialized train costs one queue round-trip instead of
                // one per packet.
                let seq = self.seq;
                self.seq += 1;
                let was_empty = state.inflight.is_empty();
                state.inflight.push_back((arrival, seq, packet));
                if was_empty {
                    self.queue.push(arrival, seq, Ev::LinkHead { link });
                }
            }
            Err(LinkDrop::RandomLoss) | Err(LinkDrop::QueueOverflow) => {
                self.stats.link_dropped += 1;
            }
        }
    }

    /// BFS next-hop routing over the maintained adjacency lists, memoized.
    /// Returns the index of the link from `from` to the next hop.
    fn next_hop(&mut self, from: usize, dst: usize) -> Option<u32> {
        if from == dst {
            return None;
        }
        let n = self.nodes.len();
        // (Re)size lazily: a clear() after topology change leaves the table
        // empty until the next miss.
        if self.route_cache.len() != n * n {
            // A node added since the table was built changes the stride, so
            // stale entries must go, not just be extended over.
            self.route_cache.clear();
            self.route_cache.resize(n * n, None);
        }
        if let Some(hit) = self.route_cache[from * n + dst] {
            return hit;
        }
        // BFS from `from` over the incrementally-maintained (and sorted,
        // for determinism) adjacency, recording each node's parent in a
        // dense table — node ids are vector indices.
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut frontier = std::collections::VecDeque::new();
        frontier.push_back(from);
        parent[from] = Some(from);
        while let Some(u) = frontier.pop_front() {
            if u == dst {
                break;
            }
            for &v in &self.adjacency[u] {
                if parent[v].is_none() {
                    parent[v] = Some(u);
                    frontier.push_back(v);
                }
            }
        }
        let hop = parent[dst].map(|_| {
            // Walk back from dst to the neighbor of `from`.
            let mut cur = dst;
            while parent[cur] != Some(from) {
                cur = parent[cur].expect("parent chain reaches from");
            }
            *self
                .links
                .get(&(from, cur))
                .expect("adjacency implies link exists")
        });
        self.route_cache[from * n + dst] = Some(hop);
        hop
    }
}

impl<P> std::fmt::Debug for Simulator<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now)
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("queued", &self.queue.len())
            .field("events_processed", &self.events_processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::mbps;
    use crate::middlebox::{GatewayNode, Passthrough};
    use crate::rng::DurationDist;
    use crate::time::SimDuration;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Echoes every packet back to its source, once.
    struct Echo;
    impl Node<u32> for Echo {
        fn on_packet(&mut self, p: Packet<u32>, ctx: &mut Context<'_, u32>) {
            if p.payload < 100 {
                ctx.send(Packet::new(p.dst, p.src, p.wire_bytes, p.payload + 100));
            }
        }
    }

    /// Sends one packet at start and records replies + times.
    struct Probe {
        peer: NodeId,
        log: Rc<RefCell<Vec<(SimTime, u32)>>>,
    }
    impl Node<u32> for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
            ctx.send(Packet::new(ctx.node_id(), self.peer, 1000, 1));
        }
        fn on_packet(&mut self, p: Packet<u32>, ctx: &mut Context<'_, u32>) {
            self.log.borrow_mut().push((ctx.now(), p.payload));
        }
    }

    #[test]
    fn two_node_round_trip() {
        let mut sim = Simulator::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.reserve_node_id();
        let b = sim.reserve_node_id();
        sim.install_node(
            a,
            Box::new(Probe {
                peer: b,
                log: log.clone(),
            }),
        );
        sim.install_node(b, Box::new(Echo));
        sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(25)));
        let summary = sim.run();
        assert_eq!(summary.stop, StopReason::Quiescent);
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0], (SimTime::from_millis(50), 101));
    }

    #[test]
    fn three_node_chain_routes_through_gateway() {
        let mut sim = Simulator::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.reserve_node_id();
        let gw = sim.reserve_node_id();
        let b = sim.reserve_node_id();
        sim.install_node(
            a,
            Box::new(Probe {
                peer: b,
                log: log.clone(),
            }),
        );
        sim.install_node(
            gw,
            Box::new(GatewayNode::<u32>::new(a, b).with_middlebox(Passthrough)),
        );
        sim.install_node(b, Box::new(Echo));
        sim.add_link(a, gw, LinkConfig::with_delay(SimDuration::from_millis(10)));
        sim.add_link(gw, b, LinkConfig::with_delay(SimDuration::from_millis(15)));
        sim.run();
        let log = log.borrow();
        assert_eq!(log.len(), 1);
        // 10 + 15 out, 15 + 10 back = 50 ms.
        assert_eq!(log[0].0, SimTime::from_millis(50));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Node<u32> for TimerNode {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(30), 3);
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, u32>) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(TimerNode {
            fired: fired.clone(),
        }));
        sim.run();
        assert_eq!(*fired.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        struct CancelNode {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Node<u32> for CancelNode {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                let id = ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.cancel_timer(id);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, u32>) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(CancelNode {
            fired: fired.clone(),
        }));
        sim.run();
        assert_eq!(*fired.borrow(), vec![2]);
        assert_eq!(sim.live_timers(), 0, "timer bookkeeping must not leak");
    }

    #[test]
    fn timer_bookkeeping_never_leaks() {
        // Arms a timer each round and cancels the *previous* (already
        // fired) one — the pattern that used to grow the cancelled set
        // unboundedly.
        struct CancelFired {
            last: Option<crate::node::TimerId>,
            rounds: u32,
        }
        impl Node<u32> for CancelFired {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, u32>) {
                if let Some(id) = self.last.take() {
                    ctx.cancel_timer(id); // no-op: it just fired
                }
                if self.rounds > 0 {
                    self.rounds -= 1;
                    self.last = Some(ctx.set_timer(SimDuration::from_millis(1), 0));
                }
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(CancelFired {
            last: None,
            rounds: 1_000,
        }));
        let summary = sim.run();
        assert_eq!(summary.stop, StopReason::Quiescent);
        assert_eq!(sim.live_timers(), 0, "fired/cancelled ids must be purged");
    }

    #[test]
    fn links_added_after_traffic_are_routable() {
        // The adjacency is maintained incrementally; a link added between
        // runs must invalidate the cache and route correctly.
        let mut sim = Simulator::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.reserve_node_id();
        let b = sim.reserve_node_id();
        let c = sim.add_node(Box::new(Echo));
        sim.install_node(
            a,
            Box::new(Probe {
                peer: b,
                log: log.clone(),
            }),
        );
        sim.install_node(b, Box::new(Echo));
        sim.add_link(a, b, LinkConfig::with_delay(SimDuration::from_millis(5)));
        sim.run();
        assert_eq!(log.borrow().len(), 1);
        // No path a→c yet: transmitting toward c is unroutable.
        // Now connect b→c and verify a→c routes through b.
        sim.add_link(b, c, LinkConfig::with_delay(SimDuration::from_millis(5)));
        let hop = sim
            .next_hop(a.0, c.0)
            .map(|link| sim.link_states[link as usize].to);
        assert_eq!(hop, Some(b.0));
    }

    #[test]
    fn halt_stops_the_run() {
        struct Halter;
        impl Node<u32> for Halter {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, u32>) {
                if token == 1 {
                    ctx.halt();
                }
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Halter));
        let summary = sim.run();
        assert_eq!(summary.stop, StopReason::Halted);
        assert_eq!(summary.end_time, SimTime::from_millis(10));
    }

    #[test]
    fn run_until_deadline() {
        struct Ticker;
        impl Node<u32> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(10), 0);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Ticker));
        let summary = sim.run_until(SimTime::from_millis(55));
        assert_eq!(summary.stop, StopReason::DeadlineReached);
        assert_eq!(summary.end_time, SimTime::from_millis(50));
        // Resume and stop later.
        let summary = sim.run_until(SimTime::from_millis(95));
        assert_eq!(summary.end_time, SimTime::from_millis(90));
    }

    #[test]
    fn event_budget_is_a_safety_valve() {
        struct Ticker;
        impl Node<u32> for Ticker {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(1), 0);
            }
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Ticker));
        sim.set_event_budget(100);
        let summary = sim.run();
        assert_eq!(summary.stop, StopReason::EventBudgetExhausted);
        assert_eq!(summary.events, 100);
    }

    #[test]
    fn unroutable_packets_are_counted() {
        struct Lost;
        impl Node<u32> for Lost {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                // Node 1 exists but has no links at all.
                ctx.send(Packet::new(ctx.node_id(), NodeId(1), 10, 0));
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
        }
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Lost));
        sim.add_node(Box::new(Echo));
        sim.run();
        assert_eq!(sim.stats().unroutable, 1);
    }

    #[test]
    fn lossy_link_counts_drops() {
        let mut sim = Simulator::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let a = sim.reserve_node_id();
        let b = sim.reserve_node_id();
        sim.install_node(
            a,
            Box::new(Probe {
                peer: b,
                log: log.clone(),
            }),
        );
        sim.install_node(b, Box::new(Echo));
        sim.add_link(a, b, LinkConfig::default().loss(1.0));
        sim.run();
        assert!(log.borrow().is_empty());
        assert_eq!(sim.stats().link_dropped, 1);
        assert_eq!(sim.link_stats(a, b).unwrap().lost, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> Vec<(SimTime, u32)> {
            let mut sim = Simulator::new(seed);
            let log = Rc::new(RefCell::new(Vec::new()));
            let a = sim.reserve_node_id();
            let b = sim.reserve_node_id();
            sim.install_node(
                a,
                Box::new(Probe {
                    peer: b,
                    log: log.clone(),
                }),
            );
            sim.install_node(b, Box::new(Echo));
            sim.add_link(
                a,
                b,
                LinkConfig::with_delay(SimDuration::from_millis(5))
                    .jitter(DurationDist::Uniform {
                        lo: SimDuration::ZERO,
                        hi: SimDuration::from_millis(20),
                    })
                    .bandwidth(mbps(100)),
            );
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run_once(77), run_once(77));
        // Sanity: different seeds give different jitter.
        assert_ne!(run_once(77), run_once(78));
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn reserved_but_uninstalled_node_panics() {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let _ = sim.reserve_node_id();
        sim.run();
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn add_link_unknown_node_panics() {
        let mut sim: Simulator<u32> = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo));
        sim.add_link(a, NodeId(9), LinkConfig::default());
    }

    #[test]
    fn simultaneous_events_fifo() {
        // Two timers at the same instant fire in arming order.
        struct Same {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Node<u32> for Same {
            fn on_start(&mut self, ctx: &mut Context<'_, u32>) {
                ctx.set_timer(SimDuration::from_millis(5), 10);
                ctx.set_timer(SimDuration::from_millis(5), 20);
            }
            fn on_packet(&mut self, _p: Packet<u32>, _ctx: &mut Context<'_, u32>) {}
            fn on_timer(&mut self, token: u64, _ctx: &mut Context<'_, u32>) {
                self.fired.borrow_mut().push(token);
            }
        }
        let fired = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Simulator::new(1);
        sim.add_node(Box::new(Same {
            fired: fired.clone(),
        }));
        sim.run();
        assert_eq!(*fired.borrow(), vec![10, 20]);
    }
}
