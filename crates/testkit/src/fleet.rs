//! Fleet-scale population scenario: N client–server pairs per run.
//!
//! The single-pair scenario ([`crate::run_trial`]) models one volunteer
//! loading one page through the lab gateway. This module scales that to a
//! *population*: `N` independent client–server pairs (thousands to
//! hundreds of thousands) sharing a bottleneck gateway link, partitioned
//! into shards by a deterministic hash of the pair id. Each shard is its
//! own [`Simulator`] — sharding is what lets a driver run shards on
//! separate OS threads — and shard construction depends only on
//! `(seed, shard)`, so results are byte-identical however many threads
//! execute them. Merging is seed-ordered: [`merge_shards`] sorts by shard
//! id before folding stats.
//!
//! Within a shard, hosts do not get one netsim node each. A `HostArena`
//! holds every [`HostCore`] of one side (all clients, or all servers) in a
//! slab behind a *single* node, routes packets to cores by the pair id
//! carried in each `FleetSegment`, and batches the pump: packet deliveries
//! only mark a core dirty, and one zero-delay timer per burst drains every
//! dirty core with the arena's one shared `PumpScratch`. Protocol
//! deadlines (TCP RTO, browser stalls, server workers) go through one
//! binary heap with lazy deletion and a single armed netsim timer, instead
//! of two timers per host.
//!
//! Pairs stream through the slabs: a pair is built and its client opens
//! the connection at the pair's staggered start time, its outcome row is
//! folded when the page load finishes, and both of its slots are freed
//! once its server has gone quiet too. Peak memory therefore follows the
//! pairs in flight, not the population.
//!
//! The paper's attack drops into this unchanged: pair 0 is the *victim*,
//! and the `FleetGateway` runs an ordinary [`Middlebox`] chain
//! (adversary, wire tap, conformance tap) over the victim's packets only,
//! with per-pair shaping state replicating [`GatewayNode`]'s egress
//! serializer. Bystander pairs contend on the shared links but are not
//! captured — recording per-byte ground truth for 100k pairs would dwarf
//! the simulation, so only the victim carries a [`GroundTruth`].
//!
//! [`GatewayNode`]: h2priv_netsim::GatewayNode

use h2priv_netsim::internals::MinHeap4;
use std::cell::RefCell;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use h2priv_analysis::{GroundTruth, WireTrace};
use h2priv_conformance::{ConformanceTap, Violation, ViolationSink};
use h2priv_defense::DefenseSpec;
use h2priv_dos::{Alert, DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::{
    Context, Dir, LinkConfig, Middlebox, MiddleboxChain, Node, NodeId, Packet, SchedStats,
    SimDuration, SimRng, SimTime, Simulator, StopReason, TimerId,
};
use h2priv_tcp::TcpSegment;
use h2priv_web::{isidewith, PoolConfig, PoolStats, RequestOutcome, Website, WorkerPool};

use crate::host::{App, BufPool, HostCore, PumpScratch};
use crate::pair::{PairInputs, PairRecipe};
use crate::scenario::ScenarioConfig;
use crate::tap::WireTap;

/// The pair carrying the paper's attack instrumentation.
pub const VICTIM_PAIR: u32 = 0;

/// One TCP segment of one population pair. The pair id is the connection
/// identity: arenas demux on it, the gateway selects per-pair middlebox
/// chains on it.
#[derive(Debug, Clone)]
pub(crate) struct FleetSegment {
    /// Which client–server pair this segment belongs to.
    pair: u32,
    /// The segment itself.
    seg: TcpSegment,
}

/// How much of the fleet the conformance oracle watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetConformance {
    /// No checking (benchmark mode).
    Off,
    /// The victim plus every 97th pair get endpoint checkers and a wire
    /// tap — constant-fraction coverage that stays affordable at 100k
    /// pairs.
    Spot,
    /// Every pair is checked. Meant for small populations.
    Full,
}

impl FleetConformance {
    /// The mode the acceptance criteria ask for at a given population:
    /// full checking up to 100 pairs, spot checks beyond.
    pub fn for_population(population: u32) -> FleetConformance {
        if population <= 100 {
            FleetConformance::Full
        } else {
            FleetConformance::Spot
        }
    }

    fn checks(self, pair: u32) -> bool {
        match self {
            FleetConformance::Off => false,
            FleetConformance::Spot => pair == VICTIM_PAIR || pair.is_multiple_of(97),
            FleetConformance::Full => true,
        }
    }
}

/// Hostile-traffic injection for a fleet run: the top `attackers` pair
/// ids (never the victim) swap their browser for a `DosClient`, so the
/// attack contends with honest bystanders on the shared links — and, when
/// a worker pool is configured, on the shard's shared thread budget.
#[derive(Debug, Clone)]
pub struct FleetDosConfig {
    /// The workload each hostile pair mounts.
    pub attack: DosAttack,
    /// How many pairs are hostile, taken from the top of the pair-id
    /// range.
    pub attackers: u32,
    /// Server-side shedding policy, installed on every server of the
    /// population (`None` = undefended).
    pub guard: Option<GuardConfig>,
    /// Online detector on every server (`None` = no monitoring). Benign
    /// pairs double as the false-positive corpus.
    pub detector: Option<DetectorConfig>,
    /// One worker pool per shard, shared by all of the shard's servers —
    /// the resource coupling that lets a hostile connection starve
    /// bystanders (`None` = unbounded workers).
    pub pool: Option<PoolConfig>,
}

/// Live counters a fleet run updates while shards execute, for drivers
/// that report progress (the `repro fleet --progress` stderr heartbeat).
/// All plain relaxed atomics: shard threads bump them, a reporter thread
/// reads them; they never feed back into the simulation, so attaching a
/// progress sink cannot perturb results.
#[derive(Debug, Default)]
pub struct FleetProgress {
    /// Client pairs whose page load has finished (across all shards).
    pub pairs_done: AtomicU64,
    /// Simulator events processed so far (across all shards; shards
    /// running with a progress sink report in deadline slices).
    pub events: AtomicU64,
    /// Shards that have completed.
    pub shards_done: AtomicU64,
}

/// Everything configurable about one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Run seed; drives every per-pair RNG and the per-shard engines.
    pub seed: u64,
    /// Number of client–server pairs.
    pub population: u32,
    /// Number of shards (independent simulators). Fixed by configuration,
    /// *not* by the executing thread count — that is what keeps output
    /// byte-identical at any `--threads`.
    pub shards: u32,
    /// Conformance coverage.
    pub conformance: FleetConformance,
    /// Client start times are staggered uniformly over this window, so a
    /// population does not fire 100k simultaneous handshakes.
    pub start_spread: SimDuration,
    /// Hard cap on simulated time per shard.
    pub deadline: SimDuration,
    /// Countermeasure deployed by the site. Padding defenses apply to every
    /// server in the population (the site deploys them fleet-wide); the
    /// shaping defenses' dummy-record schedule runs on the victim server
    /// only — bystander traffic is load, not measurement target, and the
    /// arena topology has no per-pair pacing hop, so fleet shaping models
    /// the endpoint half of the defense.
    pub defense: DefenseSpec,
    /// Hostile-traffic injection (`None` — the default — keeps every
    /// pre-existing fleet schedule bit-identical).
    pub dos: Option<FleetDosConfig>,
    /// Slab pre-size hint: how many pairs are expected in flight at once.
    /// Every pair is built at its staggered start time and freed once its
    /// page load is over and its server is quiet, so peak memory
    /// follows the pairs in flight, not the population. The hint only
    /// reserves capacity: `None` and every `Some(n)` run the same schedule.
    pub cohort: Option<u32>,
    /// Live progress counters (`None` = no reporting; attaching one does
    /// not change simulation results, only stderr-side visibility).
    pub progress: Option<Arc<FleetProgress>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0,
            population: 1_000,
            shards: 8,
            conformance: FleetConformance::Off,
            start_spread: SimDuration::from_secs(5),
            deadline: crate::calib::TRIAL_DEADLINE,
            defense: DefenseSpec::None,
            dos: None,
            cohort: None,
            progress: None,
        }
    }
}

/// Whether `pair` is hostile under `dos` (the victim never is: it stays
/// the attack-measurement pair).
fn is_hostile(pair: u32, population: u32, dos: &FleetDosConfig) -> bool {
    pair != VICTIM_PAIR && pair >= population.saturating_sub(dos.attackers)
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// Deterministic pair → shard assignment (independent of thread count).
pub fn shard_of_pair(pair: u32, shards: u32) -> u32 {
    (splitmix64(pair as u64) % shards.max(1) as u64) as u32
}

/// The shard holding the victim pair.
pub fn victim_shard(config: &FleetConfig) -> u32 {
    shard_of_pair(VICTIM_PAIR, config.shards)
}

/// The victim's survey outcome — the permutation the adversary tries to
/// recover. Deterministic in the seed so the driver can rebuild the same
/// [`isidewith`] site for scoring.
fn victim_golden_order(seed: u64) -> Vec<usize> {
    SimRng::seed_from(mix(seed, 0x601D)).permutation(8)
}

fn bystander_golden_order(seed: u64) -> Vec<usize> {
    SimRng::seed_from(mix(seed, 0xB5D7)).permutation(8)
}

// ---------------------------------------------------------------------------
// Host arena
// ---------------------------------------------------------------------------

const TOKEN_BATCH: u64 = 0;
const TOKEN_DUE: u64 = 1;
/// Admission deadline: the next pair's start time (client arena only).
const TOKEN_ADMIT: u64 = 2;

/// Sentinel for "pair not in this shard" in the dense pair-indexed maps.
const NO_SLOT: u32 = u32::MAX;

const OWNS_BOTH: &str = "the shard driver owns both arenas";

/// Per-slot lifecycle bits, one byte per pair (hot: the pump reads and
/// writes these every batch, so they pack cache-line-dense instead of
/// riding inside a fat per-pair struct).
const FLAG_DIRTY: u8 = 1 << 0;
/// Client: the page load finished (browser done and send buffer drained,
/// or the connection died) and the pair's outcome row is folded.
const FLAG_FINISHED: u8 = 1 << 1;
/// Server: the pair's client has finished; free the pair once this core
/// goes quiet.
const FLAG_RETIRE: u8 = 1 << 2;

/// A slab of [`HostCore`]s of one side (all clients or all servers) behind
/// a single netsim node.
///
/// Per-pair state is struct-of-arrays: the hot pump fields (`flags`,
/// `pairs`, the cores themselves) are parallel vectors indexed by slot,
/// and pair-id lookup is a dense `Vec` (pair ids are contiguous from 0)
/// instead of a hash map — the demux on every delivered packet is one
/// bounds-checked load.
///
/// The client arena drives each pair's lifecycle: it builds the pair at
/// its start time (client core here, server core into the peer arena) and
/// folds its outcome row when the page load finishes. The pair's two
/// slots are freed together once the server is quiet as well — right away
/// if it already is, else by the server arena when it gets there — so a
/// server retransmission always reaches a live client.
pub(crate) struct HostArena {
    is_client: bool,
    /// The opposite arena's node id (packet destination).
    peer: NodeId,
    /// The opposite arena, for the lifecycle steps that span both sides
    /// (weak: the shard driver owns the two arenas).
    peer_arena: Weak<RefCell<HostArena>>,
    /// The protocol cores, slot-indexed (SoA with `pairs`/`flags`).
    /// `None` = a freed slot waiting on the free list for a later
    /// admission to reuse it.
    cores: Vec<Option<HostCore>>,
    /// Freed slot indices available for reuse.
    free: Vec<u32>,
    /// Slot → pair id.
    pairs: Vec<u32>,
    /// Slot → lifecycle bits (`FLAG_*`).
    flags: Vec<u8>,
    /// Dense pair id → slot index ([`NO_SLOT`] for other shards' pairs,
    /// and for pairs not yet built or already freed).
    slot_of_pair: Vec<u32>,
    /// Slots touched since the last batch pump, in touch order.
    dirty: Vec<u32>,
    /// Pending per-core deadlines, lazily deleted: a popped entry whose
    /// core has since moved its deadline is just a cheap no-op pump.
    /// A 4-ary heap for the same reason the scheduler uses one: entries
    /// are small and the workload is pop-push-dominated. Pop order is
    /// identical to `BinaryHeap` because `(time, slot)` entries only
    /// repeat when a freed slot's stale entry meets its reuser's, and
    /// equal entries pop interchangeably.
    due: MinHeap4<(SimTime, u32)>,
    /// Slot → earliest deadline currently in `due` for that slot
    /// ([`SimTime::MAX`] = none). The dedup filter: a core re-pumped on
    /// every packet burst recomputes the same deadline each time, and
    /// without this the heap accumulates one stale copy per pump — at 10k
    /// pairs the heap churn was ~10% of the shard's whole CPU budget.
    due_at: Vec<SimTime>,
    due_timer: Option<(TimerId, SimTime)>,
    batch_armed: bool,
    /// The shared scratch: one decrypt/seal workspace for every core in
    /// the shard's arena, instead of per-host buffers.
    scratch: PumpScratch,
    /// Free-list of recycled buffers: cores shed their big allocations
    /// here when their page load completes, and later-starting cores
    /// adopt them instead of growing the heap.
    pool: BufPool,
    /// Live cores right now / the run's high-water mark.
    resident: u32,
    peak_resident: u32,
    /// Data-bearing segments that arrived for a freed slot — traffic a
    /// live core would have answered. Freeing waits for the server to go
    /// quiet so that this stays zero.
    stray_segments: u64,
    /// Client arena: the admission schedule, sorted by `(start, pair)`
    /// *descending* so the next admission pops off the end, and the
    /// builder that materializes a pair at its start.
    admit: Vec<(SimTime, u32)>,
    builder: Option<PairBuilder>,
    /// Client arena: the pairs this shard simulates, and how many have
    /// folded their outcome row — the shard halts once all have.
    total_pairs: u32,
    folded: u32,
    /// Client arena: the outcome rows.
    fold: FleetFold,
    progress: Option<Arc<FleetProgress>>,
}

/// The per-shard outcome accumulator: everything [`ShardResult`] needs
/// that is folded per pair, so a finished pair contributes its row before
/// its state is dropped.
#[derive(Default)]
struct FleetFold {
    completed: u32,
    broken: u32,
    requests: u64,
    requests_complete: u64,
    attackers: u32,
    attackers_shed: u32,
    detected: u32,
    detection_latency_us: u64,
    benign_alerts: u64,
    victim: Option<VictimCapture>,
    /// Victim-capture context, installed on the client arena's fold only.
    victim_golden: Vec<usize>,
    trace: Option<Rc<RefCell<WireTrace>>>,
    truth: Option<Rc<RefCell<GroundTruth>>>,
}

impl FleetFold {
    /// Folds one pair's outcome row: when its page load finishes, or after
    /// the run for a load the deadline cut off. Every counter is a
    /// commutative sum and at most one pair is the victim, so fold order
    /// cannot change the shard result.
    fn fold_pair(
        &mut self,
        pair: u32,
        client: &HostCore,
        finished: bool,
        server_dead: bool,
        server_alerts: &[Alert],
    ) {
        if let App::Attacker(dos_client) = &client.app {
            // Hostile pairs report attack outcomes, not page metrics:
            // folding them into completed/broken would skew the bystander
            // completion rate the exhibit quantifies.
            self.attackers += 1;
            if dos_client.shed_at().is_some() {
                self.attackers_shed += 1;
            }
            if let Some(alert) = server_alerts.first() {
                self.detected += 1;
                let start = dos_client.attack_started().unwrap_or(SimTime::ZERO);
                self.detection_latency_us += alert.at.saturating_since(start).as_micros();
            }
            return;
        }
        self.benign_alerts += server_alerts.len() as u64;
        let dead = client.dead || server_dead;
        if dead {
            self.broken += 1;
        } else if finished {
            self.completed += 1;
        }
        let outcomes = client.browser().outcomes();
        self.requests += outcomes.len() as u64;
        self.requests_complete +=
            outcomes.iter().filter(|o| o.completed_at.is_some()).count() as u64;
        if pair == VICTIM_PAIR {
            let trace = self
                .trace
                .as_ref()
                .expect("victim shard folds with a trace");
            let truth = self.truth.as_ref().expect("victim shard folds with truth");
            self.victim = Some(VictimCapture {
                golden_order: self.victim_golden.clone(),
                trace: std::mem::replace(&mut *trace.borrow_mut(), WireTrace::new()),
                truth: std::mem::replace(&mut *truth.borrow_mut(), GroundTruth::new()),
                outcomes,
                broken: dead,
            });
        }
    }
}

impl HostArena {
    fn new(is_client: bool, peer: NodeId, population: u32) -> Self {
        HostArena {
            is_client,
            peer,
            peer_arena: Weak::new(),
            cores: Vec::new(),
            free: Vec::new(),
            pairs: Vec::new(),
            flags: Vec::new(),
            slot_of_pair: vec![NO_SLOT; population as usize],
            dirty: Vec::new(),
            due: MinHeap4::new(),
            due_at: Vec::new(),
            due_timer: None,
            batch_armed: false,
            scratch: PumpScratch::default(),
            pool: BufPool::default(),
            resident: 0,
            peak_resident: 0,
            stray_segments: 0,
            admit: Vec::new(),
            builder: None,
            total_pairs: 0,
            folded: 0,
            fold: FleetFold::default(),
            progress: None,
        }
    }

    /// Installs `core` for `pair`, reusing a freed slot when one is free.
    fn add(&mut self, pair: u32, core: HostCore) -> u32 {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.cores[idx as usize] = Some(core);
                self.pairs[idx as usize] = pair;
                idx
            }
            None => {
                self.cores.push(Some(core));
                self.pairs.push(pair);
                self.flags.push(0);
                self.due_at.push(SimTime::MAX);
                self.cores.len() as u32 - 1
            }
        };
        self.slot_of_pair[pair as usize] = idx;
        self.resident += 1;
        self.peak_resident = self.peak_resident.max(self.resident);
        idx
    }

    /// Frees slot `idx`: recycles the core's buffers into the shard pool
    /// and puts the slot on the free list for the next admission.
    fn free_slot(&mut self, idx: u32) {
        let i = idx as usize;
        let mut core = self.cores[i].take().expect("freeing a live slot");
        core.shed_buffers(&mut self.pool);
        if self.flags[i] & FLAG_DIRTY != 0 {
            // Freed from the peer arena between a delivery and this
            // arena's batch pump: the pump must not reach the slot's next
            // occupant early.
            self.dirty.retain(|&d| d != idx);
        }
        self.flags[i] = 0;
        self.slot_of_pair[self.pairs[i] as usize] = NO_SLOT;
        // Entries for this slot still in `due` become stale no-ops: the
        // pop loop filters on due_at, and MAX never matches a popped time.
        self.due_at[i] = SimTime::MAX;
        self.free.push(idx);
        self.resident -= 1;
    }

    /// Arms slot `idx`'s deadline `at`, deduplicating against the entry
    /// already in the heap: pushing is only needed when `at` is earlier
    /// than the armed one — a later deadline will be recomputed (and then
    /// armed) by the no-op pump the earlier entry triggers.
    fn arm_slot_deadline(&mut self, idx: u32, at: SimTime) {
        if at < self.due_at[idx as usize] {
            self.due_at[idx as usize] = at;
            self.due.push((at, idx));
        }
    }

    fn mark_dirty(&mut self, idx: u32) {
        if self.flags[idx as usize] & FLAG_DIRTY == 0 {
            self.flags[idx as usize] |= FLAG_DIRTY;
            self.dirty.push(idx);
        }
    }

    fn arm_batch(&mut self, ctx: &mut Context<'_, FleetSegment>) {
        if !self.batch_armed {
            self.batch_armed = true;
            ctx.set_timer(SimDuration::ZERO, TOKEN_BATCH);
        }
    }

    /// Drains every dirty core: stage passes with the shared scratch, then
    /// the TCP flush routed to the peer arena, then the pair lifecycle and
    /// deadline bookkeeping.
    fn pump_dirty(&mut self, ctx: &mut Context<'_, FleetSegment>) {
        let now = ctx.now();
        let self_id = ctx.node_id();
        let peer = self.peer;
        for i in 0..self.dirty.len() {
            let idx = self.dirty[i];
            self.flags[idx as usize] &= !FLAG_DIRTY;
            let core = self.cores[idx as usize]
                .as_mut()
                .expect("dirty slots are live");
            core.pump_stages(now, &mut self.scratch);
            let pair = self.pairs[idx as usize];
            core.flush_transmit(now, |seg| {
                let wire_bytes = seg.wire_bytes();
                ctx.send(Packet::new(
                    self_id,
                    peer,
                    wire_bytes,
                    FleetSegment { pair, seg },
                ));
            });
            let freed = if self.is_client {
                self.after_client_pump(idx)
            } else {
                self.after_server_pump(idx)
            };
            if freed {
                continue;
            }
            let core = self.cores[idx as usize]
                .as_ref()
                .expect("unfreed slots are live");
            let next = if core.dead {
                None
            } else {
                match (core.tcp.poll_timeout(), core.app_wakeup()) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                }
            };
            if let Some(at) = next {
                self.arm_slot_deadline(idx, at);
            }
        }
        self.dirty.clear();
        // The clients' arena halts the shard once every pair has folded
        // its row (mirroring the single-pair host's halt-when-done), which
        // also releases idle-connection timers.
        if self.is_client && self.total_pairs > 0 && self.folded == self.total_pairs {
            ctx.halt();
        }
        let due = self.due.peek().map(|(at, _)| *at);
        crate::host::rearm(ctx, &mut self.due_timer, due, TOKEN_DUE);
    }

    /// Client arena, after a pump: the first time the page load is over,
    /// folds the pair's outcome row and hands the pair to its server.
    /// Returns true when the pair was freed.
    fn after_client_pump(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        if self.flags[i] & FLAG_FINISHED != 0 {
            return false;
        }
        let core = self.cores[i].as_mut().expect("pumped slots are live");
        // "Done" for an attacker core means the server shed it — an
        // unopposed attack keeps its shard running to the deadline, which
        // is the point.
        let app_done = match &core.app {
            App::Client(b) => b.is_done(),
            App::Attacker(a) => a.is_done(),
            App::Server(_) => false,
        };
        if !(core.dead || (app_done && core.tcp.send_drained())) {
            return false;
        }
        self.flags[i] |= FLAG_FINISHED;
        // The page load is over: return this core's big buffers to the
        // shard pool for cores still to start.
        core.shed_buffers(&mut self.pool);
        if let Some(p) = &self.progress {
            p.pairs_done.fetch_add(1, Ordering::Relaxed);
        }
        let pair = self.pairs[i];
        let server_arena = self.peer_arena.upgrade().expect(OWNS_BOTH);
        let mut servers = server_arena.borrow_mut();
        let server = servers.cores[servers.slot_of_pair[pair as usize] as usize]
            .as_ref()
            .expect("a finishing pair's server is live");
        self.fold
            .fold_pair(pair, core, true, server.dead, &server.dos_alerts());
        self.folded += 1;
        let freed = servers.client_finished(pair);
        if freed {
            self.free_slot(idx);
        }
        freed
    }

    /// Server arena: the pair's client finished. Frees the server and
    /// returns true when it is already quiet; otherwise flags it, and its
    /// own pump frees the pair once it goes quiet.
    fn client_finished(&mut self, pair: u32) -> bool {
        let idx = self.slot_of_pair[pair as usize];
        let quiet = self.cores[idx as usize]
            .as_ref()
            .expect("a finishing pair's server is live")
            .is_quiet();
        if quiet {
            self.free_slot(idx);
        } else {
            self.flags[idx as usize] |= FLAG_RETIRE;
        }
        quiet
    }

    /// Server arena, after a pump: a quiet server whose client has
    /// finished frees the pair (returning true); any other quiet server
    /// sheds its buffers. A server cannot know its client is done, but
    /// quiet it sheds opportunistically: only empty capacity moves, so a
    /// new request wave merely reallocates.
    fn after_server_pump(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        let core = self.cores[i].as_mut().expect("pumped slots are live");
        if !core.is_quiet() {
            return false;
        }
        if self.flags[i] & FLAG_RETIRE == 0 {
            core.shed_buffers(&mut self.pool);
            return false;
        }
        let pair = self.pairs[i];
        self.free_slot(idx);
        let client_arena = self.peer_arena.upgrade().expect(OWNS_BOTH);
        let mut clients = client_arena.borrow_mut();
        let client = clients.slot_of_pair[pair as usize];
        clients.free_slot(client);
        true
    }

    /// Admits every pair whose start time has arrived: builds its two
    /// cores, opens the client's connection and marks it for this event's
    /// pump. Then arms the admission timer for the next start.
    fn pump_admissions(&mut self, ctx: &mut Context<'_, FleetSegment>) {
        let now = ctx.now();
        let server_arena = self.peer_arena.upgrade().expect(OWNS_BOTH);
        while let Some(&(at, pair)) = self.admit.last() {
            if at > now {
                break;
            }
            self.admit.pop();
            let (mut client, server) = self
                .builder
                .as_ref()
                .expect("the client arena has a builder")
                .build(pair);
            // Reuse buffers earlier page loads returned to the pool.
            client.adopt_buffers(&mut self.pool);
            client.begin();
            let idx = self.add(pair, client);
            self.mark_dirty(idx);
            server_arena.borrow_mut().add(pair, server);
        }
        if let Some(&(at, _)) = self.admit.last() {
            ctx.set_timer(at.saturating_since(now), TOKEN_ADMIT);
        }
    }

    fn on_start(&mut self, ctx: &mut Context<'_, FleetSegment>) {
        if self.is_client {
            self.pump_admissions(ctx);
            self.pump_dirty(ctx);
        }
    }

    fn on_packet(&mut self, packet: Packet<FleetSegment>, ctx: &mut Context<'_, FleetSegment>) {
        let FleetSegment { pair, seg } = packet.payload;
        let idx = self.slot_of_pair[pair as usize];
        if idx == NO_SLOT {
            if !seg.payload.is_empty() {
                self.stray_segments += 1;
            }
            return;
        }
        self.cores[idx as usize]
            .as_mut()
            .expect("mapped slots are live")
            .tcp
            .on_segment(seg, ctx.now());
        self.mark_dirty(idx);
        self.arm_batch(ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, FleetSegment>) {
        let now = ctx.now();
        if token == TOKEN_BATCH {
            self.batch_armed = false;
        } else if token == TOKEN_ADMIT {
            self.pump_admissions(ctx);
        } else {
            self.due_timer = None;
            while let Some(&(at, idx)) = self.due.peek() {
                if at > now {
                    break;
                }
                self.due.pop();
                // Stale lazy-deleted entry: a fresher (earlier) deadline was
                // already consumed, or the slot was freed since.
                if self.due_at[idx as usize] != at {
                    continue;
                }
                self.due_at[idx as usize] = SimTime::MAX;
                // The RTO check the single-pair host runs on its TCP timer;
                // a no-op when no deadline actually expired (lazy entries).
                self.cores[idx as usize]
                    .as_mut()
                    .expect("armed slots are live")
                    .tcp
                    .on_tick(now);
                self.mark_dirty(idx);
            }
        }
        self.pump_dirty(ctx);
    }
}

/// Materializes one pair's client and server cores at its start time.
///
/// Each pair's state is a pure function of `(seed, pair)` — the per-pair
/// RNG is re-seeded from scratch and the [`PairRecipe`] consumes its forks
/// in a fixed order — so the instant a pair is built cannot change what
/// it does, and its start time derives without building it.
struct PairBuilder {
    seed: u64,
    population: u32,
    /// Client start stagger window, µs.
    spread_us: u64,
    recipe: PairRecipe,
    victim_site: Option<isidewith::Isidewith>,
    victim_shared: Option<Rc<Website>>,
    bystander_site: isidewith::Isidewith,
    bystander_shared: Rc<Website>,
    dos: Option<FleetDosConfig>,
    shard_pool: Option<Rc<RefCell<WorkerPool>>>,
    truth: Rc<RefCell<GroundTruth>>,
    sink: Option<ViolationSink>,
    conformance: FleetConformance,
    client_arena_id: NodeId,
    server_arena_id: NodeId,
}

impl PairBuilder {
    fn pair_rng(&self, pair: u32) -> SimRng {
        SimRng::seed_from(mix(self.seed, 0xFA11 ^ pair as u64))
    }

    /// The pair's staggered start time: the pair stream's next draw after
    /// the recipe's two forks (browser-or-burned, then server).
    fn start_at(&self, pair: u32) -> SimTime {
        let mut pair_rng = self.pair_rng(pair);
        let _ = pair_rng.fork();
        let _ = pair_rng.fork();
        SimTime::ZERO
            + SimDuration::from_micros(if self.spread_us == 0 {
                0
            } else {
                pair_rng.gen_range_u64(0..self.spread_us)
            })
    }

    /// Builds the pair's client and server cores (gateway chains are
    /// installed separately — they are per-run wiring, not per-pair state).
    fn build(&self, pair: u32) -> (HostCore, HostCore) {
        let mut pair_rng = self.pair_rng(pair);
        let is_victim = pair == VICTIM_PAIR;
        let (iside, served) = if is_victim {
            (
                self.victim_site
                    .as_ref()
                    .expect("victim site built for its shard"),
                self.victim_shared
                    .as_ref()
                    .expect("victim shared site built for its shard"),
            )
        } else {
            (&self.bystander_site, &self.bystander_shared)
        };
        let attacker = self
            .dos
            .as_ref()
            .filter(|dos| is_hostile(pair, self.population, dos))
            .map(|dos| DosConfig::for_attack(dos.attack));
        self.recipe.build(
            PairInputs {
                server_node: self.server_arena_id,
                client_node: self.client_arena_id,
                rng: &mut pair_rng,
                session_key: 0x5EC0_0D5E ^ mix(self.seed, pair as u64),
                site: &iside.site,
                plan: &iside.plan,
                served: served.clone(),
                attacker,
                truth: is_victim.then(|| self.truth.clone()),
                pool: self.shard_pool.clone(),
                oracle: self.sink.as_ref().filter(|_| self.conformance.checks(pair)),
            },
            // Shaping runs on the victim server only, from a dedicated
            // stream: the pair stream's next draw is the start time.
            |_| is_victim.then(|| SimRng::seed_from(mix(self.seed, 0xDEF5 ^ pair as u64))),
        )
    }
}

/// Thin node shell so the driver keeps an `Rc` handle for post-run
/// extraction while the simulator owns the node slot.
struct ArenaNode(Rc<RefCell<HostArena>>);

impl Node<FleetSegment> for ArenaNode {
    fn on_start(&mut self, ctx: &mut Context<'_, FleetSegment>) {
        self.0.borrow_mut().on_start(ctx);
    }

    fn on_packet(&mut self, packet: Packet<FleetSegment>, ctx: &mut Context<'_, FleetSegment>) {
        self.0.borrow_mut().on_packet(packet, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context<'_, FleetSegment>) {
        self.0.borrow_mut().on_timer(token, ctx);
    }
}

// ---------------------------------------------------------------------------
// Gateway
// ---------------------------------------------------------------------------

/// The shared gateway: bridges the two arenas, forwards every pair's
/// traffic, and runs a per-pair [`MiddleboxChain`] (adversary, taps) for
/// the instrumented pairs, with the same hold/shape/drop fold as a
/// [`GatewayNode`].
///
/// Chain lookup is a dense pair-indexed `Vec` — the uninstrumented common
/// case (every bystander packet) is a single load hitting [`NO_SLOT`],
/// not a hash probe.
///
/// [`GatewayNode`]: h2priv_netsim::GatewayNode
pub(crate) struct FleetGateway {
    left: NodeId,
    /// Dense pair id → index into `chains` ([`NO_SLOT`] = uninstrumented).
    chain_of_pair: Vec<u32>,
    chains: Vec<MiddleboxChain<TcpSegment>>,
}

impl FleetGateway {
    fn new(left: NodeId, population: u32) -> Self {
        FleetGateway {
            left,
            chain_of_pair: vec![NO_SLOT; population as usize],
            chains: Vec::new(),
        }
    }

    fn add_chain(&mut self, pair: u32, chain: Vec<Box<dyn Middlebox<TcpSegment>>>) {
        self.chain_of_pair[pair as usize] = self.chains.len() as u32;
        self.chains.push(MiddleboxChain::new(chain));
    }
}

impl Node<FleetSegment> for FleetGateway {
    fn on_packet(&mut self, packet: Packet<FleetSegment>, ctx: &mut Context<'_, FleetSegment>) {
        let delay = match self.chain_of_pair.get(packet.payload.pair as usize) {
            Some(&i) if i != NO_SLOT => {
                let dir = if packet.src == self.left {
                    Dir::LeftToRight
                } else {
                    Dir::RightToLeft
                };
                // Middleboxes are written against Packet<TcpSegment>; give
                // them a view of this packet (the segment's payload is
                // shared bytes, so the clone is a refcount bump, not a copy).
                let view = Packet {
                    src: packet.src,
                    dst: packet.dst,
                    wire_bytes: packet.wire_bytes,
                    id: packet.id,
                    payload: packet.payload.seg.clone(),
                };
                let now = ctx.now();
                match self.chains[i as usize].process(&view, dir, now, ctx.rng()) {
                    Some(delay) => delay,
                    None => return,
                }
            }
            _ => SimDuration::ZERO,
        };
        ctx.send_after(delay, packet);
    }
}

// ---------------------------------------------------------------------------
// Shard driver
// ---------------------------------------------------------------------------

/// The victim pair's attack-relevant capture, present in exactly one
/// shard's result.
#[derive(Debug, Clone)]
pub struct VictimCapture {
    /// The preference order the site was built for (what the adversary
    /// tries to recover).
    pub golden_order: Vec<usize>,
    /// The gateway tap's capture of the victim's traffic.
    pub trace: WireTrace,
    /// Seal-time ground truth from the victim's server.
    pub truth: GroundTruth,
    /// Per-request browser outcomes.
    pub outcomes: Vec<RequestOutcome>,
    /// The victim's connection died.
    pub broken: bool,
}

/// One shard's merged outcome.
#[derive(Debug, Clone)]
pub struct ShardResult {
    /// Which shard this is.
    pub shard: u32,
    /// Pairs simulated in this shard.
    pub pairs: u32,
    /// Why the shard's run stopped.
    pub stop: StopReason,
    /// Events the shard's engine processed.
    pub events: u64,
    /// Simulated end time of the shard.
    pub end_time: SimTime,
    /// The shard engine's scheduler counters.
    pub sched: SchedStats,
    /// Pairs whose page load completed (browser done, connection alive).
    pub completed: u32,
    /// Pairs whose connection died on either side.
    pub broken: u32,
    /// Total page-object requests issued across the shard's clients.
    pub requests: u64,
    /// Requests that completed.
    pub requests_complete: u64,
    /// Victim capture, when the victim pair lives in this shard.
    pub victim: Option<VictimCapture>,
    /// Stored conformance violations (empty when checking is off).
    pub violations: Vec<Violation>,
    /// Total violations reported, including past the storage cap.
    pub violations_total: u64,
    /// Hostile pairs simulated in this shard.
    pub attackers: u32,
    /// Hostile pairs the server shed (guard `RST_STREAM`/GOAWAY observed
    /// by the attacker).
    pub attackers_shed: u32,
    /// Hostile pairs whose server detector raised at least one alert.
    pub detected: u32,
    /// Summed first-alert latency over detected hostile pairs, µs.
    pub detection_latency_us: u64,
    /// Detector alerts on *benign* pairs — the fleet false-positive count.
    pub benign_alerts: u64,
    /// High-water mark of co-resident pairs (max over the two arenas):
    /// the in-flight set the memory bound follows.
    pub peak_resident: u32,
    /// Data-bearing segments that reached a freed pair slot. A pair is
    /// freed only once its page load is over and its server is quiet, so
    /// this is 0 unless freeing cut off traffic a live core would have
    /// answered.
    pub stray_segments: u64,
    /// Final worker-pool counters, when the shard ran a pool.
    pub pool: Option<PoolStats>,
}

/// Seed-ordered merge of all shards.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Pairs simulated.
    pub population: u32,
    /// Shards merged.
    pub shards: u32,
    /// Total events across shards.
    pub events: u64,
    /// Per-shard event counts, shard order (occupancy reporting).
    pub shard_events: Vec<u64>,
    /// Scheduler counters summed as concurrently-resident shards
    /// ([`SchedStats::merge_concurrent`]: peaks add, they don't max).
    pub sched: SchedStats,
    /// Latest shard end time.
    pub end_time_max: SimTime,
    /// Pairs whose page load completed.
    pub completed: u32,
    /// Pairs whose connection died.
    pub broken: u32,
    /// Requests issued across the population.
    pub requests: u64,
    /// Requests completed.
    pub requests_complete: u64,
    /// The victim capture (exactly one shard produces it).
    pub victim: Option<VictimCapture>,
    /// Stored violations across shards.
    pub violations: Vec<Violation>,
    /// Total violations across shards.
    pub violations_total: u64,
    /// Hostile pairs across the population.
    pub attackers: u32,
    /// Hostile pairs shed by their server.
    pub attackers_shed: u32,
    /// Hostile pairs with at least one detector alert.
    pub detected: u32,
    /// Summed first-alert latency over detected hostile pairs, µs.
    pub detection_latency_us: u64,
    /// Detector alerts on benign pairs (fleet false positives).
    pub benign_alerts: u64,
    /// Peak co-resident pairs summed across shards — an upper bound on
    /// simultaneous pair-state when every shard runs concurrently.
    pub peak_resident: u32,
    /// Data-bearing segments that reached a freed pair slot, across shards.
    pub stray_segments: u64,
    /// Pool counters summed across shards, when pools ran.
    pub pool: Option<PoolStats>,
}

/// Runs one shard of the fleet. `adversary` (if any) is installed on the
/// victim pair's gateway chain; pass it only to [`victim_shard`]'s call.
///
/// Deterministic in `(config, shard)` — a shard neither knows nor cares
/// which thread runs it.
pub fn run_fleet_shard(
    config: &FleetConfig,
    shard: u32,
    mut adversary: Option<Box<dyn Middlebox<TcpSegment>>>,
) -> ShardResult {
    let shards = config.shards.max(1);
    let pairs: Vec<u32> = (0..config.population)
        .filter(|&p| shard_of_pair(p, shards) == shard)
        .collect();

    let mut sim: Simulator<FleetSegment> = Simulator::new(mix(config.seed, 0xE6E1 ^ shard as u64));
    let client_arena_id = sim.reserve_node_id();
    let gateway_id = sim.reserve_node_id();
    let server_arena_id = sim.reserve_node_id();

    let victim_here = pairs.contains(&VICTIM_PAIR);
    let victim_golden = victim_golden_order(config.seed);
    let victim_site = victim_here.then(|| isidewith::build(&victim_golden));
    let bystander_site = isidewith::build(&bystander_golden_order(config.seed));
    // One shared server-side site per variant for the whole shard, bodies
    // generated exactly once: every `SiteServer` holds an `Rc` into it, so
    // object tables and body buffers don't multiply with the population.
    let shared_site = |iside: &isidewith::Isidewith| {
        let mut site = iside.site.clone();
        site.materialize_bodies();
        Rc::new(site)
    };
    let victim_shared = victim_site.as_ref().map(&shared_site);
    let bystander_shared = shared_site(&bystander_site);

    // The hardening stack installs fleet-wide (the site deploys it on
    // every server); benign pairs double as the false-positive corpus.
    // Both site variants are permutations of the same survey, so one pad
    // set covers every server in the population.
    let dos = config.dos.as_ref();
    let recipe = PairRecipe::new(
        ScenarioConfig {
            defense: config.defense,
            dos_guard: dos.and_then(|d| d.guard),
            dos_detector: dos.and_then(|d| d.detector),
            ..ScenarioConfig::default()
        },
        &bystander_site.site,
    );

    let trace = Rc::new(RefCell::new(WireTrace::new()));
    let truth = Rc::new(RefCell::new(GroundTruth::new()));
    let sink = (config.conformance != FleetConformance::Off).then(ViolationSink::new);

    // One worker pool per shard, shared across every server: pool pressure
    // from a hostile connection is visible to all of the shard's pairs.
    let shard_pool = dos
        .and_then(|d| d.pool)
        .map(|p| Rc::new(RefCell::new(WorkerPool::new(p))));

    let builder = PairBuilder {
        seed: config.seed,
        population: config.population,
        spread_us: config.start_spread.as_micros(),
        recipe,
        victim_site,
        victim_shared,
        bystander_site,
        bystander_shared,
        dos: config.dos.clone(),
        shard_pool: shard_pool.clone(),
        truth: truth.clone(),
        sink: sink.clone(),
        conformance: config.conformance,
        client_arena_id,
        server_arena_id,
    };

    // Gateway chains are per-run wiring over pair *ids*, independent of
    // when (or whether) the pair's cores get materialized.
    let mut gateway = FleetGateway::new(client_arena_id, config.population);
    for &pair in &pairs {
        let mut chain: Vec<Box<dyn Middlebox<TcpSegment>>> = Vec::new();
        if pair == VICTIM_PAIR {
            if let Some(adv) = adversary.take() {
                chain.push(adv);
            }
            chain.push(Box::new(WireTap::new(trace.clone())));
        }
        if let Some(sink) = &sink {
            if config.conformance.checks(pair) {
                chain.push(Box::new(ConformanceTap::new(sink.clone())));
            }
        }
        if !chain.is_empty() {
            gateway.add_chain(pair, chain);
        }
    }

    let clients = Rc::new(RefCell::new(HostArena::new(
        true,
        server_arena_id,
        config.population,
    )));
    let servers = Rc::new(RefCell::new(HostArena::new(
        false,
        client_arena_id,
        config.population,
    )));
    {
        let mut c = clients.borrow_mut();
        let mut s = servers.borrow_mut();
        c.peer_arena = Rc::downgrade(&servers);
        s.peer_arena = Rc::downgrade(&clients);
        if let Some(cohort) = config.cohort {
            // Pre-size the slabs for the expected co-resident set; the
            // hint has no effect on scheduling.
            let cap = cohort.min(pairs.len() as u32) as usize;
            for a in [&mut *c, &mut *s] {
                a.cores.reserve(cap);
                a.pairs.reserve(cap);
                a.flags.reserve(cap);
                a.due_at.reserve(cap);
            }
        }
        c.total_pairs = pairs.len() as u32;
        c.progress = config.progress.clone();
        c.fold.victim_golden = victim_golden.clone();
        c.fold.trace = Some(trace.clone());
        c.fold.truth = Some(truth.clone());
        let mut admit: Vec<(SimTime, u32)> =
            pairs.iter().map(|&p| (builder.start_at(p), p)).collect();
        // Descending, so the next admission pops off the end.
        admit.sort_unstable_by(|a, b| b.cmp(a));
        c.admit = admit;
        c.builder = Some(builder);
    }

    // Shared links: capacity scales with the pairs sharing them, so the
    // per-pair share matches the single-pair calibration on average while
    // FIFO serialization still couples the flows (the contention the
    // population exists to model).
    let n = pairs.len().max(1) as u64;
    let access = LinkConfig::with_delay(crate::calib::CLIENT_GW_DELAY)
        .bandwidth(crate::calib::LINK_BANDWIDTH * n);
    let wan = LinkConfig::with_delay(crate::calib::GW_SERVER_DELAY)
        .bandwidth(crate::calib::WAN_BANDWIDTH * n)
        .queue_limit(crate::calib::WAN_QUEUE_BYTES * n)
        .loss(crate::calib::WAN_LOSS)
        .jitter(crate::calib::natural_jitter());

    sim.install_node(client_arena_id, Box::new(ArenaNode(clients.clone())));
    sim.install_node(gateway_id, Box::new(gateway));
    sim.install_node(server_arena_id, Box::new(ArenaNode(servers.clone())));
    sim.add_link(client_arena_id, gateway_id, access);
    sim.add_link(gateway_id, server_arena_id, wan);
    // Scale the livelock safety valve with the population: one page load
    // is ~60k events, so this only trips on a genuinely stuck protocol.
    sim.set_event_budget((pairs.len() as u64) * 2_000_000 + 10_000_000);

    let deadline_at = SimTime::ZERO + config.deadline;
    let summary = match &config.progress {
        None => sim.run_until(deadline_at),
        Some(progress) => {
            // Run in simulated-time slices so the heartbeat sees events
            // move mid-shard. Slicing is behavior-invariant: `events` is
            // cumulative across calls and the final summary equals what
            // one `run_until(deadline)` call would have returned.
            let step = SimDuration::from_millis(500);
            let mut reported = 0u64;
            let mut next = SimTime::ZERO + step;
            loop {
                let target = next.min(deadline_at);
                let s = sim.run_until(target);
                progress
                    .events
                    .fetch_add(s.events - reported, Ordering::Relaxed);
                reported = s.events;
                if s.stop != StopReason::DeadlineReached || target == deadline_at {
                    break s;
                }
                next = target + step;
            }
        }
    };
    let sched = sim.sched_stats();

    let mut clients_ref = clients.borrow_mut();
    let servers_ref = servers.borrow();
    let arena = &mut *clients_ref;
    // Fold the page loads the stop cut off; every other pair folded its
    // row when it finished.
    for idx in 0..arena.cores.len() {
        let Some(core) = arena.cores[idx].as_ref() else {
            continue;
        };
        if arena.flags[idx] & FLAG_FINISHED != 0 {
            continue;
        }
        let pair = arena.pairs[idx];
        let server = servers_ref.cores[servers_ref.slot_of_pair[pair as usize] as usize]
            .as_ref()
            .expect("an unfinished pair's server is live");
        arena
            .fold
            .fold_pair(pair, core, false, server.dead, &server.dos_alerts());
    }
    let peak_resident = arena.peak_resident.max(servers_ref.peak_resident);
    let stray_segments = arena.stray_segments + servers_ref.stray_segments;
    let fold = std::mem::take(&mut arena.fold);
    let (violations, violations_total) = match &sink {
        Some(sink) => (sink.take(), sink.total()),
        None => (Vec::new(), 0),
    };
    if let Some(progress) = &config.progress {
        progress.shards_done.fetch_add(1, Ordering::Relaxed);
    }
    ShardResult {
        shard,
        pairs: pairs.len() as u32,
        stop: summary.stop,
        events: summary.events,
        end_time: summary.end_time,
        sched,
        completed: fold.completed,
        broken: fold.broken,
        requests: fold.requests,
        requests_complete: fold.requests_complete,
        victim: fold.victim,
        violations,
        violations_total,
        attackers: fold.attackers,
        attackers_shed: fold.attackers_shed,
        detected: fold.detected,
        detection_latency_us: fold.detection_latency_us,
        benign_alerts: fold.benign_alerts,
        peak_resident,
        stray_segments,
        pool: shard_pool.map(|p| p.borrow().stats()),
    }
}

/// Merges shard results in shard order (seed order), independent of the
/// order the shards actually finished in — the other half of the
/// any-thread-count determinism guarantee.
pub fn merge_shards(population: u32, shards: u32, mut results: Vec<ShardResult>) -> FleetResult {
    results.sort_by_key(|s| s.shard);
    let mut out = FleetResult {
        population,
        shards,
        events: 0,
        shard_events: Vec::with_capacity(results.len()),
        sched: SchedStats::default(),
        end_time_max: SimTime::ZERO,
        completed: 0,
        broken: 0,
        requests: 0,
        requests_complete: 0,
        victim: None,
        violations: Vec::new(),
        violations_total: 0,
        attackers: 0,
        attackers_shed: 0,
        detected: 0,
        detection_latency_us: 0,
        benign_alerts: 0,
        peak_resident: 0,
        stray_segments: 0,
        pool: None,
    };
    for s in results {
        out.events += s.events;
        out.shard_events.push(s.events);
        out.sched.merge_concurrent(&s.sched);
        out.end_time_max = out.end_time_max.max(s.end_time);
        out.completed += s.completed;
        out.broken += s.broken;
        out.requests += s.requests;
        out.requests_complete += s.requests_complete;
        if s.victim.is_some() {
            out.victim = s.victim;
        }
        out.violations.extend(s.violations);
        out.violations_total += s.violations_total;
        out.attackers += s.attackers;
        out.attackers_shed += s.attackers_shed;
        out.detected += s.detected;
        out.detection_latency_us += s.detection_latency_us;
        out.benign_alerts += s.benign_alerts;
        out.peak_resident += s.peak_resident;
        out.stray_segments += s.stray_segments;
        if let Some(p) = s.pool {
            let merged = out.pool.get_or_insert_with(PoolStats::default);
            merged.admitted += p.admitted;
            merged.parked += p.parked;
            merged.settings_processed += p.settings_processed;
            merged.parser_holds += p.parser_holds;
        }
    }
    out
}

/// Convenience: runs every shard sequentially on the calling thread.
/// `make_adversary` is called once with the victim shard's id.
pub fn run_fleet(
    config: &FleetConfig,
    make_adversary: impl FnOnce() -> Option<Box<dyn Middlebox<TcpSegment>>>,
) -> FleetResult {
    let shards = config.shards.max(1);
    let vs = victim_shard(config);
    let mut make_adversary = Some(make_adversary);
    let mut results = Vec::with_capacity(shards as usize);
    for shard in 0..shards {
        let adversary = if shard == vs {
            make_adversary.take().and_then(|f| f())
        } else {
            None
        };
        results.push(run_fleet_shard(config, shard, adversary));
    }
    merge_shards(config.population, shards, results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_netsim::{MbContext, Verdict};

    fn small_config() -> FleetConfig {
        FleetConfig {
            seed: 11,
            population: 8,
            shards: 2,
            conformance: FleetConformance::Full,
            start_spread: SimDuration::from_millis(200),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn small_fleet_completes_clean() {
        let result = run_fleet(&small_config(), || None);
        assert_eq!(result.completed + result.broken, 8);
        assert_eq!(result.broken, 0, "no connection should die unperturbed");
        assert_eq!(result.violations_total, 0, "{:?}", result.violations);
        let victim = result.victim.expect("victim capture present");
        assert!(!victim.trace.packets.is_empty());
        assert!(!victim.outcomes.is_empty());
        assert!(victim.outcomes.iter().all(|o| o.completed_at.is_some()));
        assert!(!victim.broken);
        assert!(result.requests_complete == result.requests && result.requests >= 8 * 9);
    }

    #[test]
    fn shard_runs_are_deterministic() {
        let config = small_config();
        let a = run_fleet_shard(&config, 0, None);
        let b = run_fleet_shard(&config, 0, None);
        assert_eq!(a.events, b.events);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.sched, b.sched);
        assert_eq!(
            (a.completed, a.broken, a.requests, a.requests_complete),
            (b.completed, b.broken, b.requests, b.requests_complete)
        );
    }

    #[test]
    fn merge_order_is_shard_order_not_finish_order() {
        let config = small_config();
        let fwd = merge_shards(
            config.population,
            config.shards,
            (0..config.shards)
                .map(|s| run_fleet_shard(&config, s, None))
                .collect(),
        );
        let rev = merge_shards(
            config.population,
            config.shards,
            (0..config.shards)
                .rev()
                .map(|s| run_fleet_shard(&config, s, None))
                .collect(),
        );
        assert_eq!(fwd.events, rev.events);
        assert_eq!(fwd.shard_events, rev.shard_events);
        assert_eq!(fwd.sched, rev.sched);
        assert_eq!(fwd.completed, rev.completed);
    }

    #[test]
    fn hostile_pairs_starve_the_pool_until_the_guard_sheds_them() {
        use h2priv_dos::{DetectorConfig, DosAttack, GuardConfig};
        use h2priv_web::PoolConfig;
        let dos = |guarded: bool| FleetDosConfig {
            attack: DosAttack::ZeroWindowHoard,
            attackers: 3,
            guard: guarded.then(GuardConfig::default),
            detector: Some(DetectorConfig::default()),
            pool: Some(PoolConfig {
                capacity: 4,
                ..PoolConfig::default()
            }),
        };
        let config = |guarded: bool| FleetConfig {
            seed: 11,
            population: 10,
            shards: 2,
            conformance: FleetConformance::Full,
            start_spread: SimDuration::from_millis(200),
            deadline: SimDuration::from_secs(40),
            dos: Some(dos(guarded)),
            ..FleetConfig::default()
        };

        let undefended = run_fleet(&config(false), || None);
        assert_eq!(undefended.attackers, 3);
        assert_eq!(undefended.attackers_shed, 0, "nothing sheds undefended");
        let pool = undefended.pool.expect("pool stats present");
        assert!(pool.parked > 0, "hoarded workers must park bystanders");
        assert!(
            undefended.completed < 7,
            "starvation should break bystander page loads ({} completed)",
            undefended.completed
        );
        assert_eq!(undefended.violations_total, 0, "attacks are RFC-legal");

        let guarded = run_fleet(&config(true), || None);
        assert_eq!(guarded.attackers_shed, 3, "guard sheds every attacker");
        assert_eq!(guarded.detected, 3, "detector flags every attacker");
        assert_eq!(guarded.benign_alerts, 0, "no false positives");
        assert!(
            guarded.completed >= 6,
            "bystanders should finish once attackers are shed ({} completed)",
            guarded.completed
        );
        assert_eq!(guarded.violations_total, 0, "{:?}", guarded.violations);
    }

    #[test]
    fn cohort_sizes_do_not_change_outcomes() {
        // The cohort value pre-sizes slabs; scheduling is untouched. Every
        // cohort size, and none, must therefore produce the *same shard
        // execution* — not just the same outcome rows but the same event
        // count, end time and scheduler counters.
        let mut prev: Option<ShardResult> = None;
        for cohort in [None, Some(1u32), Some(3), Some(8)] {
            let config = FleetConfig {
                cohort,
                ..small_config()
            };
            let r = run_fleet_shard(&config, 0, None);
            assert_eq!(r.broken, 0, "cohort {cohort:?}");
            if let Some(p) = &prev {
                assert_eq!(r.completed, p.completed, "cohort {cohort:?}");
                assert_eq!(
                    (r.requests, r.requests_complete),
                    (p.requests, p.requests_complete),
                    "cohort {cohort:?}"
                );
                assert_eq!(r.events, p.events, "cohort {cohort:?}");
                assert_eq!(r.end_time, p.end_time, "cohort {cohort:?}");
                assert_eq!(r.sched, p.sched, "cohort {cohort:?}");
                assert_eq!(r.peak_resident, p.peak_resident, "cohort {cohort:?}");
            }
            prev = Some(r);
        }
        // The victim's capture survives fold-at-finish: the full fleet
        // run still produces an attack-scoreable trace.
        let streamed = run_fleet(
            &FleetConfig {
                cohort: Some(3),
                ..small_config()
            },
            || None,
        );
        let victim = streamed.victim.expect("victim capture present");
        assert!(!victim.trace.packets.is_empty());
        assert!(victim.outcomes.iter().all(|o| o.completed_at.is_some()));
        assert!(!victim.broken);
        assert_eq!(streamed.violations_total, 0, "{:?}", streamed.violations);
    }

    #[test]
    fn streaming_bounds_resident_pairs() {
        // Starts spread far enough apart that loads don't overlap: the
        // shard's high-water mark must sit well under the population.
        let config = FleetConfig {
            seed: 7,
            population: 8,
            shards: 1,
            conformance: FleetConformance::Off,
            start_spread: SimDuration::from_secs(40),
            deadline: SimDuration::from_secs(80),
            cohort: Some(2),
            ..FleetConfig::default()
        };
        let streamed = run_fleet_shard(&config, 0, None);
        assert_eq!(streamed.completed, 8);
        assert!(
            streamed.peak_resident < 8,
            "peak_resident {} should be bounded by overlap, not population",
            streamed.peak_resident
        );
    }

    /// Drops every client→server segment from `from` onward.
    struct DropUpstreamFrom {
        from: SimTime,
        dropped: u64,
    }

    impl Middlebox<TcpSegment> for DropUpstreamFrom {
        fn process(&mut self, _: &Packet<TcpSegment>, ctx: &mut MbContext<'_>) -> Verdict {
            if ctx.dir == Dir::LeftToRight && ctx.now >= self.from {
                self.dropped += 1;
                return Verdict::Drop;
            }
            Verdict::Forward
        }
    }

    #[test]
    fn finished_pairs_stay_resident_until_their_server_is_quiet() {
        // The victim's upstream goes dark once its last response is in:
        // the server never hears the final ACKs and keeps retransmitting
        // long after the client folded its row. The pair must stay
        // resident until its server is quiet or dead, so every one of
        // those retransmissions still reaches a live client.
        let config = FleetConfig {
            seed: 1,
            population: 8,
            shards: 1,
            conformance: FleetConformance::Off,
            start_spread: SimDuration::from_secs(20),
            ..FleetConfig::default()
        };
        let clean = run_fleet_shard(&config, 0, None);
        let last_response = clean
            .victim
            .expect("victim capture present")
            .outcomes
            .iter()
            .map(|o| o.completed_at.expect("clean run completes"))
            .max()
            .expect("the victim issues requests");
        let cut = Rc::new(RefCell::new(DropUpstreamFrom {
            from: last_response,
            dropped: 0,
        }));
        let r = run_fleet_shard(&config, 0, Some(Box::new(cut.clone())));
        assert_eq!(r.completed, 8, "the cut only hides ACKs of a done load");
        assert!(cut.borrow().dropped > 0, "the victim's ACKs are dropped");
        assert!(
            r.end_time > last_response + SimDuration::from_secs(5),
            "the shard runs on while the victim's server retransmits"
        );
        assert_eq!(r.stray_segments, 0, "data reached a freed slot");
    }

    #[test]
    fn progress_reporting_does_not_perturb_results() {
        let config = small_config();
        let base = run_fleet_shard(&config, 1, None);
        let progress = Arc::new(FleetProgress::default());
        let with = run_fleet_shard(
            &FleetConfig {
                progress: Some(progress.clone()),
                ..config
            },
            1,
            None,
        );
        assert_eq!(base.events, with.events);
        assert_eq!(base.end_time, with.end_time);
        assert_eq!(base.sched, with.sched);
        assert_eq!(base.completed, with.completed);
        assert_eq!(progress.events.load(Ordering::Relaxed), with.events);
        assert!(progress.pairs_done.load(Ordering::Relaxed) > 0);
        assert_eq!(progress.shards_done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pairs_spread_over_shards() {
        let shards = 8;
        let mut counts = vec![0u32; shards as usize];
        for pair in 0..10_000 {
            counts[shard_of_pair(pair, shards) as usize] += 1;
        }
        for &c in &counts {
            assert!((1_000..1_600).contains(&c), "lopsided shard: {counts:?}");
        }
    }
}
