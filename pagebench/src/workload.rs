//! The four workloads, the closed loop that times them, and the checks on
//! their outputs.
//!
//! Every workload is a closed loop on one thread: it starts its next unit
//! as soon as its previous one finishes, until the time budget is spent.
//! One worker leaves the host's other processors to everything else, so a
//! load never shares a core with another load of the same run. A unit is
//! one simulated page load, or on `fleet` one shard of a population round.
//! Unit `i` of seed `S` always gets the same inputs (trial seed
//! `S << 32 | i`), so two commits timed for the same seconds do the same
//! work per unit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::rc::Rc;
use std::time::{Duration, Instant};

use h2priv_bytes::count_alloc::measure_peak_bytes;
use h2priv_conformance::Violation;
use h2priv_core::experiment::{
    analyze_capture, calibrate_size_map_with, objects_of_interest, paper_scenario,
    AdversarySnapshot,
};
use h2priv_core::{Adversary, AttackConfig, SizeMap};
use h2priv_defense::DefenseSpec;
use h2priv_dos::{DetectorConfig, DosAttack, GuardConfig};
use h2priv_netsim::{Dir, MbContext, Middlebox, Packet, SimDuration, SimTime, Verdict};
use h2priv_tcp::TcpSegment;
use h2priv_testkit::fleet::{
    merge_shards, run_fleet_shard, shard_of_pair, victim_shard, FleetConfig, FleetConformance,
    FleetDosConfig, ShardResult,
};
use h2priv_testkit::{build_scenario, run_scenario};
use h2priv_web::isidewith;

use crate::replay::{self, Capture, ReplayTotals};
use crate::stats;
use crate::tick::Ticker;
use crate::trace::{self, Tracer};

/// Every 64th single-pair load is rerun with the conformance oracle on.
pub const ORACLE_EVERY: u64 = 64;
/// Every 16th load of a traced pass is replayed layer by layer.
pub const REPLAY_EVERY: u64 = 16;
/// The reference ticks after a unit take at least this share of its time.
pub const TICK_SHARE: f64 = 0.04;

/// Conformance rules whose violations are known defects of the program
/// under test, reported as findings rather than failed loads until they
/// are fixed. `tcp/karn-probe` (an RTT probe surviving the retransmission
/// of its segment) trips in about one paper load in 3 000. A violation of
/// any other rule fails the run.
pub const KNOWN_FINDINGS: [&str; 1] = ["karn-probe"];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper page loads with no adversary and no defense: the host stack,
    /// netsim and the eavesdropper's analysis.
    PageLoad,
    /// Paper page loads under the full §V attack: adversary middlebox,
    /// TCP loss recovery, browser reissues, post-reset analysis.
    Attack,
    /// Full-attack loads against the four arena defenses in rotation:
    /// dummy records, padded frames, paced packets.
    Defended,
    /// Population rounds with a victim under attack and slow-headers
    /// attackers against guarded, monitored servers.
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PageLoad,
        Workload::Attack,
        Workload::Defended,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageLoad => "pageload",
            Workload::Attack => "attack",
            Workload::Defended => "defended",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many kinds of load the workload rotates through: load `i` is of
    /// kind `i % kinds` (its defense on `defended`).
    pub fn kinds(self) -> usize {
        match self {
            Workload::Defended => defenses().len(),
            _ => 1,
        }
    }
}

/// The trial seed of unit `index` under run seed `seed`.
pub fn trial_seed(seed: u64, index: u64) -> u64 {
    (seed << 32) | (index & 0xFFFF_FFFF)
}

/// Size of one `fleet` population round.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub population: u32,
    pub shards: u32,
}

/// The benchmark's fleet round: 2 000 pairs over 16 shards, so one shard
/// (the unit the closed loop dispatches) takes well under a second and a
/// run of a few seconds still ends close to its deadline.
pub const FLEET_SHAPE: FleetShape = FleetShape {
    population: 2_000,
    shards: 16,
};

/// Everything computed before the first unit is dispatched.
pub struct Setup {
    pub workload: Workload,
    pub seed: u64,
    /// The adversary's size maps: one, or one per defense on `defended`
    /// (calibrated against the defended server, per Kerckhoffs).
    maps: Vec<SizeMap>,
    pub fleet: FleetShape,
}

/// The four arena defenses `defended` rotates through.
fn defenses() -> [DefenseSpec; 4] {
    let arena = DefenseSpec::arena();
    [arena[1], arena[2], arena[3], arena[4]]
}

impl Setup {
    pub fn new(workload: Workload, seed: u64) -> Setup {
        Setup::with_fleet(workload, seed, FLEET_SHAPE)
    }

    pub fn with_fleet(workload: Workload, seed: u64, fleet: FleetShape) -> Setup {
        let objects = objects_of_interest(&paper_scenario(0).0);
        let calibrate =
            |defense: DefenseSpec| calibrate_size_map_with(&objects, |cfg| cfg.defense = defense);
        let maps = match workload {
            Workload::Defended => defenses().into_iter().map(calibrate).collect(),
            _ => vec![calibrate(DefenseSpec::None)],
        };
        Setup {
            workload,
            seed,
            maps,
            fleet,
        }
    }

    fn attack(&self) -> Option<AttackConfig> {
        (self.workload != Workload::PageLoad).then(AttackConfig::paper_attack)
    }

    /// Defense and size map of load `index`.
    fn load_params(&self, index: u64) -> (DefenseSpec, &SizeMap) {
        match self.workload {
            Workload::Defended => {
                let k = index as usize % self.workload.kinds();
                (defenses()[k], &self.maps[k])
            }
            _ => (DefenseSpec::None, &self.maps[0]),
        }
    }

    /// Whether the oracle reruns unit `index`.
    fn oracle_samples(&self, index: u64) -> bool {
        match self.workload {
            Workload::Fleet => index == 0,
            _ => index.is_multiple_of(ORACLE_EVERY),
        }
    }

    /// Round `round`'s configuration: client starts spread 6 ms per pair
    /// (the density of 10 000 pairs over 60 s), cohort streaming, and 1%
    /// slow-headers attackers (at least one) against guarded, monitored
    /// servers.
    fn fleet_config(&self, round: u64, oracle: bool) -> FleetConfig {
        let shape = self.fleet;
        let spread = SimDuration::from_millis(6 * shape.population as u64);
        FleetConfig {
            seed: trial_seed(self.seed, round),
            population: shape.population,
            shards: shape.shards,
            conformance: if oracle {
                FleetConformance::Spot
            } else {
                FleetConformance::Off
            },
            start_spread: spread,
            deadline: spread + h2priv_testkit::calib::TRIAL_DEADLINE,
            cohort: Some(256),
            dos: Some(FleetDosConfig {
                attack: DosAttack::SlowHeaders,
                attackers: (shape.population / 100).max(1),
                guard: Some(GuardConfig::default()),
                detector: Some(DetectorConfig::default()),
                pool: None,
            }),
            ..FleetConfig::default()
        }
    }
}

/// Per-layer work counts of a unit, summed over units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub events: u64,
    pub near_inserts: u64,
    pub far_inserts: u64,
    /// Segments the gateway tap captured (fleet: the victim's).
    pub tap_segments: u64,
    pub segments_sent: u64,
    pub retransmissions: u64,
    pub timeouts: u64,
    /// Wire bytes through the tap, both directions (fleet: the victim's).
    pub wire_bytes: u64,
    /// GETs issued, reissues included (fleet: the victim's).
    pub requests: u64,
    pub reissues: u64,
    pub dummies: u64,
    /// Captures scored by the eavesdropper's analysis.
    pub captures: u64,
    pub html_success: u64,
    pub full_sequence: u64,
    pub attackers: u64,
    pub shed: u64,
    pub detected: u64,
    pub detection_latency_us: u64,
    /// Most co-resident pairs in one unit (a maximum, not a sum).
    pub peak_resident: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.near_inserts += o.near_inserts;
        self.far_inserts += o.far_inserts;
        self.tap_segments += o.tap_segments;
        self.segments_sent += o.segments_sent;
        self.retransmissions += o.retransmissions;
        self.timeouts += o.timeouts;
        self.wire_bytes += o.wire_bytes;
        self.requests += o.requests;
        self.reissues += o.reissues;
        self.dummies += o.dummies;
        self.captures += o.captures;
        self.html_success += o.html_success;
        self.full_sequence += o.full_sequence;
        self.attackers += o.attackers;
        self.shed += o.shed;
        self.detected += o.detected;
        self.detection_latency_us += o.detection_latency_us;
        self.peak_resident = self.peak_resident.max(o.peak_resident);
    }
}

/// What a conformance rerun must reproduce exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleKey {
    pub events: u64,
    pub segments: u64,
    pub html_success: bool,
}

/// One executed unit.
#[derive(Debug, Clone, Default)]
pub struct UnitOut {
    pub index: u64,
    pub wall_ns: u64,
    /// Page loads in the unit: 1, or the pairs of a fleet shard.
    pub loads: u64,
    pub failed: u64,
    pub failure: Option<String>,
    pub counts: Counts,
    pub key: OracleKey,
    /// Conformance violations (oracle reruns only).
    pub violations: Violations,
    pub replay: ReplayTotals,
}

/// The conformance violations one unit reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Violations {
    pub total: u64,
    /// Violations of rules outside [`KNOWN_FINDINGS`]. Those past the
    /// oracle's storage cap count here too: their rules are unknown.
    pub unexpected: u64,
    /// The first unexpected violation, or else the first one.
    pub first: Option<String>,
}

impl Violations {
    fn of(stored: &[Violation], total: u64) -> Violations {
        let known = |v: &&Violation| KNOWN_FINDINGS.contains(&v.rule);
        let first = stored
            .iter()
            .find(|v| !known(v))
            .or(stored.first())
            .map(|v| v.to_string());
        Violations {
            total,
            unexpected: total.saturating_sub(stored.iter().filter(known).count() as u64),
            first,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Mode {
    traced: bool,
    oracle: bool,
}

/// Times an installed middlebox's every call as a fine-grained span.
struct Timed<M>(M);

impl<P, M: Middlebox<P>> Middlebox<P> for Timed<M> {
    fn process(&mut self, packet: &Packet<P>, ctx: &mut MbContext<'_>) -> Verdict {
        trace::fine_scope("core.adversary", || self.0.process(packet, ctx))
    }
}

type Shared = Rc<RefCell<Adversary>>;

fn middlebox(adversary: &Shared, traced: bool) -> Box<dyn Middlebox<TcpSegment>> {
    if traced {
        Box::new(Timed(adversary.clone()))
    } else {
        Box::new(adversary.clone())
    }
}

fn analysis_start(adversary: Option<&Shared>, attack: Option<&AttackConfig>) -> Option<SimTime> {
    let (adversary, attack) = (adversary?, attack?);
    let a = adversary.borrow();
    AdversarySnapshot {
        phase_log: a.phase_log().to_vec(),
        gets_seen: a.gets_seen(),
        drop_window_end: a.drop_window_end(),
        serialize_start: a.serialize_start(),
        gate_released_at: a.gate_released_at(),
        controller: a.controller_stats(),
    }
    .analysis_start(attack)
}

fn wire_bytes(trace: &h2priv_analysis::WireTrace) -> u64 {
    trace.bytes_in_dir(Dir::LeftToRight) + trace.bytes_in_dir(Dir::RightToLeft)
}

fn request_counts(outcomes: &[h2priv_web::RequestOutcome]) -> (u64, u64) {
    let requests: u64 = outcomes.iter().map(|o| o.issued_at.len() as u64).sum();
    (requests, requests.saturating_sub(outcomes.len() as u64))
}

/// One paper page load, mirroring `run_paper_trial` call by call so each
/// call gets its own span.
fn run_load(setup: &Setup, index: u64, mode: Mode) -> UnitOut {
    let seed = trial_seed(setup.seed, index);
    let attack = setup.attack();
    let (defense, map) = setup.load_params(index);
    trace::set_load(index, index.is_multiple_of(ORACLE_EVERY));
    let start = Instant::now();
    let (iw, result, analysis, from, run_self_ns) = trace::scope("load", || {
        let (iw, mut cfg) = trace::scope("web.site_build", || paper_scenario(seed));
        cfg.conformance = mode.oracle;
        cfg.defense = defense;
        let adversary = attack
            .clone()
            .map(|a| Rc::new(RefCell::new(Adversary::new(a))));
        let scenario = trace::scope("testkit.build_scenario", || {
            build_scenario(
                &iw.site,
                &iw.plan,
                &cfg,
                adversary.as_ref().map(|a| middlebox(a, mode.traced)),
            )
        });
        let (result, run_self_ns) =
            trace::scope_self("netsim.run_scenario", || run_scenario(scenario));
        let from = analysis_start(adversary.as_ref(), attack.as_ref());
        let analysis = trace::scope("analysis.analyze_capture", || {
            analyze_capture(
                &result.trace,
                &result.truth,
                &iw,
                result.broken,
                map,
                &objects_of_interest(&iw),
                from,
            )
        });
        (iw, result, analysis, from, run_self_ns)
    });
    let wall_ns = start.elapsed().as_nanos() as u64;

    let (requests, reissues) = request_counts(&result.outcomes);
    let html_success = analysis.objects[0].success;
    let counts = Counts {
        events: result.events,
        near_inserts: result.sched.near_inserts,
        far_inserts: result.sched.far_inserts,
        tap_segments: result.trace.len() as u64,
        segments_sent: result.client_tcp.segments_sent + result.server_tcp.segments_sent,
        retransmissions: result.total_retransmissions(),
        timeouts: result.client_tcp.timeouts + result.server_tcp.timeouts,
        wire_bytes: wire_bytes(&result.trace),
        requests,
        reissues,
        dummies: result.defense_dummies,
        captures: 1,
        html_success: html_success as u64,
        full_sequence: analysis.full_sequence_correct as u64,
        peak_resident: 1,
        ..Counts::default()
    };
    let failure = if result.broken {
        Some("connection broke".to_owned())
    } else if setup.workload == Workload::PageLoad
        && result.outcomes.iter().any(|o| o.completed_at.is_none())
    {
        Some("a request did not complete".to_owned())
    } else {
        None
    };
    let replay = if mode.traced && index.is_multiple_of(REPLAY_EVERY) {
        replay::replay(&Capture {
            trace: &result.trace,
            outcomes: &result.outcomes,
            site: &iw.site,
            map,
            analysis_start: from,
            defense,
            run_self_ns,
        })
    } else {
        ReplayTotals::default()
    };
    UnitOut {
        index,
        wall_ns,
        loads: 1,
        failed: failure.is_some() as u64,
        failure,
        counts,
        key: OracleKey {
            events: result.events,
            segments: counts.segments_sent,
            html_success,
        },
        violations: Violations::of(&result.violations, result.violations_total),
        replay,
    }
}

/// Round `index / shards`, shard position `index % shards`; the victim's
/// shard goes first in every round.
fn shard_of_unit(setup: &Setup, config: &FleetConfig, index: u64) -> u32 {
    let shards = setup.fleet.shards as u64;
    ((victim_shard(config) as u64 + index % shards) % shards) as u32
}

/// Shard results of the rounds still in flight, merged when a round's
/// last shard lands.
type Rounds = RefCell<BTreeMap<u64, Vec<ShardResult>>>;

fn run_shard(setup: &Setup, index: u64, mode: Mode, rounds: Option<&Rounds>) -> UnitOut {
    let round = index / setup.fleet.shards as u64;
    let config = setup.fleet_config(round, mode.oracle);
    let shard = shard_of_unit(setup, &config, index);
    let attack = AttackConfig::paper_attack();
    let adversary = (shard == victim_shard(&config))
        .then(|| Rc::new(RefCell::new(Adversary::new(attack.clone()))));
    trace::set_load(index, index == 0);
    let start = Instant::now();
    let (mut result, run_self_ns) = trace::scope_self("testkit.run_fleet_shard", || {
        run_fleet_shard(
            &config,
            shard,
            adversary.as_ref().map(|a| middlebox(a, mode.traced)),
        )
    });
    let mut counts = Counts {
        events: result.events,
        near_inserts: result.sched.near_inserts,
        far_inserts: result.sched.far_inserts,
        attackers: result.attackers as u64,
        shed: result.attackers_shed as u64,
        detected: result.detected as u64,
        detection_latency_us: result.detection_latency_us,
        peak_resident: result.peak_resident as u64,
        ..Counts::default()
    };
    let map = &setup.maps[0];
    let mut html_success = false;
    let victim = result.victim.take().map(|victim| {
        let iw = trace::scope("web.site_build", || isidewith::build(&victim.golden_order));
        let from = analysis_start(adversary.as_ref(), Some(&attack));
        let analysis = trace::scope("analysis.analyze_capture", || {
            analyze_capture(
                &victim.trace,
                &victim.truth,
                &iw,
                victim.broken,
                map,
                &[iw.html],
                from,
            )
        });
        html_success = analysis.objects[0].success;
        let (requests, reissues) = request_counts(&victim.outcomes);
        counts.captures = 1;
        counts.html_success = html_success as u64;
        counts.full_sequence = analysis.full_sequence_correct as u64;
        counts.tap_segments = victim.trace.len() as u64;
        counts.wire_bytes = wire_bytes(&victim.trace);
        counts.requests = requests;
        counts.reissues = reissues;
        (victim, iw, from)
    });
    let bystanders = result.pairs - result.attackers;
    let incomplete = (bystanders - result.completed.min(bystanders)) as u64;
    let unshed = (result.attackers - result.attackers_shed.min(result.detected)) as u64;
    let failed = (incomplete + unshed + result.benign_alerts).min(result.pairs as u64);
    let failure = (failed > 0).then(|| {
        format!(
            "shard {shard} of round {round}: {incomplete} bystander(s) incomplete, \
             {unshed} attacker(s) not shed and detected, {} benign alert(s)",
            result.benign_alerts
        )
    });
    let violations = Violations::of(&result.violations, result.violations_total);
    let pairs = result.pairs as u64;
    if let Some(rounds) = rounds {
        let done = {
            let mut map = rounds.borrow_mut();
            let shards = map.entry(round).or_default();
            shards.push(result);
            (shards.len() == config.shards as usize).then(|| map.remove(&round))
        };
        if let Some(Some(results)) = done {
            trace::scope("testkit.merge_shards", || {
                merge_shards(config.population, config.shards, results)
            });
        }
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let replay = match (&victim, mode.traced) {
        (Some((victim, iw, from)), true) => replay::replay(&Capture {
            trace: &victim.trace,
            outcomes: &victim.outcomes,
            site: &iw.site,
            map,
            analysis_start: *from,
            defense: DefenseSpec::None,
            run_self_ns: run_self_ns / pairs.max(1),
        }),
        _ => ReplayTotals::default(),
    };
    UnitOut {
        index,
        wall_ns,
        loads: pairs,
        failed,
        failure,
        counts,
        key: OracleKey {
            events: counts.events,
            segments: 0,
            html_success,
        },
        violations,
        replay,
    }
}

fn run_unit(setup: &Setup, index: u64, mode: Mode, rounds: Option<&Rounds>) -> UnitOut {
    let depth = trace::depth();
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| match setup.workload {
        Workload::Fleet => run_shard(setup, index, mode, rounds),
        _ => run_load(setup, index, mode),
    }));
    out.unwrap_or_else(|panic| {
        trace::unwind_to(depth);
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_owned());
        let loads = match setup.workload {
            Workload::Fleet => {
                let config = setup.fleet_config(index / setup.fleet.shards as u64, false);
                let shard = shard_of_unit(setup, &config, index);
                (0..config.population)
                    .filter(|&p| shard_of_pair(p, config.shards) == shard)
                    .count() as u64
            }
            _ => 1,
        };
        UnitOut {
            index,
            loads,
            failed: loads,
            failure: Some(format!("panicked: {msg}")),
            ..UnitOut::default()
        }
    })
}

/// How long a pass runs: until `seconds` have passed or `max_units` units
/// were dispatched, whichever comes first.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub max_units: u64,
}

impl Budget {
    pub fn seconds(seconds: f64) -> Budget {
        Budget {
            seconds,
            max_units: u64::MAX,
        }
    }

    #[cfg(test)]
    pub fn units(max_units: u64) -> Budget {
        Budget {
            seconds: f64::MAX,
            max_units,
        }
    }
}

/// Timing of one unit. Everything else a unit reports is folded into the
/// pass totals as it finishes, so a long pass stores only this per unit.
#[derive(Debug, Clone, Copy)]
pub struct UnitTime {
    pub wall_ns: u64,
    /// When the unit finished, from the start of the pass, leaving out the
    /// time spent in reference ticks.
    pub end_ns: u64,
    /// Median time of the reference ticks run right after the unit.
    pub tick_ns: f64,
    /// How far the live heap rose above its level at the unit's start.
    pub heap_bytes: u64,
    pub loads: u64,
    pub ok: bool,
}

/// One timed pass over a workload.
#[derive(Default)]
pub struct Pass {
    /// Units in index order, which is also the order they ran in.
    pub units: Vec<UnitTime>,
    pub failed: u64,
    pub failures: Vec<(u64, String)>,
    pub counts: Counts,
    pub replay: ReplayTotals,
    /// Keys of the units the oracle reruns.
    pub sample: Vec<(u64, OracleKey)>,
    /// The tracer of a traced pass.
    pub tracers: Vec<Tracer>,
}

impl Pass {
    fn fold(&mut self, setup: &Setup, time: UnitTime, out: UnitOut) {
        self.units.push(time);
        self.failed += out.failed;
        self.counts.add(&out.counts);
        self.replay.add(&out.replay);
        match out.failure {
            Some(f) => self.failures.push((out.index, f)),
            None if setup.oracle_samples(out.index) => self.sample.push((out.index, out.key)),
            None => {}
        }
    }

    pub fn loads(&self) -> u64 {
        self.units.iter().map(|u| u.loads).sum()
    }

    /// Per-name span totals over all workers.
    pub fn totals(&self) -> BTreeMap<&'static str, trace::Total> {
        let mut out: BTreeMap<&'static str, trace::Total> = BTreeMap::new();
        for t in &self.tracers {
            for (name, total) in &t.totals {
                out.entry(name).or_default().add(*total);
            }
        }
        out
    }
}

/// Runs the closed loop on the calling thread until `budget` is spent.
pub fn drive(setup: &Setup, budget: Budget, traced: bool) -> Pass {
    let rounds: Rounds = RefCell::new(BTreeMap::new());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget.seconds.min(1e6));
    if traced {
        trace::install(Tracer::new(start));
    }
    let mode = Mode {
        traced,
        oracle: false,
    };
    let mut pass = Pass::default();
    let mut ticker = Ticker::default();
    let mut ticking_ns = 0;
    for index in 0..budget.max_units {
        if Instant::now() >= deadline {
            break;
        }
        let (out, heap_bytes) = measure_peak_bytes(|| run_unit(setup, index, mode, Some(&rounds)));
        let end_ns = start.elapsed().as_nanos() as u64 - ticking_ns;
        let tick_start = Instant::now();
        let tick_ns = ticks_after(&mut ticker, out.wall_ns);
        ticking_ns += tick_start.elapsed().as_nanos() as u64;
        let time = UnitTime {
            wall_ns: out.wall_ns,
            end_ns,
            tick_ns,
            heap_bytes,
            loads: out.loads,
            ok: out.failure.is_none(),
        };
        pass.fold(setup, time, out);
    }
    pass.tracers.extend(trace::take());
    pass
}

/// Runs reference ticks after a unit that took `unit_ns`, until their
/// timed runs add up to [`TICK_SHARE`] of it (at least one tick), and
/// returns their median time.
fn ticks_after(ticker: &mut Ticker, unit_ns: u64) -> f64 {
    let mut ticks = vec![ticker.tick() as f64];
    while ticks.iter().sum::<f64>() < TICK_SHARE * unit_ns as f64 {
        ticks.push(ticker.tick() as f64);
    }
    stats::median(&ticks)
}

/// Result of rerunning the oracle sample.
#[derive(Debug, Default)]
pub struct OracleReport {
    pub reruns: u64,
    /// Sampled units whose rerun failed or diverged from the timed run.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Conformance violations the reruns reported, with one line per
    /// violating unit. Violations of [`KNOWN_FINDINGS`] rules are findings
    /// about the program under test, not failed loads; any other
    /// violation also fails its unit.
    pub violations: u64,
    pub violation_notes: Vec<String>,
    /// Summed wall time of the sampled units rerun serially with the
    /// oracle off, and with it on.
    pub plain_ns: u64,
    pub oracle_ns: u64,
}

impl OracleReport {
    /// Judges the oracle `rerun` of a unit whose timed run had `key`, and
    /// whose serial rerun with the oracle off took `plain_ns`.
    fn record(&mut self, key: OracleKey, plain_ns: u64, rerun: &UnitOut) {
        let index = rerun.index;
        let v = &rerun.violations;
        self.reruns += 1;
        self.plain_ns += plain_ns;
        self.oracle_ns += rerun.wall_ns;
        if v.total > 0 {
            self.violations += v.total;
            self.violation_notes.push(format!(
                "unit {index}: {} violation(s), first: {}",
                v.total,
                v.first.as_deref().unwrap_or("not stored")
            ));
        }
        let problem = if let Some(f) = &rerun.failure {
            Some(format!("failed under the oracle: {f}"))
        } else if v.unexpected > 0 {
            Some(format!(
                "{} conformance violation(s) outside the known findings",
                v.unexpected
            ))
        } else if rerun.key != key {
            Some(format!(
                "oracle rerun diverged: {:?} vs timed {key:?}",
                rerun.key
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(format!("unit {index}: {p}"));
        }
    }
}

/// Reruns every 64th single-pair load (on `fleet`, the first round's
/// victim shard) serially with the conformance oracle on. Each rerun must
/// complete, report no violation outside [`KNOWN_FINDINGS`], and reproduce
/// the timed unit's events, segments and HTML verdict. The unit is also
/// rerun serially with the oracle off, so the oracle's price is measured
/// against a run alone on the host like its own, not against the timed
/// run that shared it with the other workers.
pub fn oracle_check(setup: &Setup, pass: &Pass) -> OracleReport {
    let mut report = OracleReport::default();
    for &(index, key) in &pass.sample {
        let rerun = |oracle| {
            let mode = Mode {
                traced: false,
                oracle,
            };
            run_unit(setup, index, mode, None)
        };
        let plain = rerun(false);
        report.record(key, plain.wall_ns, &rerun(true));
    }
    report
}

/// Workload-level checks on a pass's outputs; each entry is one failed
/// check.
pub fn check_outcomes(setup: &Setup, pass: &Pass) -> Vec<String> {
    let c = pass.counts;
    let share = |n: u64| n as f64 / c.captures.max(1) as f64;
    let html = share(c.html_success);
    let seq = share(c.full_sequence);
    let mut problems = Vec::new();
    let mut want = |ok: bool, what: String| {
        if !ok {
            problems.push(what);
        }
    };
    want(c.captures > 0, "no capture was scored".to_owned());
    match setup.workload {
        Workload::PageLoad => want(
            (0.10..=0.35).contains(&html),
            format!("HTML success {:.1}% outside [10%, 35%]", html * 100.0),
        ),
        Workload::Attack => want(
            html >= 0.95,
            format!("HTML success {:.1}% below 95%", html * 100.0),
        ),
        Workload::Defended => {
            want(
                html <= 0.02,
                format!("HTML success {:.1}% above 2%", html * 100.0),
            );
            want(
                seq <= 0.01,
                format!("full-sequence recovery {:.1}% above 1%", seq * 100.0),
            );
        }
        Workload::Fleet => want(
            c.attackers > 0 && c.shed == c.attackers && c.detected == c.attackers,
            format!(
                "{} attacker(s): {} shed, {} detected",
                c.attackers, c.shed, c.detected
            ),
        ),
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trial_seeds_are_distinct_per_seed_and_index() {
        assert_eq!(trial_seed(1, 0), 1 << 32);
        assert_eq!(trial_seed(1, 5), (1 << 32) | 5);
        assert_eq!(trial_seed(0, 7), 7);
        let seeds: std::collections::BTreeSet<u64> = (0..4)
            .flat_map(|s| (0..100).map(move |i| trial_seed(s, i)))
            .collect();
        assert_eq!(seeds.len(), 400);
    }

    #[test]
    fn victim_shard_leads_every_round() {
        let setup = Setup::with_fleet(
            Workload::Fleet,
            3,
            FleetShape {
                population: 64,
                shards: 4,
            },
        );
        for round in 0..3 {
            let config = setup.fleet_config(round, false);
            assert_eq!(config.seed, trial_seed(3, round));
            let first = shard_of_unit(&setup, &config, round * 4);
            assert_eq!(first, victim_shard(&config));
            let all: std::collections::BTreeSet<u32> = (0..4)
                .map(|k| shard_of_unit(&setup, &config, round * 4 + k))
                .collect();
            assert_eq!(all.len(), 4, "a round covers every shard once");
        }
    }

    #[test]
    fn only_known_findings_pass_the_oracle() {
        let violation = |rule: &'static str| Violation {
            layer: h2priv_conformance::Layer::Tcp,
            rule,
            time: SimTime::ZERO,
            detail: "test".to_owned(),
        };
        let key = OracleKey {
            events: 10,
            segments: 4,
            html_success: true,
        };
        let rerun = |stored: &[Violation], total: u64| UnitOut {
            index: 64,
            key,
            violations: Violations::of(stored, total),
            ..UnitOut::default()
        };
        let mut report = OracleReport::default();
        report.record(key, 1, &rerun(&[violation("karn-probe")], 1));
        assert_eq!((report.failed, report.violations), (0, 1));
        let mixed = [violation("karn-probe"), violation("ack-monotonic")];
        report.record(key, 1, &rerun(&mixed, 2));
        assert_eq!((report.failed, report.violations), (1, 3));
        assert!(report.problems[0].contains("1 conformance violation(s)"));
        assert!(report.violation_notes[1].contains("tcp/ack-monotonic"));
        // Violations past the oracle's storage cap have unknown rules.
        report.record(key, 1, &rerun(&[violation("karn-probe")], 2));
        assert_eq!((report.failed, report.reruns), (2, 3));
    }

    fn smoke(setup: &Setup, units: u64) {
        let pass = drive(setup, Budget::units(units), true);
        assert_eq!(pass.units.len() as u64, units);
        assert!(pass.failures.is_empty(), "{:?}", pass.failures);
        let problems = check_outcomes(setup, &pass);
        assert!(problems.is_empty(), "{problems:?}");
        let oracle = oracle_check(setup, &pass);
        assert!(oracle.reruns >= 1);
        assert!(oracle.problems.is_empty(), "{:?}", oracle.problems);
        assert_eq!(oracle.violations, 0, "{:?}", oracle.violation_notes);
        // End-to-end metrics are bounded relative to the parent's median,
        // so none may read 0.
        for (d, v) in crate::metrics::end_to_end(setup.workload, &pass, 1e-3) {
            assert!(v > 0.0, "{} reads {v}", d.name);
        }
        let replay = pass.replay;
        assert!(replay.loads >= 1 && replay.records > 0 && replay.frames > 0);
        assert!(replay.tcp_segments > 0 && replay.blocks > 0);
        assert!(pass.totals().contains_key("analysis.analyze_capture"));
    }

    #[test]
    fn pageload_smoke_run_passes_its_checks() {
        smoke(&Setup::new(Workload::PageLoad, 1), 24);
    }

    #[test]
    fn attack_smoke_run_passes_its_checks() {
        let setup = Setup::new(Workload::Attack, 1);
        smoke(&setup, 8);
    }

    #[test]
    fn defended_smoke_run_passes_its_checks() {
        smoke(&Setup::new(Workload::Defended, 1), 8);
    }

    #[test]
    fn fleet_smoke_run_passes_its_checks() {
        let setup = Setup::with_fleet(
            Workload::Fleet,
            1,
            FleetShape {
                population: 48,
                shards: 4,
            },
        );
        smoke(&setup, 8);
    }
}
