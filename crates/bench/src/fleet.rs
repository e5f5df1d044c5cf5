//! Fleet exhibit — the population-scale contention experiment.
//!
//! Simulates N independent client–server pairs sharing the gateway
//! (`h2priv_testkit::fleet`), sharded deterministically so shards can run
//! on separate workers with byte-identical output at any `--threads`.
//! Two populations run back to back:
//!
//! * **baseline** — nobody interferes; the victim (pair 0) loads its
//!   survey page amid the bystander herd, multiplexed as usual;
//! * **attacked** — the full §V serialization attack (jitter, trigger on
//!   the 6th GET, disruption window, post-reset 80 ms serialization) is
//!   applied *only to the victim's flow* at the shared gateway. The
//!   paper's point at fleet scale: the adversary needs no per-flow
//!   infrastructure beyond the one middlebox chain, and the thousand
//!   bystander flows neither mask the victim nor break the attack.
//!
//! The exhibit reports per-run outcome counts and the victim's §II-A
//! attack criterion in both runs.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use h2priv_core::experiment::{analyze_capture, AdversarySnapshot};
use h2priv_core::{Adversary, AttackConfig};
use h2priv_defense::DefenseSpec;
use h2priv_netsim::SimDuration;
use h2priv_testkit::fleet::{
    merge_shards, run_fleet_shard, victim_shard, FleetConfig, FleetConformance, FleetProgress,
    ShardResult,
};
use h2priv_web::isidewith;

use crate::common::calibrated_map_against;
use crate::runner;
use crate::table::{Cell, Column, Count, Fmt, Layout, Report, Table};

/// One population run's summary (baseline or attacked).
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// "baseline" or "attacked".
    pub label: &'static str,
    /// The merged shards, less the victim's capture: the `victim_*`
    /// fields below analyze it.
    pub merged: ShardResult,
    /// The victim's HTML was recovered per the §II-A criterion (degree of
    /// multiplexing 0 **and** identified from the encrypted trace).
    pub victim_success: bool,
    /// The victim HTML's minimum degree of multiplexing.
    pub victim_degree: Option<f64>,
}

/// The whole exhibit: baseline and attacked populations.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Pairs per population.
    pub population: u32,
    /// Shards per population.
    pub shards: u32,
    /// Countermeasure deployed by the site ("none" = undefended).
    pub defense: &'static str,
    /// The undisturbed population.
    pub baseline: FleetRun,
    /// The population with the victim throttled at the gateway.
    pub attacked: FleetRun,
}

impl FleetReport {
    /// The exhibit's table: outcome counts per population and the
    /// victim's verdict.
    pub fn report(&self) -> Report {
        let mut table = Table::new(
            format!(
                "FLEET: {} pairs over {} shards, victim = pair 0, defense: {}",
                self.population, self.shards, self.defense
            ),
            Layout::Pipe,
            vec![
                Column::new("run", 8, Fmt::Left),
                Column::new("completed", 0, Fmt::Fixed(0)),
                Column::new("broken", 0, Fmt::Fixed(0)),
                Column::new("requests done", 0, Fmt::Ratio(5)),
                Column::new("victim degree", 0, Fmt::Fixed(2)),
                Column::new("victim recovered", 0, Fmt::Fixed(0)),
            ],
        );
        for run in [&self.baseline, &self.attacked] {
            let m = &run.merged;
            table.push(vec![
                run.label.into(),
                u64::from(m.completed).into(),
                u64::from(m.broken).into(),
                Count::new(m.requests_complete, m.requests).into(),
                run.victim_degree.map_or(Cell::Missing, Cell::Num),
                if run.victim_success { "yes" } else { "no" }.into(),
            ]);
        }
        table.notes = vec![
            "(recovery per the paper's criterion: degree of multiplexing 0 and size-identified;"
                .into(),
            " the gateway throttles only the victim's flow — bystanders are untouched)".into(),
        ];
        table.into()
    }
}

/// Scale-tuning knobs the `repro` CLI exposes for very large fleets. The
/// default (`None`/`false` everywhere) reproduces the pre-existing exhibit
/// byte-for-byte.
#[derive(Debug, Clone, Default)]
pub struct FleetTuning {
    /// Override the client start-spread window, seconds (`--spread SECS`).
    /// The shard deadline grows by the same amount so late starters keep
    /// the full per-pair time budget. A 1M-pair run needs this: the
    /// default 5 s window would put ~300k loads in flight at once.
    pub spread_secs: Option<u64>,
    /// Emit a stderr heartbeat (pairs done, events, ETA) while the
    /// populations run (`--progress`). stdout is untouched.
    pub progress: bool,
}

fn tuned_config(
    population: u32,
    shards: u32,
    defense: DefenseSpec,
    tuning: &FleetTuning,
    progress: Option<Arc<FleetProgress>>,
) -> FleetConfig {
    let mut config = FleetConfig {
        seed: 0xF1EE7,
        population,
        shards,
        defense,
        conformance: if runner::conformance_enabled() {
            FleetConformance::for_population(population)
        } else {
            FleetConformance::Off
        },
        progress,
        ..FleetConfig::default()
    };
    if let Some(secs) = tuning.spread_secs {
        let spread = SimDuration::from_secs(secs);
        config.deadline = spread + config.deadline;
        config.start_spread = spread;
    }
    config
}

/// The stderr heartbeat: a thread sampling the shared [`FleetProgress`]
/// counters every few seconds. Purely observational — the reporter reads
/// relaxed atomics the shard workers bump, so attaching it cannot change
/// any simulation result (and stdout stays byte-identical).
struct Heartbeat {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(progress: Arc<FleetProgress>, total_pairs: u64) -> Heartbeat {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let t0 = Instant::now();
        let handle = std::thread::Builder::new()
            .name("fleet-heartbeat".into())
            .spawn(move || loop {
                for _ in 0..20 {
                    if stop2.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                let done = progress.pairs_done.load(Ordering::Relaxed);
                let events = progress.events.load(Ordering::Relaxed);
                let shards = progress.shards_done.load(Ordering::Relaxed);
                let elapsed = t0.elapsed().as_secs_f64();
                let eta = if done > 0 && done < total_pairs {
                    let per_pair = elapsed / done as f64;
                    format!(", ~{:.0}s left", per_pair * (total_pairs - done) as f64)
                } else {
                    String::new()
                };
                eprintln!(
                    "[fleet] {done}/{total_pairs} pairs, {shards} shard(s) done, \
                     {events} events{eta}"
                );
            })
            .expect("spawn heartbeat thread");
        Heartbeat {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Merges a fleet run's shards in shard order and records the merge in
/// the run's tally.
pub(crate) fn merge_recorded(config: &FleetConfig, results: Vec<ShardResult>) -> ShardResult {
    let m = merge_shards(config.population, config.shards, results);
    runner::record(m.events, &m.sched, m.violations_total, &m.violations);
    m
}

/// Runs a population's shards over `run_seeded`'s workers and merges them
/// in shard order. With `attack`, the victim's shard installs an
/// adversary, whose snapshot comes back beside the merge.
fn run_shards(
    config: &FleetConfig,
    attack: Option<&AttackConfig>,
) -> (ShardResult, Option<AdversarySnapshot>) {
    let vs = victim_shard(config);
    // Shards fan out over `run_seeded`'s workers exactly like trials: the
    // shard id is the "seed", results come back in shard order, and each
    // worker builds the victim's adversary locally (`Rc` is not Send; only
    // the plain-data snapshot leaves the worker).
    let results = runner::run_seeded(config.shards as u64, |shard| {
        let shard = shard as u32;
        let adversary = (shard == vs)
            .then(|| attack.map(|a| Rc::new(RefCell::new(Adversary::new(a.clone())))))
            .flatten();
        let result = run_fleet_shard(config, shard, adversary.clone().map(|a| Box::new(a) as _));
        let snapshot = adversary.map(|a| AdversarySnapshot::new(&a.borrow()));
        (result, snapshot)
    });
    let snapshot = results.iter().find_map(|(_, s)| s.clone());
    let results = results.into_iter().map(|(r, _)| r).collect();
    (merge_recorded(config, results), snapshot)
}

fn run_population(
    label: &'static str,
    config: &FleetConfig,
    attack: Option<&AttackConfig>,
    map: &h2priv_core::SizeMap,
) -> FleetRun {
    let (mut merged, snapshot) = run_shards(config, attack);
    let victim = merged.victim.take().expect("victim shard always runs");
    let iw = isidewith::build(&victim.golden_order);
    // The full attack analyzes the post-reset serialized window, exactly
    // like the single-pair table2 pipeline.
    let analysis_start = attack.and_then(|a| snapshot.as_ref().and_then(|s| s.analysis_start(a)));
    let analysis = analyze_capture(
        &victim.trace,
        &victim.truth,
        &iw,
        victim.broken,
        map,
        &[iw.html],
        analysis_start,
    );

    FleetRun {
        label,
        merged,
        victim_success: analysis.objects[0].success,
        victim_degree: analysis.objects[0].degree,
    }
}

/// Runs the exhibit: one baseline population and one attacked population,
/// both under `defense` (fleet-wide padding; victim-side shaping).
/// Per Kerckhoffs' principle the adversary's size map is calibrated
/// against the defended server.
pub fn run(population: u32, shards: u32, defense: DefenseSpec) -> FleetReport {
    run_with(population, shards, defense, &FleetTuning::default())
}

/// [`run`] with the CLI's scale-tuning knobs (start spread, progress
/// heartbeat).
pub fn run_with(
    population: u32,
    shards: u32,
    defense: DefenseSpec,
    tuning: &FleetTuning,
) -> FleetReport {
    let progress = tuning.progress.then(|| Arc::new(FleetProgress::default()));
    let config = tuned_config(population, shards, defense, tuning, progress.clone());
    // Two populations run back to back; the heartbeat tracks their sum.
    let _heartbeat = progress
        .clone()
        .map(|p| Heartbeat::start(p, 2 * population as u64));
    let map = calibrated_map_against(defense);
    let baseline = run_population("baseline", &config, None, &map);
    let attack = AttackConfig::paper_attack();
    let attacked = run_population("attacked", &config, Some(&attack), &map);
    FleetReport {
        population,
        shards,
        defense: defense.name(),
        baseline,
        attacked,
    }
}

/// One thread-count point of the scale-out exhibit.
#[derive(Debug, Clone)]
pub struct ScaleoutPoint {
    /// Worker threads the shards fanned out over.
    pub threads: usize,
    /// Wall-clock for the baseline population, milliseconds.
    pub wall_ms: f64,
    /// Simulator events across all shards (the same at every point).
    pub events: u64,
    /// Parallel efficiency vs. the 1-thread point: `wall_1 / (threads ×
    /// wall_ms)`, 1.0 for a linear speedup.
    pub efficiency: f64,
    /// Completed pairs (must not vary with the thread count).
    pub completed: u32,
}

/// The scale-out exhibit: the same baseline fleet population executed at
/// each worker count in `thread_counts`, measuring wall-clock and
/// parallel efficiency. Every point runs the *identical* shard set —
/// the partition is fixed by `shards`, not the thread count — so the
/// completed/broken rows must match across the whole curve (asserted
/// here), and only wall-clock moves.
///
/// Leaves the global worker-thread setting at `restore_threads` (0 =
/// auto).
pub fn scaleout(
    population: u32,
    shards: u32,
    defense: DefenseSpec,
    tuning: &FleetTuning,
    thread_counts: &[usize],
    restore_threads: usize,
) -> Vec<ScaleoutPoint> {
    let progress = tuning.progress.then(|| Arc::new(FleetProgress::default()));
    let config = tuned_config(population, shards, defense, tuning, progress.clone());
    let _heartbeat = progress
        .clone()
        .map(|p| Heartbeat::start(p, thread_counts.len() as u64 * population as u64));
    let mut points: Vec<ScaleoutPoint> = Vec::new();
    for &threads in thread_counts {
        runner::set_threads(threads);
        // Only the shards and their merge are timed: the table prints no
        // victim analysis, so none runs.
        let t0 = Instant::now();
        let (merged, _) = run_shards(&config, None);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(first) = points.first() {
            assert_eq!(
                merged.completed, first.completed,
                "thread count must not change outcomes"
            );
        }
        let efficiency = points.first().map_or(1.0, |p| {
            p.wall_ms * p.threads as f64 / (threads.max(1) as f64 * wall_ms.max(1e-9))
        });
        points.push(ScaleoutPoint {
            threads,
            wall_ms,
            events: merged.events,
            efficiency,
            completed: merged.completed,
        });
    }
    runner::set_threads(restore_threads);
    points
}

/// The scale-out curve as a table.
pub fn scaleout_report(population: u32, shards: u32, points: &[ScaleoutPoint]) -> Report {
    let mut table = Table::new(
        format!(
            "FLEET SCALE-OUT: {population} pairs over {shards} shards, baseline population per thread count"
        ),
        Layout::Pipe,
        vec![
            Column::new("threads", 0, Fmt::Fixed(0)),
            Column::new("wall ms", 0, Fmt::Fixed(0)),
            Column::new("events", 10, Fmt::Fixed(0)),
            Column::new("efficiency", 0, Fmt::Fixed(2)),
        ],
    );
    for p in points {
        table.push(vec![
            (p.threads as u64).into(),
            p.wall_ms.into(),
            p.events.into(),
            p.efficiency.into(),
        ]);
    }
    table.notes = vec![
        "(same shard partition at every thread count — outcome rows are identical, only".into(),
        " wall-clock moves; efficiency is the 1-thread wall-clock over threads × this point's)"
            .into(),
    ];
    table.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fleet_report_renders() {
        let report = run(12, 2, DefenseSpec::None);
        assert_eq!(report.population, 12);
        let s = report.report().markdown();
        assert!(s.contains(
            "| run      | completed | broken | requests done | victim degree | victim recovered |\n\
             |----------|----------:|-------:|--------------:|--------------:|-----------------:|\n\
             | baseline |        12 |      0 |     636/636   |"
        ));
        assert!(s.contains("attacked"));
        let baseline = &report.baseline.merged;
        assert_eq!(baseline.shard_events.len(), 2);
        assert!(baseline.events > 0);
        // Whatever the victim verdicts, the runs must account for every pair.
        assert_eq!(baseline.completed + baseline.broken, report.population);
    }
}
