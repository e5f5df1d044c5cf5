//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--json] [--check] [--threads N] [--trials N]
//!       [--population N] [--shards N] [--defense NAME] [--bench-json=PATH]
//!       [--spread SECS] [--progress]
//!       [table1] [fig5] [ivd] [table2] [fig1] [ablations] [defend] [dos]
//!       [fleet] [scaleout]
//! ```
//!
//! With no exhibit names, everything runs. An unknown exhibit name or
//! flag prints the usage line to stderr and exits 1. `--quick` uses 25
//! trials per point instead of the paper's 100; `--trials N` overrides
//! both. Trials fan out over `--threads N` workers (default: available
//! parallelism); any thread count produces byte-identical stdout, because
//! results are collected in seed order. Per-exhibit wall-clock, event
//! count and peak heap lines go to stderr, and `--bench-json=PATH`
//! additionally writes them, with the scheduler counters, to PATH.
//!
//! The `fleet` exhibit simulates `--population N` client–server pairs
//! (default 1000, `--quick` 128) split over `--shards N` independent
//! engines (default 8). Shards fan out over the same workers; the
//! shard count — not the thread count — fixes the partition, so fleet
//! output is also byte-identical at any `--threads`. Pairs are built at
//! their start time and freed when their page load is over, so peak
//! memory follows the pairs in flight, not the population. Million-pair
//! runs use `--spread SECS` (widen the start-stagger window so fewer loads
//! overlap; the shard deadline grows by the same amount) and `--progress`
//! (a stderr heartbeat with pairs done, events and ETA; stdout is
//! untouched).
//!
//! The `scaleout` exhibit (explicit request only — it is a measurement
//! harness, not a paper artifact, and re-runs the baseline population once
//! per thread count) executes the same fleet at `--threads` 1/2/4/8 and
//! reports each point's wall-clock and its parallel efficiency: the
//! 1-thread wall-clock over threads × this point's.
//!
//! The `defend` exhibit runs the countermeasure arena: every defense in
//! `DefenseSpec::arena` against the escalating adversary grid, reporting
//! attack success and byte/latency overhead per cell. `--defense NAME`
//! narrows it to `[none, NAME]` (the baseline stays so overheads are
//! well-defined) and also deploys NAME fleet-wide in the `fleet` exhibit.
//!
//! `--check` attaches the cross-layer conformance oracle
//! (`h2priv-conformance`) to every trial: TCP, TLS and HTTP/2 invariants
//! are validated on every segment, record and frame, a summary goes to
//! stderr, and the process exits nonzero if any trial violated any
//! invariant. Exhibit output is unchanged — the oracle only observes.

use std::time::Instant;

use h2priv_bench::json::{object, Json, ToJson};
use h2priv_bench::{
    ablations, common, defend, dos, fig1, fig5, fleet, ivd, runner, table1, table2,
};
use h2priv_bytes::count_alloc;
use h2priv_defense::DefenseSpec;

/// The byte-gauging allocator: two relaxed atomics per allocator call buy
/// the `peak_alloc_bytes` / `bytes_per_pair` memory telemetry reported in
/// `--bench-json` and gated by `scripts/bench_check.sh`.
#[global_allocator]
static ALLOC: count_alloc::CountingAlloc = count_alloc::CountingAlloc;

/// Per-exhibit wall-clock record emitted by `--bench-json`.
#[derive(Default)]
struct ExhibitTiming {
    exhibit: &'static str,
    trials: u64,
    threads: usize,
    wall_ms: f64,
    /// What the exhibit's runs recorded: events, violations, and the
    /// event-scheduler behaviour (tier split, promotions, peak
    /// bucket/overflow occupancy) that makes baselines self-describing.
    /// For the fleet exhibit the peaks are summed across
    /// concurrently-resident shards (`SchedStats::merge_concurrent`).
    tally: runner::Tally,
    /// Per-shard event counts (fleet exhibit only; empty otherwise) —
    /// the shard occupancy balance.
    shard_events: Vec<u64>,
    /// High-water mark of live heap bytes while the exhibit ran (how far
    /// the process-wide gauge rose above its level at exhibit entry).
    peak_alloc_bytes: u64,
    /// Fleet exhibit only: `peak_alloc_bytes` divided by the number of
    /// pairs co-resident at once (population scaled by how many shards the
    /// workers keep in flight together) — the per-pair working set
    /// the memory-regression gate pins. Zero for non-fleet exhibits.
    bytes_per_pair: u64,
}

impl ToJson for ExhibitTiming {
    fn to_json(&self) -> Json {
        let sched = &self.tally.sched;
        object([
            ("exhibit", self.exhibit.to_json()),
            ("trials", self.trials.to_json()),
            ("threads", self.threads.to_json()),
            ("wall_ms", self.wall_ms.to_json()),
            ("events", self.tally.events.to_json()),
            ("sched_near_inserts", sched.near_inserts.to_json()),
            ("sched_far_inserts", sched.far_inserts.to_json()),
            ("sched_promotions", sched.promotions.to_json()),
            ("sched_rebases", sched.rebases.to_json()),
            ("sched_peak_near", sched.peak_near.to_json()),
            ("sched_peak_overflow", sched.peak_overflow.to_json()),
            ("shard_events", self.shard_events.to_json()),
            ("peak_alloc_bytes", self.peak_alloc_bytes.to_json()),
            ("bytes_per_pair", self.bytes_per_pair.to_json()),
        ])
    }
}

/// Every exhibit name the command line accepts.
const EXHIBITS: [&str; 10] = [
    "fig1",
    "table1",
    "fig5",
    "ivd",
    "table2",
    "ablations",
    "defend",
    "dos",
    "fleet",
    "scaleout",
];
/// Flags that take a value, as `--flag V` or `--flag=V`.
const VALUE_FLAGS: [&str; 6] = [
    "--threads",
    "--trials",
    "--population",
    "--shards",
    "--defense",
    "--spread",
];
const SWITCHES: [&str; 4] = ["--quick", "--json", "--check", "--progress"];
const USAGE: &str = "usage: repro [--quick] [--json] [--check] [--threads N] [--trials N] \
    [--population N] [--shards N] [--defense NAME] [--bench-json=PATH] [--spread SECS] \
    [--progress] [fig1|table1|fig5|ivd|table2|ablations|defend|dos|fleet|scaleout]...";

/// Prints `msg` and the usage line to stderr and exits 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n{USAGE}");
    std::process::exit(1);
}

/// The exhibit names on the command line, after checking that every
/// argument is a documented flag or exhibit.
fn exhibit_names(args: &[String]) -> Vec<&str> {
    let mut names = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if VALUE_FLAGS.contains(&a) {
            if it.next().is_none() {
                usage_error(&format!("{a} needs a value"));
            }
        } else if EXHIBITS.contains(&a) {
            names.push(a);
        } else if !(SWITCHES.contains(&a)
            || a.starts_with("--bench-json=")
            || VALUE_FLAGS
                .iter()
                .any(|f| a.strip_prefix(f).is_some_and(|v| v.starts_with('='))))
        {
            usage_error(&format!("unknown argument {a:?}"));
        }
    }
    names
}

fn parse_flag_value(args: &[String], flag: &str) -> Option<u64> {
    parse_flag_str(args, flag).map(|v| {
        v.parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} needs a number, got {v:?}")))
    })
}

fn parse_flag_str(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return it.next().cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wanted = exhibit_names(&args);
    let quick = args.iter().any(|a| a == "--quick");
    let json = args.iter().any(|a| a == "--json");
    let check = args.iter().any(|a| a == "--check");
    runner::set_conformance(check);
    let bench_json = parse_flag_str(&args, "--bench-json");
    if let Some(threads) = parse_flag_value(&args, "--threads") {
        runner::set_threads(threads as usize);
    }
    let trials = parse_flag_value(&args, "--trials").unwrap_or(if quick {
        common::QUICK_TRIALS
    } else {
        common::TRIALS
    });
    let population =
        parse_flag_value(&args, "--population").unwrap_or(if quick { 128 } else { 1_000 }) as u32;
    let shards = parse_flag_value(&args, "--shards").unwrap_or(8).max(1) as u32;
    let tuning = fleet::FleetTuning {
        spread_secs: parse_flag_value(&args, "--spread"),
        progress: args.iter().any(|a| a == "--progress"),
    };
    let defense = match parse_flag_str(&args, "--defense") {
        Some(name) => match DefenseSpec::parse(&name) {
            Some(spec) => Some(spec),
            None => {
                let names: Vec<&str> = DefenseSpec::arena().iter().map(|d| d.name()).collect();
                eprintln!("unknown defense {name:?}; valid: {}", names.join(", "));
                std::process::exit(1);
            }
        },
        None => None,
    };
    let want = |name: &str| wanted.is_empty() || wanted.contains(&name);

    let threads = runner::threads();
    let mut timings: Vec<ExhibitTiming> = Vec::new();
    let mut timed = |exhibit: &'static str, trials: u64, body: &mut dyn FnMut()| {
        let t0 = Instant::now();
        let ((), peak_alloc_bytes) = count_alloc::measure_peak_bytes(body);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let timing = ExhibitTiming {
            exhibit,
            trials,
            threads,
            wall_ms,
            // Exhibits run back to back, so the tally taken after each one
            // holds exactly that exhibit's runs.
            tally: runner::take(),
            peak_alloc_bytes,
            ..ExhibitTiming::default()
        };
        eprintln!(
            "[timing] {exhibit}: {wall_ms:.0} ms, {} events, {threads} thread(s), peak {:.1} MiB",
            timing.tally.events,
            peak_alloc_bytes as f64 / (1024.0 * 1024.0)
        );
        timings.push(timing);
    };

    if want("fig1") {
        timed("fig1", 1, &mut || {
            let cases = fig1::run();
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&cases));
            } else {
                println!("{}", fig1::render(&cases));
            }
        });
    }
    if want("table1") {
        timed("table1", trials, &mut || {
            let rows = table1::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&rows));
            } else {
                println!("{}", table1::render(&rows));
            }
        });
    }
    if want("fig5") {
        timed("fig5", trials, &mut || {
            let points = fig5::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&points));
            } else {
                println!("{}", fig5::render(&points));
            }
        });
    }
    if want("ivd") {
        timed("ivd", trials, &mut || {
            let points = ivd::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&points));
            } else {
                println!("{}", ivd::render(&points));
            }
        });
    }
    if want("table2") {
        timed("table2", trials, &mut || {
            let cols = table2::run(trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&cols));
            } else {
                println!("{}", table2::render(&cols));
                let (lo, hi) = table2::baseline_image_degrees(trials.min(30));
                println!(
                    "(baseline degree of multiplexing of the emblem images: {lo:.0}%–{hi:.0}%)\n"
                );
            }
        });
    }
    if want("ablations") {
        timed("ablations", trials.min(40), &mut || {
            let rows = ablations::run(trials.min(40));
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&rows));
            } else {
                println!("{}", ablations::render(&rows));
            }
        });
    }
    if want("defend") {
        // The frontier is 4 adversary cells per defense; cap per-cell
        // trials like the ablation sweep does.
        let defend_trials = trials.min(25);
        // A chosen defense still runs next to the undefended baseline so
        // the overhead columns keep their denominator.
        let defenses: Vec<DefenseSpec> = match defense {
            Some(spec) if spec != DefenseSpec::None => vec![DefenseSpec::None, spec],
            _ => DefenseSpec::arena().to_vec(),
        };
        timed(
            "defend",
            defend_trials * defenses.len() as u64 * 4,
            &mut || {
                let cells = defend::run_subset(defend_trials, &defenses);
                if json {
                    println!("{}", h2priv_bench::json::to_string_pretty(&cells));
                } else {
                    println!("{}", defend::render(&cells));
                }
            },
        );
    }
    if want("dos") {
        // The attack grid and fleet runs are fixed-size; trials scale only
        // the false-positive sweep, capped like the other secondary grids.
        let dos_trials = trials.min(25);
        timed("dos", dos_trials, &mut || {
            let report = dos::run(dos_trials);
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&report));
            } else {
                println!("{}", dos::render(&report));
            }
        });
    }
    if want("fleet") {
        let mut report = None;
        timed("fleet", population as u64, &mut || {
            let r = fleet::run_with(
                population,
                shards,
                defense.unwrap_or(DefenseSpec::None),
                &tuning,
            );
            if json {
                println!("{}", h2priv_bench::json::to_string_pretty(&r));
            } else {
                println!("{}", fleet::render(&r));
            }
            report = Some(r);
        });
        if let (Some(r), Some(t)) = (report, timings.last_mut()) {
            // Shard occupancy over both populations (baseline + attacked),
            // element-wise: the balance the hash partition achieved.
            t.shard_events = r
                .baseline
                .merged
                .shard_events
                .iter()
                .zip(&r.attacked.merged.shard_events)
                .map(|(a, b)| a + b)
                .collect();
            // Per-pair working set: the peak divided by how many pairs were
            // co-resident when it was reached. Shards run `min(threads,
            // shards)` at a time and hold `population / shards` pairs each.
            let co_resident =
                (population as u64 * threads.min(shards as usize) as u64 / shards as u64).max(1);
            t.bytes_per_pair = t.peak_alloc_bytes / co_resident;
            eprintln!(
                "[timing] fleet memory: peak_alloc_bytes {} ({:.1} MiB), {} bytes/pair over {} co-resident pair(s)",
                t.peak_alloc_bytes,
                t.peak_alloc_bytes as f64 / (1024.0 * 1024.0),
                t.bytes_per_pair,
                co_resident
            );
        }
    }

    // Explicit request only (never part of the run-everything default):
    // scaleout re-executes the baseline population once per thread count,
    // overriding --threads point by point, purely to measure parallel
    // efficiency.
    if wanted.contains(&"scaleout") {
        let restore = parse_flag_value(&args, "--threads").unwrap_or(0) as usize;
        let points = fleet::scaleout(
            population,
            shards,
            defense.unwrap_or(DefenseSpec::None),
            &tuning,
            &[1, 2, 4, 8],
            restore,
        );
        if json {
            println!("{}", h2priv_bench::json::to_string_pretty(&points));
        } else {
            println!("{}", fleet::render_scaleout(population, shards, &points));
        }
        // One timing row per thread count, so `--bench-json` carries the
        // whole scaling curve.
        for p in &points {
            eprintln!(
                "[timing] scaleout --threads {}: {:.0} ms, {} events, efficiency {:.2}",
                p.threads, p.wall_ms, p.events, p.efficiency
            );
            timings.push(ExhibitTiming {
                exhibit: "scaleout",
                trials: population as u64,
                threads: p.threads,
                wall_ms: p.wall_ms,
                tally: runner::Tally {
                    events: p.events,
                    ..runner::Tally::default()
                },
                ..ExhibitTiming::default()
            });
        }
    }

    if let Some(path) = bench_json {
        let body = h2priv_bench::json::to_string_pretty(&timings);
        match std::fs::write(&path, body + "\n") {
            Ok(()) => eprintln!("[timing] wrote {path}"),
            Err(err) => eprintln!("[timing] failed to write {path}: {err}"),
        }
    }

    if check {
        // Scaleout runs outside a timed exhibit: its tally is still open.
        let rest = runner::take();
        let tallies: Vec<_> = timings.iter().map(|t| &t.tally).chain([&rest]).collect();
        let violations: u64 = tallies.iter().map(|t| t.violations).sum();
        if violations == 0 {
            eprintln!("[conformance] all trials clean: no protocol invariant violations");
        } else {
            eprintln!("[conformance] {violations} violation(s) detected:");
            for sample in tallies.iter().flat_map(|t| &t.samples) {
                eprintln!("[conformance]   {sample}");
            }
            std::process::exit(2);
        }
    }
}
