//! Regenerates the paper's tables and figures.
//!
//! The exhibits are the entries of `EXHIBITS`, in run order; with no
//! exhibit names, every exhibit but `scaleout` runs. An unknown exhibit
//! name or flag prints the usage line, built from that list and the flags
//! below, to stderr and exits 1.
//! `--quick` uses 25 trials per point instead of the paper's 100;
//! `--trials N` overrides both. Each exhibit prints its tables as it
//! finishes; `--json` instead prints one JSON document at the end, an
//! array with one object per exhibit (its name, head lines, tables and
//! notes), from the same cells. Trials fan out over `--threads N` workers
//! (default: available parallelism); any thread count produces
//! byte-identical stdout, because results are collected in seed order.
//! Per-exhibit wall-clock, event count and peak heap lines go to stderr,
//! and `--bench-json=PATH` additionally writes them, with the scheduler
//! counters, to PATH.
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

use h2priv_bench::json::{object, to_string_pretty, Json, ToJson};
use h2priv_bench::table::Report;
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
    /// Fleet exhibit only: the pairs co-resident at once (not written).
    co_resident: u64,
    /// Rows written in place of this one: scaleout's, one per thread
    /// count.
    split: Vec<ExhibitTiming>,
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

/// What the command line sets for the exhibits.
struct Options {
    /// Trials per experimental point.
    trials: u64,
    population: u32,
    shards: u32,
    /// `--defense`: `defend` runs it beside the baseline, and the fleet
    /// deploys it.
    defense: DefenseSpec,
    tuning: fleet::FleetTuning,
    /// `--threads` as given (0 = auto): scaleout restores it after its
    /// sweep.
    threads: usize,
}

impl Options {
    /// The defenses `defend` runs. A chosen defense still runs next to
    /// the undefended baseline so the overhead columns keep their
    /// denominator.
    fn defenses(&self) -> Vec<DefenseSpec> {
        match self.defense {
            DefenseSpec::None => DefenseSpec::arena().to_vec(),
            spec => vec![DefenseSpec::None, spec],
        }
    }
}

/// One exhibit of the command line.
struct Exhibit {
    name: &'static str,
    /// Runs when no exhibit is named.
    by_default: bool,
    /// The trial count its `--bench-json` row records.
    trials: fn(&Options) -> u64,
    /// Runs it, given its `--bench-json` row so far: name, trial count and
    /// threads. Fleet and scaleout add what only they know.
    run: fn(&Options, &mut ExhibitTiming) -> Report,
}

/// An exhibit that runs when no exhibit is named.
const fn exhibit(
    name: &'static str,
    trials: fn(&Options) -> u64,
    run: fn(&Options, &mut ExhibitTiming) -> Report,
) -> Exhibit {
    Exhibit {
        name,
        by_default: true,
        trials,
        run,
    }
}

/// Every exhibit, in run order. The secondary grids cap their trials per
/// point: the ablations at 40, `defend` at 25 in each of its 4 adversary
/// cells per defense, and `dos` at 25 in its false-positive sweep, the
/// only part of it that scales.
const EXHIBITS: [Exhibit; 10] = [
    exhibit("fig1", |_| 1, |_, _| fig1::run()),
    exhibit("table1", |o| o.trials, |_, t| table1::run(t.trials)),
    exhibit("fig5", |o| o.trials, |_, t| fig5::run(t.trials)),
    exhibit("ivd", |o| o.trials, |_, t| ivd::run(t.trials)),
    exhibit("table2", |o| o.trials, |_, t| table2::run(t.trials)),
    exhibit(
        "ablations",
        |o| o.trials.min(40),
        |_, t| ablations::run(t.trials),
    ),
    exhibit(
        "defend",
        |o| o.trials.min(25) * 4 * o.defenses().len() as u64,
        |o, _| defend::run(o.trials.min(25), &o.defenses()),
    ),
    exhibit("dos", |o| o.trials.min(25), |_, t| dos::run(t.trials)),
    exhibit("fleet", |o| o.population as u64, run_fleet),
    // A measurement harness, not a paper artifact: it re-runs the
    // baseline population once per thread count.
    Exhibit {
        by_default: false,
        ..exhibit("scaleout", |o| o.population as u64, run_scaleout)
    },
];

fn run_fleet(o: &Options, timing: &mut ExhibitTiming) -> Report {
    let r = fleet::run_with(o.population, o.shards, o.defense, &o.tuning);
    // Shard occupancy over both populations (baseline + attacked),
    // element-wise: the balance the hash partition achieved.
    let attacked = &r.attacked.merged.shard_events;
    let baseline = r.baseline.merged.shard_events.iter().zip(attacked);
    timing.shard_events = baseline.map(|(a, b)| a + b).collect();
    // Shards run `min(threads, shards)` at a time and hold
    // `population / shards` pairs each.
    let in_flight = timing.threads.min(o.shards as usize) as u64;
    timing.co_resident = (o.population as u64 * in_flight / o.shards as u64).max(1);
    r.report()
}

/// The same fleet at `--threads` 1/2/4/8, with one timing row per thread
/// count, so `--bench-json` carries the whole scaling curve.
fn run_scaleout(o: &Options, timing: &mut ExhibitTiming) -> Report {
    let points = fleet::scaleout(
        o.population,
        o.shards,
        o.defense,
        &o.tuning,
        &[1, 2, 4, 8],
        o.threads,
    );
    for p in &points {
        eprintln!(
            "[timing] scaleout --threads {}: {:.0} ms, {} events, efficiency {:.2}",
            p.threads, p.wall_ms, p.events, p.efficiency
        );
        timing.split.push(ExhibitTiming {
            exhibit: "scaleout",
            trials: timing.trials,
            threads: p.threads,
            wall_ms: p.wall_ms,
            tally: runner::Tally {
                events: p.events,
                ..runner::Tally::default()
            },
            ..ExhibitTiming::default()
        });
    }
    fleet::scaleout_report(o.population, o.shards, &points)
}

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

/// Prints `msg` and the usage line to stderr and exits 1.
fn usage_error(msg: &str) -> ! {
    let names: Vec<&str> = EXHIBITS.iter().map(|e| e.name).collect();
    eprintln!(
        "repro: {msg}\nusage: repro [--quick] [--json] [--check] [--threads N] [--trials N] \
         [--population N] [--shards N] [--defense NAME] [--bench-json=PATH] [--spread SECS] \
         [--progress] [{}]...",
        names.join("|")
    );
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
        } else if EXHIBITS.iter().any(|e| e.name == a) {
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
    let threads_flag = parse_flag_value(&args, "--threads").unwrap_or(0) as usize;
    runner::set_threads(threads_flag);
    let defense = parse_flag_str(&args, "--defense").map_or(DefenseSpec::None, |name| {
        DefenseSpec::parse(&name).unwrap_or_else(|| {
            let names: Vec<&str> = DefenseSpec::arena().iter().map(|d| d.name()).collect();
            eprintln!("unknown defense {name:?}; valid: {}", names.join(", "));
            std::process::exit(1);
        })
    });
    let (trials, population) = if quick {
        (common::QUICK_TRIALS, 128)
    } else {
        (common::TRIALS, 1_000)
    };
    let opts = Options {
        trials: parse_flag_value(&args, "--trials").unwrap_or(trials),
        population: parse_flag_value(&args, "--population").unwrap_or(population) as u32,
        shards: parse_flag_value(&args, "--shards").unwrap_or(8).max(1) as u32,
        defense,
        tuning: fleet::FleetTuning {
            spread_secs: parse_flag_value(&args, "--spread"),
            progress: args.iter().any(|a| a == "--progress"),
        },
        threads: threads_flag,
    };

    let threads = runner::threads();
    let mut timings: Vec<ExhibitTiming> = Vec::new();
    let mut reports = Vec::new();
    let (mut violations, mut samples) = (0, Vec::new());
    let named = |e: &&Exhibit| wanted.contains(&e.name) || wanted.is_empty() && e.by_default;
    for exhibit in EXHIBITS.iter().filter(named) {
        let mut timing = ExhibitTiming {
            exhibit: exhibit.name,
            trials: (exhibit.trials)(&opts),
            threads,
            ..ExhibitTiming::default()
        };
        let t0 = Instant::now();
        let (report, peak) = count_alloc::measure_peak_bytes(|| (exhibit.run)(&opts, &mut timing));
        timing.wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        timing.peak_alloc_bytes = peak;
        // Exhibits run back to back, so the tally taken after each one
        // holds exactly that exhibit's runs.
        timing.tally = runner::take();
        violations += timing.tally.violations;
        samples.extend(timing.tally.samples.iter().cloned());
        if json {
            reports.push(report.to_json(exhibit.name));
        } else {
            println!("{}", report.markdown());
        }
        if !timing.split.is_empty() {
            timings.append(&mut timing.split);
            continue;
        }
        let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        eprintln!(
            "[timing] {}: {:.0} ms, {} events, {threads} thread(s), peak {:.1} MiB",
            exhibit.name,
            timing.wall_ms,
            timing.tally.events,
            mib(peak)
        );
        // The per-pair working set: the peak divided by how many pairs
        // were co-resident when it was reached.
        if let Some(per_pair) = peak.checked_div(timing.co_resident) {
            timing.bytes_per_pair = per_pair;
            eprintln!(
                "[timing] {} memory: peak_alloc_bytes {peak} ({:.1} MiB), {} bytes/pair over {} co-resident pair(s)",
                exhibit.name,
                mib(peak),
                timing.bytes_per_pair,
                timing.co_resident
            );
        }
        timings.push(timing);
    }
    if json {
        println!("{}", to_string_pretty(&reports));
    }

    if let Some(path) = bench_json {
        let body = to_string_pretty(&timings);
        match std::fs::write(&path, body + "\n") {
            Ok(()) => eprintln!("[timing] wrote {path}"),
            Err(err) => eprintln!("[timing] failed to write {path}: {err}"),
        }
    }

    if check {
        if violations == 0 {
            eprintln!("[conformance] all trials clean: no protocol invariant violations");
        } else {
            eprintln!("[conformance] {violations} violation(s) detected:");
            for sample in &samples {
                eprintln!("[conformance]   {sample}");
            }
            std::process::exit(2);
        }
    }
}
