//! `benchmark` — the benchmark of record for the h2priv reproduction:
//! wall-clock cost of a simulated page load on four workloads, with
//! call-site layer spans and an interleaved A/B compare. See README.md.
//!
//! ```text
//! benchmark --workload W --seed S [--seconds N] [--trace 0|1]
//!           [--trace-out PATH] [--jsonl PATH]
//! benchmark --compare PARENT.jsonl CHANGE.jsonl
//! benchmark --summarize RUNS.jsonl
//! ```
//!
//! A run prints human-readable lines on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (untraced) or the per-layer metrics (`--trace 1`).
//! `--jsonl` appends the full record, with the host fingerprint, for
//! `--compare` and `--summarize`.

mod compare;
mod host;
mod json;
mod metrics;
mod replay;
mod stats;
mod tick;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use json::{object, Json, ToJson};
use metrics::Def;
use workload::{Budget, Setup, Workload};

/// Counts live heap bytes, for `heap_mib_p50`.
#[global_allocator]
static ALLOC: h2priv_bytes::count_alloc::CountingAlloc = h2priv_bytes::count_alloc::CountingAlloc;

/// Set-up repetitions when timing set-up.
const SETUP_REPS: usize = 25;

const USAGE: &str = "usage:
  benchmark --workload pageload|attack|defended|fleet --seed S [--seconds N] [--trace 0|1]
            [--trace-out PATH] [--jsonl PATH]
  benchmark --compare PARENT.jsonl CHANGE.jsonl
  benchmark --summarize RUNS.jsonl";

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    jsonl: Option<PathBuf>,
}

enum Command {
    Run(RunArgs),
    Compare(PathBuf, PathBuf),
    Summarize(PathBuf),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut trace_out = None;
    let mut jsonl = None;
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--compare" => {
                let a = value()?;
                let b = value()?;
                return Ok(Command::Compare(a.into(), b.into()));
            }
            "--summarize" => return Ok(Command::Summarize(value()?.into())),
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--trace-out" => trace_out = Some(value()?.into()),
            "--jsonl" => jsonl = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if seed >= 1 << 31 {
        return Err("--seed must be below 2^31".to_owned());
    }
    Ok(Command::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        trace_out,
        jsonl,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match parse_args(&args) {
        Ok(Command::Run(run_args)) => run(&run_args),
        Ok(Command::Compare(a, b)) => compare_files(&a, &b),
        Ok(Command::Summarize(path)) => summarize_file(&path),
        Err(msg) => Err(format!("{msg}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn read(path: &PathBuf) -> Result<Vec<compare::Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    compare::parse_lines(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare_files(a: &PathBuf, b: &PathBuf) -> Result<ExitCode, String> {
    let (report, regressed) = compare::compare(&read(a)?, &read(b)?)?;
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn summarize_file(path: &PathBuf) -> Result<ExitCode, String> {
    println!("{}", json::to_line(&compare::summarize(&read(path)?)?));
    Ok(ExitCode::SUCCESS)
}

fn metrics_json(values: &[(&'static Def, f64)]) -> Json {
    json::object_of(values.iter().map(|(d, v)| {
        (
            d.name,
            object([("value", v.to_json()), ("unit", d.unit.to_json())]),
        )
    }))
}

/// The set-up time of `workload` at the nominal host speed: size-map
/// calibration (one per defense on `defended`) and site build, in
/// seconds. Set-up is a millisecond or a few of work, so it is repeated
/// `SETUP_REPS` times, each time followed by a reference tick, and the
/// median set-up is scaled by the median tick.
fn time_setup(workload: Workload, seed: u64) -> f64 {
    let mut ticker = tick::Ticker::default();
    let mut setups = Vec::new();
    let mut ticks = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        std::hint::black_box(Setup::new(workload, seed));
        setups.push(start.elapsed().as_secs_f64());
        ticks.push(ticker.tick() as f64);
    }
    stats::median(&setups) * tick::scale(stats::median(&ticks))
}

fn run(args: &RunArgs) -> Result<ExitCode, String> {
    let name = args.workload.name();

    // Time set-up, then build the one the run uses.
    let setup_s = time_setup(args.workload, args.seed);
    let setup = Setup::new(args.workload, args.seed);

    // Untraced timing; a traced run splits its time between an untraced
    // and a traced pass over the same units, so both see the same inputs.
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let untraced = workload::drive(&setup, Budget::seconds(untraced_s), false);
    let oracle = workload::oracle_check(&setup, &untraced);
    let traced = args
        .trace
        .then(|| workload::drive(&setup, Budget::seconds(args.seconds / 2.0), true));

    let mut problems = workload::check_outcomes(&setup, &untraced);
    problems.extend(oracle.problems.iter().cloned());
    let passes: Vec<&workload::Pass> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    for pass in &passes {
        problems.extend(pass.failures.iter().map(|(i, f)| format!("unit {i}: {f}")));
    }
    let attempted: u64 = passes.iter().map(|p| p.loads()).sum();
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + oracle.failed;
    let correct = problems.is_empty() && failed == 0 && attempted > 0;

    let e2e = metrics::end_to_end(args.workload, &untraced, setup_s);
    let layers = traced
        .as_ref()
        .map(|t| metrics::per_layer(args.workload, t, &untraced, &oracle));

    if let Some(t) = &traced {
        let path = match &args.trace_out {
            Some(p) => p.clone(),
            None => std::env::current_exe()
                .map_err(|e| format!("locating the executable: {e}"))?
                .with_file_name(format!("trace-{name}.json")),
        };
        trace::write_chrome(&path, &t.tracers)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("[{name}] chrome trace: {}", path.display());
    }

    eprintln!(
        "[{name}] seed {} · {} units, {attempted} loads, {failed} failed · {} oracle reruns",
        args.seed,
        untraced.units.len(),
        oracle.reruns,
    );
    let windows = metrics::windows(&untraced);
    let series = |f: fn(&metrics::Window) -> f64| {
        let x: Vec<f64> = windows.iter().map(f).collect();
        let (q1, q3) = stats::quartiles(&x);
        format!("{:.1} [{q1:.1}, {q3:.1}]", stats::median(&x))
    };
    eprintln!(
        "[{name}] {} windows, median [quartiles]: reference tick {} us (nominal {:.1}), \
         loads/s at the host's speed {}, at the nominal speed {}",
        windows.len(),
        series(|w| w.tick_ns / 1e3),
        tick::NOMINAL_NS / 1e3,
        series(metrics::Window::raw_rate),
        series(metrics::Window::rate),
    );
    for (d, v) in e2e.iter().chain(layers.iter().flatten()) {
        eprintln!("[{name}] {:<34} {v:>14.4} {}", d.name, d.unit);
    }
    for note in &oracle.violation_notes {
        eprintln!("[{name}] conformance finding: {note}");
    }
    for p in &problems {
        eprintln!("[{name}] check failed: {p}");
    }
    eprintln!("[{name}] outputs_ok: {correct}");

    let failed_share = failed as f64 / attempted.max(1) as f64;
    if let Some(path) = &args.jsonl {
        let all: Vec<(&'static Def, f64)> =
            e2e.iter().chain(layers.iter().flatten()).copied().collect();
        let record = object([
            ("workload", name.to_json()),
            ("seed", args.seed.to_json()),
            ("seconds", args.seconds.to_json()),
            ("traced", args.trace.to_json()),
            ("host", host::Fingerprint::current().to_json()),
            (
                "reference_tick_us",
                (stats::median(&windows.iter().map(|w| w.tick_ns).collect::<Vec<_>>()) / 1e3)
                    .to_json(),
            ),
            ("outputs_ok", correct.to_json()),
            ("attempted", attempted.to_json()),
            ("failed", failed.to_json()),
            ("failed_share", failed_share.to_json()),
            ("problems", problems.to_json()),
            ("metrics", metrics_json(&all)),
        ]);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", json::to_line(&record))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let shown = layers.as_deref().unwrap_or(&e2e);
    let line = object([
        ("correct", correct.to_json()),
        ("attempted", attempted.to_json()),
        ("failed", failed.to_json()),
        ("metrics", metrics_json(shown)),
    ]);
    println!("{}", json::to_line(&line));
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_run_command_line() {
        let Ok(Command::Run(a)) =
            parse_args(&args("--workload fleet --seed 7 --seconds 20 --trace 1"))
        else {
            panic!("a run command");
        };
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Fleet, 7, 20.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 1")).is_err());
        assert!(parse_args(&args("--workload attack")).is_err());
        assert!(parse_args(&args("--workload attack --seed 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload attack --seed 1 --seconds 0")).is_err());
        assert!(matches!(
            parse_args(&args("--compare a.jsonl b.jsonl")),
            Ok(Command::Compare(_, _))
        ));
    }
}
