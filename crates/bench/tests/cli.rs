//! The `repro` command line. It rejects what it does not know: a mistyped
//! exhibit name or flag prints the usage line to stderr and exits 1
//! before any exhibit runs, instead of running nothing and exiting 0.
//! Its `--json` mode prints one document with every cell the table mode
//! prints, from the same work, at any thread count.

use std::collections::HashSet;
use std::process::{Command, Output};
use std::sync::OnceLock;

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

fn assert_rejected(args: &[&str]) {
    let out = repro(args);
    assert_eq!(out.status.code(), Some(1), "repro {args:?} must exit 1");
    assert!(out.stdout.is_empty(), "repro {args:?} wrote to stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "no usage line: {stderr}");
}

#[test]
fn unknown_exhibit_is_an_error() {
    assert_rejected(&["fleeet"]);
}

#[test]
fn unknown_flag_is_an_error() {
    assert_rejected(&["--bogus"]);
}

/// A bare `--bench-json` used to write the checked-in baseline.
#[test]
fn bench_json_needs_a_path() {
    assert_rejected(&["fig1", "--bench-json"]);
}

#[test]
fn both_value_forms_are_accepted() {
    let out = repro(&["--threads=1", "--trials", "1", "fig1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("FIGURE 1"));
}

/// `scaleout` reports wall-clock per thread count and the efficiency
/// derived from it, and no event rate.
#[test]
fn scaleout_reports_one_row_per_thread_count() {
    let out = repro(&["scaleout", "--population", "12", "--shards", "2"]);
    assert!(out.status.success(), "repro scaleout failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("ev/s"), "{stdout}");
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with("| ") && !l.contains("threads"))
        .map(|l| l.split_whitespace().filter(|&c| c != "|").collect())
        .collect();
    let threads: Vec<&str> = rows.iter().map(|r| r[0]).collect();
    assert_eq!(threads, ["1", "2", "4", "8"], "{stdout}");
    assert_eq!(rows[0].last(), Some(&"1.00"), "{stdout}");
}

/// The default exhibits at debug-build size, with `--bench-json`.
/// Returns stdout and the `--bench-json` file.
fn small_run(threads: &str, json: bool) -> (String, String) {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let bench = dir.join(format!("repro-{threads}-{json}.json"));
    let bench_arg = format!("--bench-json={}", bench.display());
    let mut args = vec!["--trials", "1", "--population", "12", "--shards", "2"];
    args.extend(["--threads", threads, &bench_arg]);
    if json {
        args.push("--json");
    }
    let out = repro(&args);
    assert!(out.status.success(), "repro {args:?} failed");
    let bench = std::fs::read_to_string(&bench).expect("read --bench-json");
    (String::from_utf8(out.stdout).expect("UTF-8 stdout"), bench)
}

/// The default exhibits at one thread in table mode (`json` false) or
/// `--json` mode, run once for every test here.
fn run_once(json: bool) -> &'static (String, String) {
    static RUNS: [OnceLock<(String, String)>; 2] = [OnceLock::new(), OnceLock::new()];
    RUNS[usize::from(json)].get_or_init(|| small_run("1", json))
}

/// `--json` prints no wall-clock, so its stdout, like the tables', does
/// not depend on the thread count.
#[test]
fn json_is_identical_at_any_thread_count() {
    assert_eq!(run_once(true).0, small_run("2", true).0);
}

/// Both modes run the same exhibit functions, so every exhibit records
/// the same simulator events.
#[test]
fn json_and_table_modes_do_the_same_work() {
    let events = |bench: &str| -> Vec<String> {
        bench
            .lines()
            .filter(|l| l.contains("\"exhibit\"") || l.contains("\"events\""))
            .map(str::to_owned)
            .collect()
    };
    let table = events(&run_once(false).1);
    assert_eq!(table.len(), 18, "{table:?}");
    assert_eq!(table, events(&run_once(true).1));
}

/// Every word and number the table mode prints is one the JSON document
/// holds, or a printing of one of its numbers at up to two decimals, or
/// of a count's percentage (a `"k"` line followed by an `"n"` line).
#[test]
fn json_carries_every_printed_cell() {
    let json: Vec<&str> = run_once(true).0.lines().collect();
    let mut known = HashSet::new();
    let mut print = |x: f64| known.extend((0..3).map(|d| format!("{x:.d$}")));
    for (line, next) in json.iter().zip(json.iter().skip(1).chain([&""])) {
        let (k, n) = (value(line, "\"k\": "), value(next, "\"n\": "));
        if let (Some(k), Some(n)) = (k, n) {
            print(if n == 0.0 { 0.0 } else { k * 100.0 / n });
        }
        tokens(line)
            .filter_map(|t| t.parse().ok())
            .for_each(&mut print);
    }
    known.extend(json.iter().flat_map(|l| tokens(l)).map(str::to_owned));
    for line in run_once(false).0.lines() {
        for token in tokens(line) {
            assert!(
                known.contains(token),
                "{token:?} of {line:?} is not in the JSON"
            );
        }
    }
}

/// A line's words and numbers: split at spaces and at JSON and table
/// punctuation, without the dashes of rules and group lines.
fn tokens(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| c.is_whitespace() || "|/()\",:[]{}".contains(c))
        .filter(|t| !t.is_empty() && !t.chars().all(|c| c == '-'))
}

/// The number after `key` on a pretty-printed JSON line.
fn value(line: &str, key: &str) -> Option<f64> {
    let value = line.trim_start().strip_prefix(key)?;
    value.trim_end_matches(',').parse().ok()
}
