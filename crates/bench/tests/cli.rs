//! The `repro` command line rejects what it does not know: a mistyped
//! exhibit name or flag prints the usage line to stderr and exits 1
//! before any exhibit runs, instead of running nothing and exiting 0.

use std::process::{Command, Output};

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
