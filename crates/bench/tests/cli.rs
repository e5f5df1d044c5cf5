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
