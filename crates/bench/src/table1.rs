//! Table I — "Effect of jitter on HTTP/2 multiplexing".
//!
//! Paper values (100 downloads per row, object of interest = the 9 500 B
//! result HTML, the session's 6th GET):
//!
//! | jitter (ms) | not multiplexed (%) | retransmission increase (%) |
//! |------------:|--------------------:|----------------------------:|
//! | 0 (baseline)| 32                  | 0 (baseline)                |
//! | 25          | 46                  | ≈ 33                        |
//! | 50          | 54                  | ≈ 130                       |
//! | 100         | 54                  | ≈ 194                       |
//!
//! Shape targets: the non-multiplexed fraction rises from ≈ 32 % and
//! saturates (the extra request retransmissions re-introduce traffic around
//! the object), while retransmissions grow steeply with the per-request
//! delay.

use h2priv_core::AttackConfig;
use h2priv_netsim::SimDuration;

use crate::common::{calibrated_map, run_batch};
use crate::table::{Cell, Column, Fmt, Layout, Report, Table};

/// The jitter values of Table I.
pub const JITTERS_MS: [u64; 4] = [0, 25, 50, 100];

/// Table I's empty table: a row per jitter value.
fn table() -> Table {
    Table::new(
        "TABLE I: Effect of jitter on HTTP/2 multiplexing",
        Layout::Pipe,
        vec![
            Column::new("jitter/request (ms)", 0, Fmt::Fixed(0)),
            Column::new("HTML not multiplexed (%)", 0, Fmt::Fixed(0)),
            Column::new("retransmission increase (%)", 0, Fmt::Fixed(0)),
        ],
    )
}

/// Regenerates Table I with `trials` downloads per row.
pub fn run(trials: u64) -> Report {
    let map = calibrated_map();
    let mut table = table();
    let mut baseline_rexmit = 0u64;
    for &jitter_ms in &JITTERS_MS {
        let attack = if jitter_ms == 0 {
            None
        } else {
            Some(AttackConfig::jitter_only(SimDuration::from_millis(
                jitter_ms,
            )))
        };
        let batch = run_batch(trials, attack.as_ref(), &map, |_| {});
        let rexmit = batch.total_retransmissions();
        let jitter = if jitter_ms == 0 {
            baseline_rexmit = rexmit.max(1);
            Cell::from("0 (baseline)")
        } else {
            jitter_ms.into()
        };
        table.push(vec![
            jitter,
            batch.html_non_mux().into(),
            ((rexmit as f64 / baseline_rexmit as f64 - 1.0) * 100.0).into(),
        ]);
    }
    table.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Count;

    #[test]
    fn render_has_all_rows() {
        let mut t = table();
        let pct = |k: u64| Count::new(k, 100u64).into();
        t.push(vec!["0 (baseline)".into(), pct(32), 0.0.into()]);
        t.push(vec![50u64.into(), pct(54), 130.0.into()]);
        let expect = "TABLE I: Effect of jitter on HTTP/2 multiplexing
| jitter/request (ms) | HTML not multiplexed (%) | retransmission increase (%) |
|--------------------:|-------------------------:|----------------------------:|
|        0 (baseline) |                       32 |                           0 |
|                  50 |                       54 |                         130 |
";
        assert_eq!(t.markdown(), expect);
    }
}
