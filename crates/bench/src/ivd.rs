//! §IV-D — "Targeted packet drops: forcing HTTP/2 stream reset".
//!
//! Paper experiment: with jitter and throttling active, drop 80 % of
//! server→client application packets from the 6th GET onward (6 s window)
//! to force the client's `RST_STREAM`; the re-requested HTML was then
//! transmitted un-multiplexed in ≈ 90 % of 100 trials. Raising the drop
//! rate further broke the connection.
//!
//! This bench sweeps the drop rate through and past the paper's operating
//! point, reporting the reset rate, the success rate, and breakage.

use h2priv_core::AttackConfig;

use crate::common::{calibrated_map, run_batch};
use crate::table::{Column, Fmt, Layout, Report, Table};

/// The sweep: no drops, a sub-threshold rate, the paper's 80 %, and
/// aggressive rates beyond it.
pub const DROP_PCTS: [u16; 5] = [0, 40, 80, 95, 99];

/// The §IV-D empty table: a row per drop rate.
fn table() -> Table {
    Table::new(
        "SECTION IV-D: Targeted packet drops -> forced stream reset",
        Layout::Pipe,
        vec![
            Column::new("drop rate (%)", 0, Fmt::Fixed(0)),
            Column::new("client reset (%)", 0, Fmt::Fixed(0)),
            Column::new("HTML success (%)", 0, Fmt::Fixed(0)),
            Column::new("broken (%)", 0, Fmt::Fixed(0)),
        ],
    )
}

/// Regenerates the §IV-D experiment with `trials` downloads per point.
/// HTML success is the paper's ≈ 90 %: un-multiplexed and identified.
pub fn run(trials: u64) -> Report {
    let map = calibrated_map();
    let mut table = table();
    for drop in DROP_PCTS {
        let mut attack = AttackConfig::paper_attack();
        attack.drop_rate_per_mille = drop * 10;
        if drop == 0 {
            // Without drops there is no disruption window to time out:
            // the trigger degenerates to jitter + throttle only.
            attack.drop_duration = h2priv_netsim::SimDuration::ZERO;
        }
        let batch = run_batch(trials, Some(&attack), &map, |_| {});
        let reset = batch.count(|(t, _)| t.result.outcomes[5].resets_sent > 0);
        table.push(vec![
            u64::from(drop).into(),
            reset.into(),
            batch.html_success().into(),
            batch.broken().into(),
        ]);
    }
    table.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Count;

    #[test]
    fn render_contains_paper_point() {
        let mut t = table();
        let pct = |k: u64| Count::new(k, 100u64).into();
        t.push(vec![80u64.into(), pct(95), pct(90), pct(0)]);
        let expect = "SECTION IV-D: Targeted packet drops -> forced stream reset
| drop rate (%) | client reset (%) | HTML success (%) | broken (%) |
|--------------:|-----------------:|-----------------:|-----------:|
|            80 |               95 |               90 |          0 |
";
        assert_eq!(t.markdown(), expect);
    }
}
