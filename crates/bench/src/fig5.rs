//! Figure 5 — "Effect of bandwidth limitation on multiplexing of objects".
//!
//! Paper setup: 50 ms jitter plus a symmetric bandwidth cap at the gateway,
//! swept over {1000, 800, 500, 100, 1} Mbps, 100 downloads each. Reported
//! shape: the number of retransmissions falls as the cap tightens (solid
//! line); the success fraction first rises sharply (peaking at 800 Mbps)
//! and then declines at lower bandwidths; below 1 Mbps the connection
//! breaks.
//!
//! Topology note (see `EXPERIMENTS.md`): the crossover sits at the path's
//! native bottleneck. The paper's testbed bottlenecked near its 1 Gbps lab
//! link, so the peak appeared at 800 Mbps; our calibrated path bottlenecks
//! at the 16 Mbps WAN hop, so caps above that are no-ops and the
//! interesting region is below. We sweep additional sub-bottleneck points
//! to expose the same rise-then-fall shape.

use h2priv_core::AttackConfig;
use h2priv_netsim::{mbps, SimDuration};

use crate::common::{calibrated_map, run_batch};
use crate::table::{Column, Count, Fmt, Layout, Report, Table};

/// The paper's sweep, extended with sub-bottleneck points where our
/// calibrated path actually reacts.
pub const BANDWIDTHS_MBPS: [u64; 8] = [1000, 800, 500, 100, 14, 8, 4, 1];

/// Regenerates Figure 5 with `trials` downloads per point: the data
/// series as a table, then as an ASCII plot.
pub fn run(trials: u64) -> Report {
    let map = calibrated_map();
    let mut table = Table::new(
        "FIGURE 5: Effect of bandwidth limitation (50 ms jitter active)",
        Layout::Pipe,
        vec![
            Column::new("bandwidth (Mbps)", 0, Fmt::Fixed(0)),
            Column::new("retransmissions", 0, Fmt::Fixed(0)),
            Column::new("success (%)", 0, Fmt::Fixed(0)),
            Column::new("broken (%)", 0, Fmt::Fixed(0)),
        ],
    );
    let mut points = Vec::new();
    for bw in BANDWIDTHS_MBPS {
        let attack = AttackConfig::jitter_and_throttle(SimDuration::from_millis(50), mbps(bw));
        let batch = run_batch(trials, Some(&attack), &map, |_| {});
        // The dashed line: trials where the HTML was recovered
        // un-multiplexed.
        let point = (bw, batch.total_retransmissions(), batch.html_non_mux());
        table.push(vec![
            bw.into(),
            point.1.into(),
            point.2.into(),
            batch.broken().into(),
        ]);
        points.push(point);
    }
    Report {
        notes: bar_plot(&points),
        ..table.into()
    }
}

/// Retransmissions (the solid line) and success (the dashed line) per
/// `(bandwidth, retransmissions, success)` point, as bars.
fn bar_plot(points: &[(u64, u64, Count)]) -> Vec<String> {
    let max_rexmit = points.iter().map(|p| p.1).max().unwrap_or(1);
    let mut lines = vec!["retransmissions (#) and success (%) by bandwidth:".to_owned()];
    for &(bw, rexmit, success) in points {
        let bar_r = (rexmit * 30 / max_rexmit.max(1)) as usize;
        let bar_s = (success.pct() * 0.3) as usize;
        lines.push(format!(
            "{:>5} Mbps  rexmit {:<31} success {:<31}",
            bw,
            "#".repeat(bar_r.max(if rexmit > 0 { 1 } else { 0 })),
            "*".repeat(bar_s),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_scales_bars() {
        let lines = bar_plot(&[
            (1000, 300, Count { k: 40, n: 100 }),
            (1, 30, Count { k: 5, n: 100 }),
        ]);
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with(
            " 1000 Mbps  rexmit ##############################  success ************ "
        ));
        assert!(lines[2].starts_with("    1 Mbps  rexmit ###    "));
    }
}
