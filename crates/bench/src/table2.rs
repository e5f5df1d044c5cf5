//! Table II — "Prediction Accuracy" of the full §V attack.
//!
//! Paper columns, per object of interest (HTML + emblem images I₁…I₈ in
//! display order):
//!
//! * `T(Req O_curr) − T(Req O_prev)` and `… O_next − O_curr` — the client's
//!   inter-request gaps (measured under no attack);
//! * success % targeting one object at a time — 100 everywhere;
//! * success % targeting all objects at once — 90, 90, 85, 81, 80, 62, 64,
//!   78, 64.

use h2priv_core::AttackConfig;

use crate::common::{calibrated_map, paper_trial, run_batch};
use crate::table::{Cell, Column, Count, Fmt, Layout, Report, Table};

/// Table II's empty table: a column per object of interest.
fn table() -> Table {
    Table::new(
        "TABLE II: Prediction accuracy of the full attack",
        Layout::Transposed(26),
        vec![
            Column::new("Object (O_curr)", 6, Fmt::Fixed(0)),
            Column::new("T(curr)-T(prev) (ms)", 6, Fmt::Fixed(1)),
            Column::new("T(next)-T(curr) (ms)", 6, Fmt::Fixed(1)),
            Column::new("Success %: one at a time", 6, Fmt::Fixed(0)),
            Column::new("Success %: all at once", 6, Fmt::Fixed(0)),
        ],
    )
}

/// Regenerates Table II with `trials` attacked downloads, plus a small
/// unattacked batch to measure the natural inter-request gaps and a
/// baseline batch for the emblem images' degree of multiplexing.
///
/// Per object: the mean gaps to the previous and next request (baseline
/// browsing); success when the adversary targets this object alone; and
/// success when it recovers the whole sequence (for I_k: the k-th
/// displayed party predicted correctly; for the HTML: identified with
/// degree 0).
pub fn run(trials: u64) -> Report {
    let map = calibrated_map();
    let attack = AttackConfig::paper_attack();
    let batch = run_batch(trials, Some(&attack), &map, |_| {});

    // Natural gaps from a few unattacked loads: positions of the HTML and
    // the rank-k image requests within the issue sequence.
    let gap_trials = 10.min(trials).max(1);
    let per_seed = crate::runner::run_seeded(gap_trials, |seed| {
        let trial = paper_trial(seed, None, |_| {});
        // Issue times in plan order.
        let mut times: Vec<(u64, h2priv_web::ObjectId)> = trial
            .result
            .outcomes
            .iter()
            .filter_map(|o| o.issued_at.first().map(|t| (t.as_nanos(), o.object)))
            .collect();
        times.sort_unstable();
        let pos_of = |obj| times.iter().position(|&(_, o)| o == obj);
        let mut targets = vec![trial.iw.html];
        targets.extend(trial.iw.golden_order.iter().map(|&p| trial.iw.images[p]));
        targets
            .iter()
            .enumerate()
            .filter_map(|(i, &obj)| {
                pos_of(obj).map(|pos| {
                    let prev = (pos > 0).then(|| (times[pos].0 - times[pos - 1].0) as f64 / 1e6);
                    let next = (pos + 1 < times.len())
                        .then(|| (times[pos + 1].0 - times[pos].0) as f64 / 1e6);
                    (i, prev, next)
                })
            })
            .collect::<Vec<_>>()
    });
    let (mut gaps_prev, mut gaps_next) = (vec![Vec::new(); 9], vec![Vec::new(); 9]);
    for &(i, prev, next) in per_seed.iter().flatten() {
        gaps_prev[i].extend(prev);
        gaps_next[i].extend(next);
    }

    let mut table = table();
    for i in 0..9 {
        // Index into analysis.objects: HTML = 0; rank-k image = the
        // party displayed at rank k-1 → objects index 1 + party.
        let (name, one_at_a_time, all_at_once): (Cell, Count, Count) = if i == 0 {
            ("HTML".into(), batch.html_success(), batch.html_success())
        } else {
            let rank = i - 1;
            // One-at-a-time: the displayed-rank image recovered, judged
            // in isolation (its own degree + identification).
            let one = batch.count(|(t, a)| a.objects[1 + t.iw.golden_order[rank]].success);
            (format!("I{i}").into(), one, batch.rank_correct(rank))
        };
        table.push(vec![
            name,
            Cell::mean(&gaps_prev[i]),
            Cell::mean(&gaps_next[i]),
            one_at_a_time.into(),
            all_at_once.into(),
        ]);
    }
    let (lo, hi) = baseline_image_degrees(trials.min(30));
    Report {
        notes: vec![format!(
            "(baseline degree of multiplexing of the emblem images: {lo:.0}%–{hi:.0}%)"
        )],
        ..table.into()
    }
}

/// The measured baseline image-degree range, for the §V narrative ("the
/// degree of multiplexing of each of these objects range from 80% to
/// 99%").
fn baseline_image_degrees(trials: u64) -> (f64, f64) {
    let map = calibrated_map();
    let batch = run_batch(trials, None, &map, |_| {});
    let mut lo = f64::MAX;
    let mut hi: f64 = 0.0;
    for party in 0..8 {
        let d = h2priv_analysis::stats::mean(&batch.degrees(1 + party));
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo * 100.0, hi * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_layout() {
        let mut t = table();
        let pct = |k: u64| Count::new(k, 100u64).into();
        let html = "HTML".into();
        t.push(vec![html, 500.0.into(), 160.0.into(), pct(100), pct(90)]);
        let expect = "TABLE II: Prediction accuracy of the full attack
| Object (O_curr)            |   HTML |
| T(curr)-T(prev) (ms)       |  500.0 |
| T(next)-T(curr) (ms)       |  160.0 |
| Success %: one at a time   |    100 |
| Success %: all at once     |     90 |
";
        assert_eq!(t.markdown(), expect);
    }
}
