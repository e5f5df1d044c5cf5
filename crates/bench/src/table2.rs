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

use h2priv_core::experiment::paper_scenario;
use h2priv_core::AttackConfig;

use crate::common::{calibrated_map, paper_trial, run_batch};
use crate::json::{object, Json, ToJson};

/// One column of the regenerated Table II.
#[derive(Debug, Clone)]
pub struct Table2Column {
    /// "HTML" or "I1" … "I8".
    pub object: String,
    /// Mean gap to the previous request, ms (baseline browsing).
    pub gap_prev_ms: f64,
    /// Mean gap to the next request, ms.
    pub gap_next_ms: f64,
    /// Success when the adversary targets this object alone, percent.
    pub one_at_a_time_pct: f64,
    /// Success when the adversary recovers the whole sequence, percent
    /// (for I_k: the k-th displayed party predicted correctly; for the
    /// HTML: identified with degree 0).
    pub all_at_once_pct: f64,
}

impl ToJson for Table2Column {
    fn to_json(&self) -> Json {
        object([
            ("object", self.object.to_json()),
            ("gap_prev_ms", self.gap_prev_ms.to_json()),
            ("gap_next_ms", self.gap_next_ms.to_json()),
            ("one_at_a_time_pct", self.one_at_a_time_pct.to_json()),
            ("all_at_once_pct", self.all_at_once_pct.to_json()),
        ])
    }
}

/// Regenerates Table II with `trials` attacked downloads (plus a small
/// unattacked batch to measure the natural inter-request gaps).
pub fn run(trials: u64) -> Vec<Table2Column> {
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
    let mut gaps_prev = vec![Vec::new(); 9];
    let mut gaps_next = vec![Vec::new(); 9];
    for gaps in &per_seed {
        for &(i, prev, next) in gaps {
            if let Some(gap) = prev {
                gaps_prev[i].push(gap);
            }
            if let Some(gap) = next {
                gaps_next[i].push(gap);
            }
        }
    }

    let names: Vec<String> = std::iter::once("HTML".to_owned())
        .chain((1..=8).map(|i| format!("I{i}")))
        .collect();
    names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            // Index into analysis.objects: HTML = 0; rank-k image = the
            // party displayed at rank k-1 → objects index 1 + party.
            let (one_at_a_time, all_at_once) = if i == 0 {
                (batch.html_success_pct(), batch.html_success_pct())
            } else {
                let rank = i - 1;
                // One-at-a-time: the displayed-rank image recovered, judged
                // in isolation (its own degree + identification).
                let one = batch
                    .trials
                    .iter()
                    .filter(|(t, a)| {
                        let party = t.iw.golden_order[rank];
                        a.objects[1 + party].success
                    })
                    .count() as f64
                    * 100.0
                    / batch.trials.len().max(1) as f64;
                (one, batch.rank_correct_pct(rank))
            };
            Table2Column {
                object: name.clone(),
                gap_prev_ms: h2priv_analysis::stats::mean(&gaps_prev[i]),
                gap_next_ms: h2priv_analysis::stats::mean(&gaps_next[i]),
                one_at_a_time_pct: one_at_a_time,
                all_at_once_pct: all_at_once,
            }
        })
        .collect()
}

/// Renders the table in the paper's (transposed) layout.
pub fn render(cols: &[Table2Column]) -> String {
    let mut out = String::new();
    out.push_str("TABLE II: Prediction accuracy of the full attack\n");
    out.push_str(&format!(
        "| {:<26} |{}\n",
        "Object (O_curr)",
        cols.iter()
            .map(|c| format!(" {:>6} |", c.object))
            .collect::<String>()
    ));
    out.push_str(&format!(
        "| {:<26} |{}\n",
        "T(curr)-T(prev) (ms)",
        cols.iter()
            .map(|c| format!(" {:>6.1} |", c.gap_prev_ms))
            .collect::<String>()
    ));
    out.push_str(&format!(
        "| {:<26} |{}\n",
        "T(next)-T(curr) (ms)",
        cols.iter()
            .map(|c| format!(" {:>6.1} |", c.gap_next_ms))
            .collect::<String>()
    ));
    out.push_str(&format!(
        "| {:<26} |{}\n",
        "Success %: one at a time",
        cols.iter()
            .map(|c| format!(" {:>6.0} |", c.one_at_a_time_pct))
            .collect::<String>()
    ));
    out.push_str(&format!(
        "| {:<26} |{}\n",
        "Success %: all at once",
        cols.iter()
            .map(|c| format!(" {:>6.0} |", c.all_at_once_pct))
            .collect::<String>()
    ));
    out
}

/// Exposes the measured baseline image-degree range, for the §V narrative
/// ("the degree of multiplexing of each of these objects range from 80% to
/// 99%").
pub fn baseline_image_degrees(trials: u64) -> (f64, f64) {
    let map = calibrated_map();
    let batch = run_batch(trials, None, &map, |_| {});
    let mut lo = f64::MAX;
    let mut hi: f64 = 0.0;
    for party in 0..8 {
        let d = batch.mean_degree(1 + party);
        lo = lo.min(d);
        hi = hi.max(d);
    }
    let _ = paper_scenario(0);
    (lo * 100.0, hi * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_layout() {
        let cols = vec![Table2Column {
            object: "HTML".into(),
            gap_prev_ms: 500.0,
            gap_next_ms: 160.0,
            one_at_a_time_pct: 100.0,
            all_at_once_pct: 90.0,
        }];
        let s = render(&cols);
        assert!(s.contains("HTML"));
        assert!(s.contains("500.0"));
        assert!(s.contains("one at a time"));
    }
}
