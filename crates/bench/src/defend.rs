//! Defense frontier — the countermeasure arena vs. the adversary grid.
//!
//! Evaluates every defense in [`DefenseSpec::arena`] against the paper's
//! escalating adversary (nothing → jitter → jitter+throttle → the full §V
//! jitter×throttle×drop attack) and reports, per cell, what the attacker
//! still recovers and what the defense costs:
//!
//! * **seq %** — full victim recovery (all 8 display ranks correct): the
//!   paper's headline privacy loss;
//! * **HTML %** — the §V success criterion on the HTML (degree 0 and
//!   identified);
//! * **ident %** — emblem images matched by size at all;
//! * **+bytes %** — response-direction wire overhead vs. the undefended
//!   run under the same adversary (padding, dummy records, retransmits);
//! * **+load %** — page-load-time overhead vs. the undefended run under
//!   the same adversary (pacing holds, serialization of padded bytes).
//!
//! Per Kerckhoffs' principle the adversary knows the deployed defense and
//! calibrates its size map against the *defended* server
//! ([`calibrated_map_against`]); a defense only scores if it survives an
//! adversary that adapted to it.

use h2priv_analysis::stats::mean;
use h2priv_defense::DefenseSpec;
use h2priv_netsim::Dir;

use crate::common::{adversary_grid, calibrated_map_against, run_batch, Batch};
use crate::table::{Cell, Column, Count, Fmt, Layout, Report, Table};

/// Labels of [`adversary_grid`]'s cells.
const ADVERSARIES: [&str; 4] = [
    "no attack",
    "jitter 80ms",
    "jitter+throttle",
    "full SV attack",
];

/// Emblem images identified by size matching, of all trials' images.
fn ident(batch: &Batch) -> Count {
    let per_trial = batch.trials.iter().map(|(_, a)| {
        let identified = (1..9).filter(|&i| a.objects[i].identified);
        identified.count() as u64
    });
    Count::new(per_trial.sum::<u64>(), batch.trials.len() as u64 * 8)
}

/// Per trial: response-direction wire bytes, the page load time (ms,
/// when the load finished) and the dummy records sealed.
fn costs(batch: &Batch) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let trials = batch.trials.iter().map(|(t, _)| &t.result);
    let bytes = trials
        .clone()
        .map(|r| r.trace.bytes_in_dir(Dir::RightToLeft) as f64);
    let loads = trials.clone().filter_map(|r| {
        let done = r.outcomes.iter().filter_map(|o| o.completed_at).max();
        done.map(|t| t.as_nanos() as f64 / 1e6)
    });
    let dummies = trials.map(|r| r.defense_dummies as f64);
    (bytes.collect(), loads.collect(), dummies.collect())
}

fn overhead_pct(defended: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    (defended / baseline - 1.0) * 100.0
}

/// One adversary's empty table: a row per defense.
fn table(adversary: &str) -> Table {
    Table::new(
        format!("adversary: {adversary}"),
        Layout::Indented { header: true },
        vec![
            Column::new("defense", 20, Fmt::Left),
            Column::new("seq%", 6, Fmt::Fixed(0)),
            Column::new("HTML%", 6, Fmt::Fixed(0)),
            Column::new("ident%", 7, Fmt::Fixed(1)),
            Column::new("+bytes%", 8, Fmt::Fixed(1)),
            Column::new("+load%", 8, Fmt::Fixed(1)),
            Column::new("dummies", 9, Fmt::Fixed(1)),
            Column::new("broken%", 7, Fmt::Fixed(0)),
        ],
    )
}

/// Runs the frontier for a defense set: `repro defend` runs the whole
/// [`DefenseSpec::arena`], and `--defense <name>` runs `[none, <name>]`
/// so overheads keep their baseline. Overheads are relative to the
/// undefended row under the same adversary, so `none` comes first.
pub fn run(trials: u64, defenses: &[DefenseSpec]) -> Report {
    let mut tables = ADVERSARIES.map(table);
    // The undefended wire bytes and load time per adversary.
    let mut baselines = [(0.0, 0.0); 4];
    for &defense in defenses {
        // Kerckhoffs: the adversary calibrates against the defended server.
        let map = calibrated_map_against(defense);
        for (i, attack) in adversary_grid().iter().enumerate() {
            let batch = run_batch(trials, attack.as_ref(), &map, |cfg| {
                cfg.defense = defense;
            });
            let (bytes, loads, dummies) = costs(&batch);
            let (bytes, load) = (mean(&bytes), mean(&loads));
            if defense == DefenseSpec::None {
                baselines[i] = (bytes, load);
            }
            tables[i].push(vec![
                defense.name().into(),
                batch.count(|(_, a)| a.full_sequence_correct).into(),
                batch.html_success().into(),
                ident(&batch).into(),
                overhead_pct(bytes, baselines[i].0).into(),
                overhead_pct(load, baselines[i].1).into(),
                Cell::mean(&dummies),
                batch.broken().into(),
            ]);
        }
    }
    Report {
        head: vec![
            "DEFENSE FRONTIER: countermeasure arena vs. the serialization attack".to_owned(),
            "(seq % = full victim recovery; overheads vs. undefended under the same adversary)"
                .to_owned(),
        ],
        tables: tables.to_vec(),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_groups_by_adversary() {
        let mut t = table(ADVERSARIES[0]);
        let pct = |k: u64| Count::new(k, 100u64).into();
        let none = vec![0.0];
        t.push(vec![
            "none".into(),
            pct(0),
            pct(16),
            Count::new(0u64, 800u64).into(),
            0.0.into(),
            0.0.into(),
            Cell::mean(&none),
            pct(0),
        ]);
        t.push(vec![
            "constrained-padding".into(),
            pct(0),
            pct(0),
            Count::new(200u64, 800u64).into(),
            10.0.into(),
            5.6.into(),
            Cell::mean(&none),
            pct(0),
        ]);
        let expect = "-- adversary: no attack
   defense                seq%  HTML%  ident%  +bytes%   +load%   dummies broken%
   none                      0     16     0.0      0.0      0.0       0.0       0
   constrained-padding       0      0    25.0     10.0      5.6       0.0       0
";
        assert_eq!(t.markdown(), expect);
    }

    #[test]
    fn overhead_pct_guards_zero_baseline() {
        assert_eq!(overhead_pct(5.0, 0.0), 0.0);
        assert!((overhead_pct(110.0, 100.0) - 10.0).abs() < 1e-9);
    }
}
