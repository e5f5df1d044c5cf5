//! Shared experiment plumbing: trial batches and summary math.

use h2priv_core::experiment::{
    analyze_trial, calibrate_size_map, objects_of_interest, paper_scenario, run_paper_trial,
    AttackTrial, TrialAnalysis,
};
use h2priv_core::{AttackConfig, SizeMap};
use h2priv_testkit::ScenarioConfig;

/// Number of trials per experimental point — the paper's "the webpage was
/// downloaded 100 times".
pub const TRIALS: u64 = 100;

/// A reduced trial count for smoke/CI runs.
pub const QUICK_TRIALS: u64 = 25;

/// One batch of analyzed trials under a fixed condition.
#[derive(Debug)]
pub struct Batch {
    /// Per-trial (trial, analysis) pairs.
    pub trials: Vec<(AttackTrial, TrialAnalysis)>,
}

/// Calibrates the predictor's size map once (objects of interest of the
/// canonical scenario).
pub fn calibrated_map() -> SizeMap {
    let (iw, _) = paper_scenario(0);
    calibrate_size_map(&objects_of_interest(&iw))
}

/// Runs `trials` seeded trials under `attack` (None = baseline), analyzing
/// each against `map`.
///
/// Trials fan out across [`crate::runner::run_seeded`]'s workers; results
/// are collected in seed order, so every summary is bit-identical to a
/// serial run.
pub fn run_batch(
    trials: u64,
    attack: Option<&AttackConfig>,
    map: &SizeMap,
    tweak: impl Fn(&mut ScenarioConfig) + Sync,
) -> Batch {
    let out = crate::runner::run_seeded(trials, |seed| {
        let trial = paper_trial(seed, attack, &tweak);
        let start = attack.and_then(|a| {
            trial
                .adversary
                .as_ref()
                .and_then(|snap| snap.analysis_start(a))
        });
        let objects = objects_of_interest(&trial.iw);
        let analysis = analyze_trial(&trial, map, &objects, start);
        (trial, analysis)
    });
    Batch { trials: out }
}

/// Runs one paper trial under the process-wide `--check` switch and
/// records it in the run's tally. Every single-pair bench trial goes
/// through here, so one flag governs the whole run.
pub(crate) fn paper_trial(
    seed: u64,
    attack: Option<&AttackConfig>,
    tweak: impl FnOnce(&mut ScenarioConfig),
) -> AttackTrial {
    let trial = run_paper_trial(seed, attack, |cfg| {
        cfg.conformance = crate::runner::conformance_enabled();
        tweak(cfg);
    });
    let r = &trial.result;
    crate::runner::record(r.events, &r.sched, r.violations_total, &r.violations);
    trial
}

impl Batch {
    /// Fraction (percent) of trials where the HTML's degree of multiplexing
    /// reached zero.
    pub fn html_non_mux_pct(&self) -> f64 {
        self.pct(|(_, a)| a.objects[0].degree == Some(0.0))
    }

    /// Fraction (percent) of trials where the HTML attack criterion held
    /// (degree 0 **and** identified).
    pub fn html_success_pct(&self) -> f64 {
        self.pct(|(_, a)| a.objects[0].success)
    }

    /// Fraction (percent) of trials whose connection broke.
    pub fn broken_pct(&self) -> f64 {
        self.pct(|(_, a)| a.broken)
    }

    /// Total TCP retransmissions summed over all trials.
    pub fn total_retransmissions(&self) -> u64 {
        self.trials
            .iter()
            .map(|(t, _)| t.result.total_retransmissions())
            .sum()
    }

    /// Percentage of trials where the image at display rank `rank` was
    /// predicted correctly.
    pub fn rank_correct_pct(&self, rank: usize) -> f64 {
        self.pct(|(_, a)| a.rank_correct.get(rank).copied().unwrap_or(false))
    }

    /// Mean degree of multiplexing of the object at `index`, over trials
    /// where it was measured.
    pub fn mean_degree(&self, index: usize) -> f64 {
        let degrees: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|(_, a)| a.objects[index].degree)
            .collect();
        h2priv_analysis::stats::mean(&degrees)
    }

    fn pct(&self, pred: impl Fn(&(AttackTrial, TrialAnalysis)) -> bool) -> f64 {
        if self.trials.is_empty() {
            return 0.0;
        }
        self.trials.iter().filter(|t| pred(t)).count() as f64 * 100.0 / self.trials.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_summaries_work_on_a_tiny_run() {
        let map = calibrated_map();
        let batch = run_batch(2, None, &map, |_| {});
        assert_eq!(batch.trials.len(), 2);
        let pct = batch.html_non_mux_pct();
        assert!((0.0..=100.0).contains(&pct));
        assert!(batch.broken_pct() <= 100.0);
        assert!(batch.mean_degree(1) >= 0.0);
    }
}
