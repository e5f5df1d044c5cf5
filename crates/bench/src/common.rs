//! Shared experiment plumbing: trial batches and their counts.

use h2priv_core::experiment::{
    analyze_trial, calibrate_size_map_with, objects_of_interest, paper_scenario, run_paper_trial,
    AttackTrial, TrialAnalysis,
};
use h2priv_core::{AttackConfig, SizeMap};
use h2priv_defense::DefenseSpec;
use h2priv_netsim::{mbps, SimDuration};
use h2priv_testkit::ScenarioConfig;

use crate::table::Count;

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

/// The paper's escalating adversary (§IV/§V): none, 80 ms jitter, that
/// jitter plus an 800 Mbps throttle, and the full jitter × throttle ×
/// drop attack.
pub fn adversary_grid() -> [Option<AttackConfig>; 4] {
    let jitter = SimDuration::from_millis(80);
    [
        None,
        Some(AttackConfig::jitter_only(jitter)),
        Some(AttackConfig::jitter_and_throttle(jitter, mbps(800))),
        Some(AttackConfig::paper_attack()),
    ]
}

/// Calibrates the predictor's size map once (objects of interest of the
/// canonical scenario) against the undefended server.
pub fn calibrated_map() -> SizeMap {
    calibrated_map_against(DefenseSpec::None)
}

/// [`calibrated_map`] against a server running `defense`: per Kerckhoffs'
/// principle the adversary knows the deployed countermeasure.
pub fn calibrated_map_against(defense: DefenseSpec) -> SizeMap {
    let (iw, _) = paper_scenario(0);
    calibrate_size_map_with(&objects_of_interest(&iw), |cfg| cfg.defense = defense)
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
    /// Trials that meet `pred`, of all trials.
    pub fn count(&self, pred: impl Fn(&(AttackTrial, TrialAnalysis)) -> bool) -> Count {
        let k = self.trials.iter().filter(|t| pred(t)).count() as u64;
        Count::new(k, self.trials.len() as u64)
    }

    /// Trials where the HTML's degree of multiplexing reached zero.
    pub fn html_non_mux(&self) -> Count {
        self.count(|(_, a)| a.objects[0].degree == Some(0.0))
    }

    /// Trials where the HTML attack criterion held (degree 0 **and**
    /// identified).
    pub fn html_success(&self) -> Count {
        self.count(|(_, a)| a.objects[0].success)
    }

    /// Trials whose connection broke.
    pub fn broken(&self) -> Count {
        self.count(|(_, a)| a.broken)
    }

    /// Total TCP retransmissions summed over all trials.
    pub fn total_retransmissions(&self) -> u64 {
        self.trials
            .iter()
            .map(|(t, _)| t.result.total_retransmissions())
            .sum()
    }

    /// Trials where the image at display rank `rank` was predicted
    /// correctly.
    pub fn rank_correct(&self, rank: usize) -> Count {
        self.count(|(_, a)| a.rank_correct.get(rank).copied().unwrap_or(false))
    }

    /// Degrees of multiplexing of the object at `index`, one per trial
    /// that measured it.
    pub fn degrees(&self, index: usize) -> Vec<f64> {
        self.trials
            .iter()
            .filter_map(|(_, a)| a.objects[index].degree)
            .collect()
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
        let non_mux = batch.html_non_mux();
        assert_eq!(non_mux.n, 2);
        assert!(non_mux.k <= 2);
        assert!(batch.broken().k <= 2);
        assert!(batch.degrees(1).iter().all(|&d| d >= 0.0));
    }
}
