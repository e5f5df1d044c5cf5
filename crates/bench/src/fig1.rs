//! Figure 1 — the paper's opening concept: sizes of non-multiplexed
//! objects are recoverable from encrypted traffic; multiplexed ones are
//! not.
//!
//! Two objects are fetched over one connection; in case 1 the client
//! requests O₂ only after O₁ completes, in case 2 both at once (the
//! paper's two panels). The passive observer reconstructs record bursts
//! and estimates sizes; the bench reports whether the true sizes were
//! recovered.

use h2priv_analysis::{app_data_records, extract_records, segment_bursts};
use h2priv_core::experiment::BURST_GAP;
use h2priv_netsim::{Dir, SimDuration};
use h2priv_testkit::{run_trial, ScenarioConfig};
use h2priv_web::{BrowsePlan, ObjectKind, Phase, PlanStep, Trigger, Website};

use crate::json::{object, Json, ToJson};

/// Result for one request-timing case.
#[derive(Debug, Clone)]
pub struct Fig1Case {
    /// Case name (the paper's case 1 / case 2).
    pub policy: String,
    /// True object sizes.
    pub true_sizes: Vec<u64>,
    /// The observer's burst size estimates, in time order.
    pub estimated_sizes: Vec<u64>,
    /// True iff every object's size was recovered within 5 %.
    pub sizes_recovered: bool,
}

impl ToJson for Fig1Case {
    fn to_json(&self) -> Json {
        object([
            ("policy", self.policy.to_json()),
            ("true_sizes", self.true_sizes.to_json()),
            ("estimated_sizes", self.estimated_sizes.to_json()),
            ("sizes_recovered", self.sizes_recovered.to_json()),
        ])
    }
}

/// Builds the two-object site; `concurrent` decides whether O₂ is
/// requested together with O₁ (Fig. 1 case 2) or only after O₁ completes
/// (case 1).
fn scenario(concurrent: bool) -> (Website, BrowsePlan) {
    let mut site = Website::new();
    let o1 = site.add("/o1.bin", ObjectKind::Other, 40_000);
    let o2 = site.add("/o2.bin", ObjectKind::Other, 70_000);
    let first = Phase {
        trigger: Trigger::Start,
        delay: SimDuration::ZERO,
        steps: vec![PlanStep {
            object: o1,
            gap: SimDuration::ZERO,
        }],
        reissue: true,
    };
    let second = Phase {
        trigger: if concurrent {
            Trigger::Start
        } else {
            Trigger::AfterComplete(o1)
        },
        delay: if concurrent {
            SimDuration::from_micros(400)
        } else {
            SimDuration::from_millis(60)
        },
        steps: vec![PlanStep {
            object: o2,
            gap: SimDuration::ZERO,
        }],
        reissue: true,
    };
    (site, BrowsePlan::new().with_phase(first).with_phase(second))
}

/// Runs both cases.
pub fn run() -> Vec<Fig1Case> {
    [("case 1: O2 after O1", false), ("case 2: concurrent", true)]
        .into_iter()
        .map(|(label, concurrent)| {
            let (site, plan) = scenario(concurrent);
            let mut cfg = ScenarioConfig {
                seed: 7,
                conformance: crate::runner::conformance_enabled(),
                ..ScenarioConfig::default()
            };
            cfg.browser.gap_noise_frac = 0.0;
            let r = run_trial(&site, &plan, &cfg, None);
            crate::runner::record(r.events, &r.sched, r.violations_total, &r.violations);
            let records = extract_records(&r.trace);
            let data = app_data_records(&records, Dir::RightToLeft);
            let bursts = segment_bursts(&data, BURST_GAP);
            // Keep bursts that plausibly carry object data (skip the tiny
            // settings/handshake-adjacent ones).
            let estimated: Vec<u64> = bursts
                .iter()
                .filter(|b| b.plaintext_bytes > 2_000)
                .map(|b| b.plaintext_bytes)
                .collect();
            let true_sizes = vec![40_000u64, 70_000];
            let sizes_recovered = true_sizes.iter().all(|&t| {
                estimated
                    .iter()
                    .any(|&e| (e as f64 - t as f64).abs() / t as f64 <= 0.05)
            });
            Fig1Case {
                policy: label.to_owned(),
                true_sizes,
                estimated_sizes: estimated,
                sizes_recovered,
            }
        })
        .collect()
}

/// Renders both cases.
pub fn render(cases: &[Fig1Case]) -> String {
    let mut out = String::new();
    out.push_str("FIGURE 1: size recovery, non-multiplexed vs multiplexed\n");
    for c in cases {
        out.push_str(&format!(
            "  {:<12} true {:?}  observed bursts {:?}  -> sizes recovered: {}\n",
            c.policy, c.true_sizes, c.estimated_sizes, c.sizes_recovered
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_recovers_multiplexed_does_not() {
        let cases = run();
        assert_eq!(cases.len(), 2);
        assert!(
            cases[0].sizes_recovered,
            "sequential requests should expose sizes: {cases:?}"
        );
        assert!(
            !cases[1].sizes_recovered,
            "concurrent requests should hide sizes: {cases:?}"
        );
    }
}
