//! Figure 1 — the paper's opening concept: sizes of non-multiplexed
//! objects are recoverable from encrypted traffic; multiplexed ones are
//! not.
//!
//! Two objects are fetched over one connection; in case 1 the client
//! requests O₂ only after O₁ completes, in case 2 both at once (the
//! paper's two panels). The passive observer reconstructs record bursts
//! and estimates sizes; the bench reports whether the true sizes were
//! recovered.

use h2priv_analysis::{app_data_records, segment_bursts};
use h2priv_core::experiment::BURST_GAP;
use h2priv_netsim::{Dir, SimDuration};
use h2priv_testkit::{run_trial, ScenarioConfig};
use h2priv_web::{BrowsePlan, ObjectKind, Phase, PlanStep, Trigger, Website};

use crate::table::Report;

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

/// Runs both cases: one sentence each under the heading.
pub fn run() -> Report {
    let mut head = vec!["FIGURE 1: size recovery, non-multiplexed vs multiplexed".to_owned()];
    for (label, concurrent) in [("case 1: O2 after O1", false), ("case 2: concurrent", true)] {
        let (site, plan) = scenario(concurrent);
        let mut cfg = ScenarioConfig {
            seed: 7,
            conformance: crate::runner::conformance_enabled(),
            ..ScenarioConfig::default()
        };
        cfg.browser.gap_noise_frac = 0.0;
        let r = run_trial(&site, &plan, &cfg, None);
        crate::runner::record(r.events, &r.sched, r.violations_total, &r.violations);
        let data = app_data_records(r.trace.records(), Dir::RightToLeft);
        let bursts = segment_bursts(&data, BURST_GAP);
        // Keep bursts that plausibly carry object data (skip the tiny
        // settings/handshake-adjacent ones).
        let estimated: Vec<u64> = bursts
            .iter()
            .filter(|b| b.plaintext_bytes > 2_000)
            .map(|b| b.plaintext_bytes)
            .collect();
        let true_sizes = [40_000u64, 70_000];
        let sizes_recovered = true_sizes.iter().all(|&t| {
            estimated
                .iter()
                .any(|&e| (e as f64 - t as f64).abs() / t as f64 <= 0.05)
        });
        head.push(format!(
            "  {label:<12} true {true_sizes:?}  observed bursts {estimated:?}  -> sizes recovered: {sizes_recovered}"
        ));
    }
    Report {
        head,
        ..Report::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_recovers_multiplexed_does_not() {
        let head = run().head;
        assert_eq!(head.len(), 3);
        assert!(
            head[1].ends_with("sizes recovered: true"),
            "sequential requests should expose sizes: {head:?}"
        );
        assert!(
            head[2].ends_with("sizes recovered: false"),
            "concurrent requests should hide sizes: {head:?}"
        );
    }
}
