//! Ablations of the design choices DESIGN.md §6 calls out, plus the §IV-A
//! uniform-delay control and the §VII defense sketch.

use h2priv_core::experiment::{analyze_trial, objects_of_interest, survey_outcome};
use h2priv_core::AttackConfig;
use h2priv_http2::SendPolicy;
use h2priv_netsim::SimDuration;
use h2priv_web::PadSet;

use crate::common::{calibrated_map, paper_trial, run_batch};
use crate::json::{object, Json, ToJson};

/// One ablation outcome.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What was varied.
    pub name: String,
    /// Condition label.
    pub condition: String,
    /// Headline metric (meaning depends on the ablation).
    pub metric: f64,
    /// What the metric is.
    pub metric_name: String,
}

impl ToJson for AblationRow {
    fn to_json(&self) -> Json {
        object([
            ("name", self.name.to_json()),
            ("condition", self.condition.to_json()),
            ("metric", self.metric.to_json()),
            ("metric_name", self.metric_name.to_json()),
        ])
    }
}

/// §IV-A: uniform delay on every packet "cannot increase the inter-arrival
/// time between two successive packets" — the HTML's multiplexing must not
/// move.
pub fn uniform_delay(trials: u64) -> Vec<AblationRow> {
    let map = calibrated_map();
    [0u64, 50, 100]
        .into_iter()
        .map(|extra_ms| {
            let batch = run_batch(trials, None, &map, |cfg| {
                cfg.client_link.delay += SimDuration::from_millis(extra_ms);
            });
            AblationRow {
                name: "uniform-delay".into(),
                condition: format!("+{extra_ms} ms on every packet"),
                metric: batch.html_non_mux_pct(),
                metric_name: "HTML non-multiplexed %".into(),
            }
        })
        .collect()
}

/// DESIGN.md §6.1: the mux policy is the source of multiplexing. Baseline
/// HTML degree under each server scheduler.
pub fn scheduler_policy(trials: u64) -> Vec<AblationRow> {
    let map = calibrated_map();
    [
        ("round-robin", SendPolicy::RoundRobin),
        ("sequential", SendPolicy::Sequential),
        ("random-order", SendPolicy::RandomOrder { seed: 11 }),
    ]
    .into_iter()
    .map(|(label, policy)| {
        let batch = run_batch(trials, None, &map, |cfg| {
            cfg.server_h2.send_policy = policy;
        });
        AblationRow {
            name: "server-scheduler".into(),
            condition: label.into(),
            metric: batch.mean_degree(0) * 100.0,
            metric_name: "mean HTML degree of multiplexing %".into(),
        }
    })
    .collect()
}

/// DESIGN.md §6.2: the browser's reset-and-re-request behaviour is what the
/// §IV-D phase exploits. With re-issue disabled the full attack loses the
/// clean re-serve of the HTML.
pub fn reissue_behaviour(trials: u64) -> Vec<AblationRow> {
    let map = calibrated_map();
    let attack = AttackConfig::paper_attack();
    [true, false]
        .into_iter()
        .map(|reissue| {
            let batch = run_batch(trials, Some(&attack), &map, |cfg| {
                cfg.browser.reissue_on_stall = reissue;
            });
            AblationRow {
                name: "browser-reissue".into(),
                condition: if reissue {
                    "reissue on stall (Firefox-like)".into()
                } else {
                    "abandon on stall".into()
                },
                metric: batch.html_success_pct(),
                metric_name: "HTML attack success %".into(),
            }
        })
        .collect()
}

/// §VII defense sketch: "the client can opt for a different priority/order
/// of object delivery every time". The images are requested in a random
/// order decoupled from the user's preference; the attack still recovers
/// *sizes* (identities), but the transmission order no longer reveals the
/// displayed ranking.
pub fn order_randomization_defense(trials: u64) -> Vec<AblationRow> {
    let map = calibrated_map();
    let attack = AttackConfig::paper_attack();
    let mut rows = Vec::new();
    for (label, defended) in [("undefended", false), ("randomized order", true)] {
        let per_seed = crate::runner::run_seeded(trials, |seed| {
            // Defense: shift the seed used for the *request order* so it no
            // longer matches the golden (displayed) order.
            let trial = if defended {
                // The displayed order is golden(seed); the requested order is
                // an unrelated permutation. We model it by running the plan
                // of a different user and scoring against this user's golden.
                paper_trial(seed.wrapping_add(10_000), Some(&attack), |_| {})
            } else {
                paper_trial(seed, Some(&attack), |_| {})
            };
            let start = trial
                .adversary
                .as_ref()
                .and_then(|a| a.analysis_start(&attack));
            let objects = objects_of_interest(&trial.iw);
            let analysis = analyze_trial(&trial, &map, &objects, start);
            // Score the *order* against the original user's golden order.
            let golden = if defended {
                // The user whose page this "really" was.
                survey_outcome(seed)
            } else {
                trial.iw.golden_order.clone()
            };
            let rank_hits = (0..8)
                .filter(|&rank| {
                    analysis.predicted_parties.get(rank).copied() == golden.get(rank).copied()
                })
                .count() as u64;
            let ident_hits = (1..9).filter(|&i| analysis.objects[i].identified).count() as u64;
            (rank_hits, ident_hits)
        });
        let rank_hits: u64 = per_seed.iter().map(|&(r, _)| r).sum();
        let ident_hits: u64 = per_seed.iter().map(|&(_, i)| i).sum();
        let rank_total = trials * 8;
        rows.push(AblationRow {
            name: "order-randomization-defense".into(),
            condition: format!("{label}: order accuracy"),
            metric: rank_hits as f64 * 100.0 / rank_total.max(1) as f64,
            metric_name: "display-rank prediction %".into(),
        });
        rows.push(AblationRow {
            name: "order-randomization-defense".into(),
            condition: format!("{label}: identification"),
            metric: ident_hits as f64 * 100.0 / (trials * 8).max(1) as f64,
            metric_name: "image identification %".into(),
        });
    }
    rows
}

/// Size-padding defense (the classic countermeasure the paper's related
/// work proposes, refs \[17\]–\[21\]): the server pads every body to a bucket
/// multiple. Measures attack success and the bandwidth overhead.
pub fn padding_defense(trials: u64) -> Vec<AblationRow> {
    let map = calibrated_map();
    let attack = AttackConfig::paper_attack();
    let mut rows = Vec::new();
    for bucket in [None, Some(2_048usize), Some(8_192)] {
        let pad = bucket.map(|b| PadSet::from_sizes(vec![b]));
        let batch = run_batch(trials, Some(&attack), &map, |cfg| {
            cfg.server.pad = pad.clone();
        });
        let label = match bucket {
            None => "no padding".to_owned(),
            Some(b) => format!("pad to {} KiB buckets", b / 1024),
        };
        rows.push(AblationRow {
            name: "padding-defense".into(),
            condition: format!("{label}: attack success"),
            metric: batch.html_success_pct(),
            metric_name: "HTML attack success %".into(),
        });
        // Bandwidth overhead of the padding, from the site model.
        let (iw, _) = h2priv_core::experiment::paper_scenario(0);
        let raw: u64 = iw.site.total_bytes();
        let padded: u64 = iw
            .site
            .objects()
            .iter()
            .map(|o| pad.as_ref().map_or(o.size, |p| p.pad_to(o.size)) as u64)
            .sum();
        rows.push(AblationRow {
            name: "padding-defense".into(),
            condition: format!("{label}: bandwidth overhead"),
            metric: (padded as f64 / raw as f64 - 1.0) * 100.0,
            metric_name: "extra bytes %".into(),
        });
    }
    rows
}

/// The §VII "partly multiplexed" extension: pairwise burst decomposition
/// recovers identities from merged two-object bursts that single matching
/// misses. Evaluated on the jitter-only adversary (no forced reset), whose
/// imperfect serialization leaves many merged bursts.
pub fn pairwise_decomposition(trials: u64) -> Vec<AblationRow> {
    use h2priv_analysis::{app_data_records, extract_records, segment_bursts};
    use h2priv_core::experiment::BURST_GAP;
    use h2priv_core::{identify_bursts, identify_bursts_with_pairs};
    let map = calibrated_map();
    let attack = AttackConfig::jitter_only(SimDuration::from_millis(50));
    let total = trials * 9;
    let per_seed = crate::runner::run_seeded(trials, |seed| {
        let trial = paper_trial(seed, Some(&attack), |_| {});
        let records = extract_records(&trial.result.trace);
        let data = app_data_records(&records, h2priv_netsim::Dir::RightToLeft);
        let bursts = segment_bursts(&data, BURST_GAP);
        let objects = objects_of_interest(&trial.iw);
        let singles = identify_bursts(&map, &bursts);
        let pairs = identify_bursts_with_pairs(&map, &bursts);
        let single_hits = objects
            .iter()
            .filter(|&&o| singles.iter().any(|i| i.object == o))
            .count() as u64;
        let pair_hits = objects
            .iter()
            .filter(|&&o| pairs.iter().any(|i| i.object == o))
            .count() as u64;
        (single_hits, pair_hits)
    });
    let single_hits: u64 = per_seed.iter().map(|&(s, _)| s).sum();
    let pair_hits: u64 = per_seed.iter().map(|&(_, p)| p).sum();
    vec![
        AblationRow {
            name: "pairwise-decomposition".into(),
            condition: "single-size matching".into(),
            metric: single_hits as f64 * 100.0 / total.max(1) as f64,
            metric_name: "objects identified % (jitter-only attack)".into(),
        },
        AblationRow {
            name: "pairwise-decomposition".into(),
            condition: "with two-object sums".into(),
            metric: pair_hits as f64 * 100.0 / total.max(1) as f64,
            metric_name: "objects identified % (jitter-only attack)".into(),
        },
    ]
}

/// Runs every ablation.
pub fn run(trials: u64) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    rows.extend(uniform_delay(trials));
    rows.extend(scheduler_policy(trials));
    rows.extend(reissue_behaviour(trials));
    rows.extend(order_randomization_defense(trials));
    rows.extend(padding_defense(trials));
    rows.extend(pairwise_decomposition(trials));
    rows
}

/// Renders the ablation rows.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str("ABLATIONS\n");
    let mut last = String::new();
    for r in rows {
        if r.name != last {
            out.push_str(&format!("-- {}\n", r.name));
            last = r.name.clone();
        }
        out.push_str(&format!(
            "   {:<42} {:>7.1}  ({})\n",
            r.condition, r.metric, r.metric_name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_groups_by_name() {
        let rows = vec![
            AblationRow {
                name: "a".into(),
                condition: "x".into(),
                metric: 1.0,
                metric_name: "m".into(),
            },
            AblationRow {
                name: "a".into(),
                condition: "y".into(),
                metric: 2.0,
                metric_name: "m".into(),
            },
        ];
        let s = render(&rows);
        assert_eq!(s.matches("-- a").count(), 1);
    }
}
