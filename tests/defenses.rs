//! Cross-crate integration of the defenses: server-side padding (related
//! work's countermeasure, refs \[17\]–\[21\]) must defeat the size-map
//! predictor without breaking page delivery, while the §VII request-order
//! randomization must destroy the ranking signal but not identification.

use h2priv::attack::experiment::{
    analyze_trial, calibrate_size_map, objects_of_interest, run_paper_trial, survey_outcome,
};
use h2priv::attack::AttackConfig;
use h2priv::web::PadSet;

const BUCKET: usize = 8_192;

#[test]
fn padding_defeats_the_calibrated_size_map() {
    let (iw, _) = h2priv::attack::experiment::paper_scenario(0);
    let objects = objects_of_interest(&iw);
    let map = calibrate_size_map(&objects);
    let attack = AttackConfig::paper_attack();
    let mut html_successes = 0;
    let mut defended_total = 0;
    let mut undefended_total = 0;
    for seed in 0..3 {
        let trial = run_paper_trial(seed, Some(&attack), |cfg| {
            cfg.server.pad = Some(PadSet::from_sizes(vec![BUCKET]));
        });
        trial.result.assert_conformant();
        assert!(!trial.result.broken, "seed {seed}: padding broke the page");
        let start = trial
            .adversary
            .as_ref()
            .and_then(|a| a.analysis_start(&attack));
        let analysis = analyze_trial(&trial, &map, &objects, start);
        html_successes += usize::from(analysis.objects[0].success);
        defended_total += analysis.objects.iter().filter(|o| o.success).count();

        let baseline = run_paper_trial(seed, Some(&attack), |_| {});
        baseline.result.assert_conformant();
        let start = baseline
            .adversary
            .as_ref()
            .and_then(|a| a.analysis_start(&attack));
        let analysis = analyze_trial(&baseline, &map, &objects, start);
        undefended_total += analysis.objects.iter().filter(|o| o.success).count();
    }
    assert_eq!(
        html_successes, 0,
        "the padded HTML must not match its unpadded signature"
    );
    // Padded image bursts can still *alias* other objects' signatures when
    // a bucket multiple falls inside the match tolerance (a misattribution,
    // not a leak — the matched identity is wrong), so the per-image success
    // count drops without necessarily reaching zero.
    assert!(
        defended_total * 2 <= undefended_total,
        "defense too weak: {defended_total} vs undefended {undefended_total}"
    );
}

#[test]
fn padding_grows_delivered_bytes_to_bucket_multiples() {
    let trial = run_paper_trial(7, None, |cfg| {
        cfg.server.pad = Some(PadSet::from_sizes(vec![BUCKET]));
    });
    assert!(!trial.result.broken);
    for outcome in &trial.result.outcomes {
        assert!(!outcome.failed, "{:?} failed under padding", outcome.object);
        let body = trial.iw.site.object(outcome.object).unwrap().size as u64;
        assert!(outcome.bytes >= body, "{:?} shrank", outcome.object);
        assert_eq!(
            outcome.bytes % BUCKET as u64,
            0,
            "{:?}: {} not a bucket multiple",
            outcome.object,
            outcome.bytes
        );
    }
}

#[test]
fn padding_does_not_prevent_serialization_itself() {
    // The defense works by destroying *identifiability*, not by preventing
    // the adversary from serializing: degree-0 transmissions still occur.
    let attack = AttackConfig::paper_attack();
    let trial = run_paper_trial(1, Some(&attack), |cfg| {
        cfg.server.pad = Some(PadSet::from_sizes(vec![BUCKET]));
    });
    let serialized = trial
        .iw
        .images
        .iter()
        .filter(|&&img| trial.result.truth.min_degree_for(img) == Some(0.0))
        .count();
    assert!(
        serialized >= 4,
        "only {serialized}/8 emblems serialized under padding"
    );
}

#[test]
fn small_bucket_padding_is_cheap() {
    // The 2 KiB bucket defeats the 400-byte matching tolerance at under
    // five percent bandwidth overhead (EXPERIMENTS.md records ≈ 1.9 %).
    let (iw, _) = h2priv::attack::experiment::paper_scenario(0);
    let pad = PadSet::from_sizes(vec![2_048]);
    let raw: u64 = iw.site.total_bytes();
    let padded: u64 = iw
        .site
        .objects()
        .iter()
        .map(|o| pad.pad_to(o.size) as u64)
        .sum();
    let overhead = padded as f64 / raw as f64 - 1.0;
    assert!(
        overhead > 0.0 && overhead < 0.05,
        "overhead {:.1} % out of band",
        overhead * 100.0
    );
}

#[test]
fn order_randomization_kills_the_ranking_but_not_identification() {
    // Modeled as in examples/defense_reordering.rs: the defended page
    // requests emblems in an order independent of the displayed ranking,
    // so we score a different user's transmission order against this
    // user's golden order.
    let (iw, _) = h2priv::attack::experiment::paper_scenario(0);
    let objects = objects_of_interest(&iw);
    let map = calibrate_size_map(&objects);
    let attack = AttackConfig::paper_attack();
    let trials = 4u64;
    let mut rank_hits = 0usize;
    let mut idents = 0usize;
    for seed in 0..trials {
        let trial = run_paper_trial(seed + 50_000, Some(&attack), |_| {});
        let start = trial
            .adversary
            .as_ref()
            .and_then(|a| a.analysis_start(&attack));
        let analysis = analyze_trial(&trial, &map, &objects, start);
        // The *displayed* ranking belongs to the decoupled user `seed`.
        let golden = survey_outcome(seed);
        rank_hits += (0..8)
            .filter(|&r| analysis.predicted_parties.get(r) == golden.get(r))
            .count();
        idents += (1..9).filter(|&i| analysis.objects[i].identified).count();
    }
    let total_ranks = (trials * 8) as usize;
    // Chance level is 1/8 = 12.5 %; allow a generous band.
    assert!(
        rank_hits * 100 / total_ranks <= 40,
        "defense leaked the ranking: {rank_hits}/{total_ranks}"
    );
    // Identification is untouched — the sizes still match.
    assert!(
        idents * 100 / total_ranks >= 75,
        "identification collapsed: {idents}/{total_ranks}"
    );
}
