//! The paper's §VII defense sketch, evaluated: "the client can opt for a
//! different priority/order of object delivery every time, thereby
//! confusing the adversary."
//!
//! The defense decouples the *request order* of the emblem images from the
//! user's preference order. The attack still recovers every image's
//! identity (sizes don't lie), but the transmission order now carries no
//! information about the displayed ranking.
//!
//! ```text
//! cargo run --release --example defense_reordering -- [trials]
//! ```

use h2priv::attack::experiment::{
    analyze_trial, calibrate_size_map, objects_of_interest, run_paper_trial, survey_outcome,
};
use h2priv::attack::AttackConfig;

fn main() {
    let trials: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);

    let (iw, _) = h2priv::attack::experiment::paper_scenario(0);
    let objects = objects_of_interest(&iw);
    let map = calibrate_size_map(&objects);
    let attack = AttackConfig::paper_attack();

    for (label, defended) in [("undefended", false), ("randomized request order", true)] {
        let mut order_hits = 0u64;
        let mut ident_hits = 0u64;
        for seed in 0..trials {
            // Under the defense the page requests images in an order drawn
            // independently of the user's preference; we model it by
            // running an unrelated user's request order and scoring
            // against this user's true (displayed) preference.
            let trial = if defended {
                run_paper_trial(seed + 50_000, Some(&attack), |_| {})
            } else {
                run_paper_trial(seed, Some(&attack), |_| {})
            };
            let start = trial
                .adversary
                .as_ref()
                .and_then(|a| a.analysis_start(&attack));
            let analysis = analyze_trial(&trial, &map, &objects, start);
            let golden = if defended {
                survey_outcome(seed)
            } else {
                trial.iw.golden_order.clone()
            };
            order_hits += (0..8)
                .filter(|&r| analysis.predicted_parties.get(r) == golden.get(r))
                .count() as u64;
            ident_hits += (1..9).filter(|&i| analysis.objects[i].identified).count() as u64;
        }
        let denom = (trials * 8) as f64;
        println!("{label}:");
        println!(
            "  image identities recovered: {:>5.1} %",
            ident_hits as f64 * 100.0 / denom
        );
        println!(
            "  display ranking recovered:  {:>5.1} %   (chance = 12.5 %)",
            order_hits as f64 * 100.0 / denom
        );
    }
    println!("\n(the defense hides the *order*, not the *identities* — and for a");
    println!(" fixed-content page like this one the order was the secret)");
}
