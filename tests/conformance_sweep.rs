//! Property harness for the conformance oracle: a deterministic sweep of
//! adversary schedules (request jitter × bandwidth throttle × packet
//! drops) over seeded page loads, asserting that no combination drives
//! any protocol layer out of conformance.
//!
//! This is the oracle's adversarial workout: drops force RTO and fast
//! retransmit, throttles force cwnd contraction and flow-control stalls,
//! jitter shifts every race — and TCP/TLS/HTTP/2 must hold their RFC
//! invariants through all of it. Everything derives from the trial seed,
//! so a failure here reproduces exactly.

use h2priv::attack::experiment::run_paper_trial;
use h2priv::attack::AttackConfig;
use h2priv::netsim::{mbps, SimDuration};

/// One schedule of the sweep grid.
fn schedule(
    jitter_ms: Option<u64>,
    throttle_mbps: Option<u64>,
    drop_per_mille: u16,
) -> AttackConfig {
    let mut attack = AttackConfig::paper_attack();
    attack.initial_spacing = jitter_ms.map(SimDuration::from_millis);
    attack.throttle = throttle_mbps.map(mbps);
    attack.drop_rate_per_mille = drop_per_mille;
    if drop_per_mille == 0 {
        attack.drop_duration = SimDuration::ZERO;
    }
    attack
}

#[test]
fn adversary_schedule_sweep_stays_conformant() {
    let jitters = [None, Some(30), Some(80)];
    let throttles = [None, Some(400)];
    let drops = [0u16, 400, 800];
    for &jitter in &jitters {
        for &throttle in &throttles {
            for &drop in &drops {
                let attack = schedule(jitter, throttle, drop);
                for seed in 0..2u64 {
                    let trial = run_paper_trial(seed, Some(&attack), |_| {});
                    assert!(
                        trial.result.violations_total == 0,
                        "jitter {jitter:?} throttle {throttle:?} drop {drop}‰ seed {seed}: \
                         {} violation(s), first: {}",
                        trial.result.violations_total,
                        trial
                            .result
                            .violations
                            .first()
                            .map(|v| v.to_string())
                            .unwrap_or_default()
                    );
                }
            }
        }
    }
}

#[test]
fn harsh_loss_schedule_stays_conformant() {
    // Long, heavy drop window without the reset cue: the connection lives
    // through repeated RTO backoff cycles — the regime where Karn's rule
    // and the backoff-persistence fix actually bite.
    let mut attack = schedule(Some(50), Some(200), 900);
    attack.stop_drops_on_reset_get = false;
    attack.drop_duration = SimDuration::from_secs(10);
    for seed in 0..3u64 {
        let trial = run_paper_trial(seed, Some(&attack), |_| {});
        assert!(
            trial.result.violations_total == 0,
            "seed {seed}: {} violation(s), first: {}",
            trial.result.violations_total,
            trial
                .result
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default()
        );
    }
}

#[test]
fn straddling_retransmission_seeds_stay_conformant() {
    // Unattacked page loads whose fast retransmission re-cut from snd_una
    // ran past snd_max: the bytes it carried were later re-sent as new
    // data and armed an RTT probe on bytes already on the wire.
    for seed in [(1u64 << 32) | 542, (13 << 32) | 1536] {
        run_paper_trial(seed, None, |_| {})
            .result
            .assert_conformant();
    }
}
