//! Worker-cancellation pins: no pool thread survives its connection.
//!
//! The server releases every in-flight worker (and any captured parser
//! thread) on both teardown paths — a guard-ordered GOAWAY and a
//! transport-level death. A leaked worker is a permanent capacity loss
//! for every other connection sharing the pool, so both paths are pinned
//! here.

use h2priv_core::experiment::run_paper_trial;
use h2priv_core::AttackConfig;
use h2priv_dos::{DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::SimDuration;
use h2priv_testkit::{run_trial, ScenarioConfig};
use h2priv_web::{isidewith, PoolConfig};

#[test]
fn transport_death_releases_every_worker() {
    // An unbounded total-drop window (the §IV-D "broken connection"
    // regime: 100 % drops that don't stop at the client's reset) kills
    // the TCP connection by retransmission timeout while response
    // streams are still mid-flight — their workers are held when the
    // transport dies underneath them. The teardown must hand every
    // worker back.
    let mut attack = AttackConfig::paper_attack();
    attack.drop_rate_per_mille = 1000;
    attack.drop_duration = SimDuration::from_secs(30);
    attack.stop_drops_on_reset_get = false;
    for seed in 0..3u64 {
        let trial = run_paper_trial(seed, Some(&attack), |cfg| {
            cfg.pool = Some(PoolConfig::default());
        });
        assert!(
            trial.result.broken,
            "seed {seed}: the total drop window breaks the connection"
        );
        assert!(
            trial
                .result
                .outcomes
                .iter()
                .any(|o| o.completed_at.is_none()),
            "seed {seed}: some stream must die mid-flight for the pin to bite"
        );
        assert_eq!(
            trial.result.pool_in_use, 0,
            "seed {seed}: transport death leaked pool workers"
        );
    }
}

#[test]
fn pooled_benign_run_completes_and_ends_drained() {
    // An honest page load against a pooled server: the pool is wide
    // enough that nothing parks, every request completes, and every
    // worker is back home at the end.
    let pooled = run_paper_trial(1, None, |cfg| {
        cfg.pool = Some(PoolConfig::default());
    });
    assert!(pooled
        .result
        .outcomes
        .iter()
        .all(|o| o.completed_at.is_some()));
    assert_eq!(pooled.result.pool_in_use, 0);
}

#[test]
fn guard_goaway_releases_every_worker() {
    // Guard-ordered GOAWAY against the worst hoarder: all held workers
    // and parser threads return to the pool. (`pool_in_use` counts both.)
    let iw = isidewith::build(&[0, 1, 2, 3, 4, 5, 6, 7]);
    for attack in [DosAttack::ZeroWindowHoard, DosAttack::SlowHeaders] {
        let config = ScenarioConfig {
            seed: 5,
            attacker: Some(DosConfig::for_attack(attack)),
            dos_guard: Some(GuardConfig::default()),
            dos_detector: Some(DetectorConfig::default()),
            pool: Some(PoolConfig::default()),
            deadline: SimDuration::from_secs(30),
            ..ScenarioConfig::default()
        };
        let r = run_trial(&iw.site, &iw.plan, &config, None);
        let attacker = r.attacker.expect("the client attacks");
        assert!(attacker.shed_at.is_some(), "{}: guard sheds", attack.name());
        assert_eq!(
            r.pool_in_use,
            0,
            "{}: GOAWAY teardown leaked pool threads",
            attack.name()
        );
    }
}
