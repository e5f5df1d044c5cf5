//! False-positive pins: the monitoring stack armed on honest traffic.
//!
//! The guard and detector only earn their place if benign runs — every
//! condition the paper's exhibits measure, including the §V serialization
//! attack on an *honest* client — stay alert-free, kill-free, and
//! schedule-identical to unmonitored runs. These tests pin all three.

use h2priv_core::experiment::run_paper_trial;
use h2priv_core::AttackConfig;
use h2priv_defense::DefenseSpec;
use h2priv_dos::{DetectorConfig, DosAttack, GuardConfig, GuardStats};
use h2priv_netsim::{mbps, SimDuration};
use h2priv_testkit::fleet::{run_fleet, FleetConfig, FleetConformance, FleetDosConfig};
use h2priv_testkit::{RunResult, ScenarioConfig};
use h2priv_web::PoolConfig;

fn arm(cfg: &mut ScenarioConfig) {
    cfg.dos_guard = Some(GuardConfig::default());
    cfg.dos_detector = Some(DetectorConfig::default());
}

fn guard_kills(stats: GuardStats) -> u64 {
    stats.header_timeouts + stats.progress_kills + stats.settings_floods + stats.hoard_closes
}

fn assert_silent(result: &RunResult, label: &str) {
    assert!(
        result.dos_alerts.is_empty(),
        "{label}: detector alerted on honest traffic: {:?}",
        result.dos_alerts
    );
    let kills = result.guard.map(guard_kills).unwrap_or(0);
    assert_eq!(kills, 0, "{label}: guard shed honest traffic");
}

/// The benign adversary grid of the paper's exhibits: network-level
/// disturbances against an honest client. None of them may look like a
/// hostile client to the DoS monitor.
fn benign_grid() -> [(&'static str, Option<AttackConfig>); 4] {
    [
        ("baseline", None),
        (
            "jitter",
            Some(AttackConfig::jitter_only(SimDuration::from_millis(80))),
        ),
        (
            "jitter+throttle",
            Some(AttackConfig::jitter_and_throttle(
                SimDuration::from_millis(80),
                mbps(800),
            )),
        ),
        ("full-sv-attack", Some(AttackConfig::paper_attack())),
    ]
}

#[test]
fn monitored_benign_runs_raise_no_alerts_and_change_nothing() {
    for (label, attack) in benign_grid() {
        for seed in 0..3u64 {
            let bare = run_paper_trial(seed, attack.as_ref(), |_| {});
            let armed = run_paper_trial(seed, attack.as_ref(), arm);
            assert_silent(&armed.result, label);
            // The monitoring stack only observes: every request outcome —
            // and the whole event schedule — must match the unmonitored
            // run exactly.
            assert_eq!(
                armed.result.events, bare.result.events,
                "{label}/{seed}: monitoring changed the event schedule"
            );
            let completions =
                |r: &RunResult| -> Vec<_> { r.outcomes.iter().map(|o| o.completed_at).collect() };
            assert_eq!(
                completions(&armed.result),
                completions(&bare.result),
                "{label}/{seed}: monitoring changed request outcomes"
            );
        }
    }
}

#[test]
fn monitored_defended_runs_raise_no_alerts() {
    // Countermeasure deployments reshape the wire (padding, dummy
    // records, pacing holds) — none of it may read as a slow-rate attack.
    for defense in DefenseSpec::arena() {
        let trial = run_paper_trial(3, None, |cfg| {
            cfg.defense = defense;
            arm(cfg);
        });
        assert_silent(&trial.result, defense.name());
        assert!(
            trial
                .result
                .outcomes
                .iter()
                .all(|o| o.completed_at.is_some()),
            "{}: defended page must still complete",
            defense.name()
        );
    }
}

#[test]
fn benign_fleet_with_monitoring_stays_silent_and_completes() {
    // A worker pool, guard and detector on every server, zero hostile
    // pairs: the population is the fleet-scale false-positive corpus.
    let config = FleetConfig {
        seed: 0x00FA_15E0,
        population: 12,
        shards: 2,
        conformance: FleetConformance::Full,
        start_spread: SimDuration::from_millis(200),
        deadline: SimDuration::from_secs(40),
        dos: Some(FleetDosConfig {
            attack: DosAttack::ZeroWindowHoard,
            attackers: 0,
            guard: Some(GuardConfig::default()),
            detector: Some(DetectorConfig::default()),
            pool: Some(PoolConfig::default()),
        }),
        ..FleetConfig::default()
    };
    let r = run_fleet(&config, || None);
    assert_eq!(r.attackers, 0);
    assert_eq!(r.benign_alerts, 0, "fleet detector alerted on honest pairs");
    assert_eq!(
        r.completed, config.population,
        "every honest pair completes under monitoring"
    );
    assert_eq!(r.violations_total, 0, "{:?}", r.violations);
}
