//! Slow-DoS exhibit — attack, hardening and detection in one grid.
//!
//! Exercises the slow-rate HTTP/2 workloads of arXiv:2203.16796
//! (Tripathi; ROADMAP item 5) against the simulated server and reports
//! three sections:
//!
//! * **Standalone grid** — each attack variant against one server, with
//!   and without the [`ServerGuard`](h2priv_dos::ServerGuard) shedding
//!   policy. The undefended column shows what the attack pins (workers
//!   held, parser threads captured, control-plane backlog); the guarded
//!   column shows when the guard shed the connection and how fast the
//!   online detector flagged it.
//! * **Fleet contention** — hostile pairs inside the population run,
//!   sharing one worker pool per shard with honest bystanders. Undefended,
//!   the attackers starve bystander page loads; guarded, every attacker is
//!   shed and bystander completion recovers.
//! * **False positives** — the detector and guard attached to honest
//!   traffic: benign single-pair trials under every adversary condition of
//!   the paper's grid (including the full §V serialization attack — a
//!   *network*-level adversary the DoS detector must not confuse with a
//!   hostile client), plus the benign pairs of the fleet runs. Every row
//!   must report zero alerts and zero shed connections.
//!
//! All attacks are RFC-legal by construction, so `--check` keeps the
//! conformance oracle green across the whole exhibit.

use h2priv_core::experiment::run_paper_trial;
use h2priv_core::AttackConfig;
use h2priv_dos::{DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::{mbps, SimDuration};
use h2priv_testkit::fleet::{merge_shards, run_fleet_shard, FleetConfig, FleetConformance};
use h2priv_testkit::{build_scenario, run_scenario, ScenarioConfig};
use h2priv_web::{isidewith, PoolConfig};

use crate::json::{object, Json, ToJson};
use crate::runner;

/// One (attack × defense) cell of the standalone grid.
#[derive(Debug, Clone)]
pub struct DosCell {
    /// Attack variant name.
    pub attack: &'static str,
    /// Whether the server ran the guard.
    pub guarded: bool,
    /// When the server shed the attacker, ms (None = ran to deadline).
    pub shed_ms: Option<f64>,
    /// First-alert latency after the attack started, ms.
    pub detect_ms: Option<f64>,
    /// Detector alerts raised.
    pub alerts: u64,
    /// Request workers still held when the run ended.
    pub workers_held: usize,
    /// Parser threads still captured when the run ended.
    pub parsers_held: usize,
    /// Control-plane backlog at the end, ms of unprocessed SETTINGS work.
    pub settings_backlog_ms: u64,
    /// Requests the server admitted or parked.
    pub requests_seen: u64,
    /// Frames the attacker put on the wire.
    pub frames_sent: u64,
    /// Resets the attacker absorbed.
    pub resets_received: u64,
}

impl ToJson for DosCell {
    fn to_json(&self) -> Json {
        object([
            ("attack", self.attack.to_json()),
            ("guarded", self.guarded.to_json()),
            (
                "shed_ms",
                self.shed_ms.map(|v| v.to_json()).unwrap_or(Json::Null),
            ),
            (
                "detect_ms",
                self.detect_ms.map(|v| v.to_json()).unwrap_or(Json::Null),
            ),
            ("alerts", self.alerts.to_json()),
            ("workers_held", (self.workers_held as u64).to_json()),
            ("parsers_held", (self.parsers_held as u64).to_json()),
            ("settings_backlog_ms", self.settings_backlog_ms.to_json()),
            ("requests_seen", self.requests_seen.to_json()),
            ("frames_sent", self.frames_sent.to_json()),
            ("resets_received", self.resets_received.to_json()),
        ])
    }
}

/// One fleet-contention run (an attack variant, defended or not).
#[derive(Debug, Clone)]
pub struct DosFleetRow {
    /// Attack the hostile pairs mount.
    pub attack: &'static str,
    /// Whether every server ran the guard + detector.
    pub guarded: bool,
    /// Hostile pairs in the population.
    pub attackers: u32,
    /// Hostile pairs the servers shed.
    pub shed: u32,
    /// Hostile pairs flagged by the detector.
    pub detected: u32,
    /// Mean first-alert latency over detected pairs, ms.
    pub detect_ms_mean: f64,
    /// Benign pairs in the population.
    pub bystanders: u32,
    /// Benign pairs whose page load completed.
    pub completed: u32,
    /// Bystander page-completion rate, %.
    pub completion_pct: f64,
    /// Detector alerts on benign pairs (false positives; must be 0).
    pub benign_alerts: u64,
    /// Requests that had to park for a free worker.
    pub parked: u64,
}

impl ToJson for DosFleetRow {
    fn to_json(&self) -> Json {
        object([
            ("attack", self.attack.to_json()),
            ("guarded", self.guarded.to_json()),
            ("attackers", (self.attackers as u64).to_json()),
            ("shed", (self.shed as u64).to_json()),
            ("detected", (self.detected as u64).to_json()),
            ("detect_ms_mean", self.detect_ms_mean.to_json()),
            ("bystanders", (self.bystanders as u64).to_json()),
            ("completed", (self.completed as u64).to_json()),
            ("completion_pct", self.completion_pct.to_json()),
            ("benign_alerts", self.benign_alerts.to_json()),
            ("parked", self.parked.to_json()),
        ])
    }
}

/// One false-positive row: honest traffic with the monitoring stack on.
#[derive(Debug, Clone)]
pub struct DosFpRow {
    /// Benign condition label.
    pub condition: &'static str,
    /// Trials run.
    pub trials: u64,
    /// Detector alerts across all trials (must be 0).
    pub alerts: u64,
    /// Guard shedding actions across all trials (must be 0).
    pub guard_kills: u64,
    /// Trials whose page load completed.
    pub completed: u64,
}

impl ToJson for DosFpRow {
    fn to_json(&self) -> Json {
        object([
            ("condition", self.condition.to_json()),
            ("trials", self.trials.to_json()),
            ("alerts", self.alerts.to_json()),
            ("guard_kills", self.guard_kills.to_json()),
            ("completed", self.completed.to_json()),
        ])
    }
}

/// The whole exhibit.
#[derive(Debug, Clone)]
pub struct DosReport {
    /// Standalone attack grid.
    pub grid: Vec<DosCell>,
    /// Fleet contention runs.
    pub fleet: Vec<DosFleetRow>,
    /// False-positive sweep.
    pub fp: Vec<DosFpRow>,
}

impl ToJson for DosReport {
    fn to_json(&self) -> Json {
        object([
            ("grid", self.grid.to_json()),
            ("fleet", self.fleet.to_json()),
            ("fp", self.fp.to_json()),
        ])
    }
}

/// Fixed seed for the standalone grid: the attacker is deterministic, the
/// seed only drives TCP/TLS nonces and server worker jitter.
const GRID_SEED: u64 = 0xD05;

fn grid_cell(attack: DosAttack, guarded: bool) -> DosCell {
    let iw = isidewith::build(&[0, 1, 2, 3, 4, 5, 6, 7]);
    let config = ScenarioConfig {
        seed: GRID_SEED,
        attacker: Some(DosConfig::for_attack(attack)),
        dos_guard: guarded.then(GuardConfig::default),
        dos_detector: Some(DetectorConfig::default()),
        pool: Some(PoolConfig::default()),
        deadline: SimDuration::from_secs(30),
        conformance: runner::conformance_enabled(),
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&iw.site, &iw.plan, &config, None);
    let (client, server) = (scenario.client.clone(), scenario.server.clone());
    let r = run_scenario(scenario);
    runner::record_events(r.events);
    runner::record_violations(
        r.violations_total,
        r.violations.iter().map(|v| v.to_string()),
    );
    let (client, server) = (client.borrow(), server.borrow());
    let (attacker, site_server) = (client.attacker(), server.server());
    let pool = site_server
        .pool()
        .expect("grid servers run a pool")
        .borrow();
    let stats = attacker.stats();
    DosCell {
        attack: attack.name(),
        guarded,
        shed_ms: attacker.shed_at().map(|t| t.as_nanos() as f64 / 1e6),
        detect_ms: r
            .dos_alerts
            .first()
            .zip(attacker.attack_started())
            .map(|(alert, start)| alert.at.saturating_since(start).as_nanos() as f64 / 1e6),
        alerts: r.dos_alerts.len() as u64,
        workers_held: pool.in_use(),
        parsers_held: pool.parser_held(),
        settings_backlog_ms: pool.busy_until().as_millis(),
        requests_seen: site_server.requests_seen(),
        frames_sent: stats.frames_sent,
        resets_received: stats.resets_received,
    }
}

/// The fleet-contention configuration: small enough to stay fast, coupled
/// enough (4 hostile pairs on a 4-worker pool) that undefended attackers
/// visibly starve the bystanders.
fn fleet_dos_config(attack: DosAttack, guarded: bool) -> FleetConfig {
    FleetConfig {
        seed: 0xD05F_1EE7,
        population: 16,
        shards: 2,
        conformance: if runner::conformance_enabled() {
            FleetConformance::Full
        } else {
            FleetConformance::Off
        },
        start_spread: SimDuration::from_millis(200),
        deadline: SimDuration::from_secs(40),
        dos: Some(h2priv_testkit::FleetDosConfig {
            attack,
            attackers: 4,
            guard: guarded.then(GuardConfig::default),
            detector: guarded.then(DetectorConfig::default),
            pool: Some(PoolConfig {
                capacity: 4,
                ..PoolConfig::default()
            }),
        }),
        ..FleetConfig::default()
    }
}

fn fleet_row(attack: DosAttack, guarded: bool) -> DosFleetRow {
    let config = fleet_dos_config(attack, guarded);
    let results = runner::run_seeded(config.shards as u64, |shard| {
        run_fleet_shard(&config, shard as u32, None)
    });
    let merged = merge_shards(config.population, config.shards, results);
    runner::record_events(merged.events);
    runner::record_sched(&merged.sched);
    runner::record_violations(
        merged.violations_total,
        merged.violations.iter().map(|v| v.to_string()),
    );
    let bystanders = config.population - merged.attackers;
    DosFleetRow {
        attack: attack.name(),
        guarded,
        attackers: merged.attackers,
        shed: merged.attackers_shed,
        detected: merged.detected,
        detect_ms_mean: if merged.detected > 0 {
            merged.detection_latency_us as f64 / merged.detected as f64 / 1e3
        } else {
            0.0
        },
        bystanders,
        completed: merged.completed,
        completion_pct: if bystanders > 0 {
            merged.completed as f64 * 100.0 / bystanders as f64
        } else {
            0.0
        },
        benign_alerts: merged.benign_alerts,
        parked: merged.pool.map(|p| p.parked).unwrap_or(0),
    }
}

/// The benign adversary grid for the false-positive sweep: each condition
/// of the paper's exhibits, with the honest client unchanged. The §IV/§V
/// attacks disturb the *network*; the DoS monitor watches the *client*,
/// so none of them may trip it.
fn fp_grid() -> [(&'static str, Option<AttackConfig>); 4] {
    [
        ("baseline (fig1/table2)", None),
        (
            "jitter 80ms (table1)",
            Some(AttackConfig::jitter_only(SimDuration::from_millis(80))),
        ),
        (
            "throttle 800kbps (fig5)",
            Some(AttackConfig::jitter_and_throttle(
                SimDuration::from_millis(80),
                mbps(800),
            )),
        ),
        ("full SV attack", Some(AttackConfig::paper_attack())),
    ]
}

fn fp_row(condition: &'static str, attack: Option<&AttackConfig>, trials: u64) -> DosFpRow {
    let rows = runner::run_seeded(trials, |seed| {
        let trial = run_paper_trial(seed, attack, |cfg| {
            cfg.conformance = runner::conformance_enabled();
            cfg.dos_guard = Some(GuardConfig::default());
            cfg.dos_detector = Some(DetectorConfig::default());
        });
        crate::common::record_conformance(&trial.result);
        crate::runner::record_sched(&trial.result.sched);
        let guard = trial.result.guard.unwrap_or_default();
        let kills = guard.header_timeouts
            + guard.progress_kills
            + guard.settings_floods
            + guard.hoard_closes;
        let completed = trial
            .result
            .outcomes
            .iter()
            .all(|o| o.completed_at.is_some());
        (
            trial.result.dos_alerts.len() as u64,
            kills,
            completed,
            trial.result.events,
        )
    });
    runner::record_events(rows.iter().map(|&(_, _, _, e)| e).sum());
    DosFpRow {
        condition,
        trials,
        alerts: rows.iter().map(|&(a, _, _, _)| a).sum(),
        guard_kills: rows.iter().map(|&(_, k, _, _)| k).sum(),
        completed: rows.iter().filter(|&&(_, _, c, _)| c).count() as u64,
    }
}

/// Runs the exhibit. `trials` scales only the false-positive sweep; the
/// attack grid and fleet runs are fixed-size.
pub fn run(trials: u64) -> DosReport {
    let mut grid = Vec::new();
    for attack in DosAttack::all() {
        for guarded in [false, true] {
            grid.push(grid_cell(attack, guarded));
        }
    }
    // Two contention mechanisms: zero-window hoarding pins request
    // workers; trickled header sequences capture parser threads.
    let mut fleet = Vec::new();
    for attack in [DosAttack::ZeroWindowHoard, DosAttack::SlowHeaders] {
        for guarded in [false, true] {
            fleet.push(fleet_row(attack, guarded));
        }
    }
    let fp = fp_grid()
        .iter()
        .map(|(name, attack)| fp_row(name, attack.as_ref(), trials))
        .collect();
    DosReport { grid, fleet, fp }
}

/// Renders the exhibit in the repro layout.
pub fn render(report: &DosReport) -> String {
    let fmt_ms = |v: Option<f64>| match v {
        Some(ms) => format!("{ms:.0}"),
        None => "-".to_owned(),
    };
    let mut out = String::new();
    out.push_str("SLOW-DOS: slow-rate HTTP/2 workloads vs. server hardening\n");
    out.push_str("-- standalone: one attacker, one server (pool capacity 16)\n");
    out.push_str(&format!(
        "   {:<18} {:<7} {:>8} {:>10} {:>7} {:>8} {:>8} {:>11} {:>7}\n",
        "attack",
        "guard",
        "shed ms",
        "detect ms",
        "alerts",
        "workers",
        "parsers",
        "backlog ms",
        "resets"
    ));
    for c in &report.grid {
        out.push_str(&format!(
            "   {:<18} {:<7} {:>8} {:>10} {:>7} {:>8} {:>8} {:>11} {:>7}\n",
            c.attack,
            if c.guarded { "on" } else { "off" },
            fmt_ms(c.shed_ms),
            fmt_ms(c.detect_ms),
            c.alerts,
            c.workers_held,
            c.parsers_held,
            c.settings_backlog_ms,
            c.resets_received,
        ));
    }
    out.push_str("-- fleet: 16 pairs, 4 hostile, one 4-worker pool per shard\n");
    out.push_str(&format!(
        "   {:<18} {:<7} {:>6} {:>9} {:>11} {:>11} {:>9} {:>7}\n",
        "attack", "guard", "shed", "detected", "detect ms", "bystander%", "FP alerts", "parked"
    ));
    for r in &report.fleet {
        out.push_str(&format!(
            "   {:<18} {:<7} {:>4}/{} {:>7}/{} {:>11.1} {:>11.1} {:>9} {:>7}\n",
            r.attack,
            if r.guarded { "on" } else { "off" },
            r.shed,
            r.attackers,
            r.detected,
            r.attackers,
            r.detect_ms_mean,
            r.completion_pct,
            r.benign_alerts,
            r.parked,
        ));
    }
    out.push_str("-- false positives: honest traffic with guard + detector armed\n");
    out.push_str(&format!(
        "   {:<24} {:>7} {:>7} {:>12} {:>10}\n",
        "condition", "trials", "alerts", "guard kills", "completed"
    ));
    for r in &report.fp {
        out.push_str(&format!(
            "   {:<24} {:>7} {:>7} {:>12} {:>10}\n",
            r.condition, r.trials, r.alerts, r.guard_kills, r.completed,
        ));
    }
    out.push_str(
        "(all workloads are RFC-legal; shed = ENHANCE_YOUR_CALM reset/GOAWAY observed by\n \
         the attacker; FP rows must stay at zero alerts and zero kills)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_grid_starves_then_sheds() {
        for attack in DosAttack::all() {
            let undefended = grid_cell(attack, false);
            assert_eq!(undefended.shed_ms, None, "{}: nothing sheds", attack.name());
            let guarded = grid_cell(attack, true);
            assert!(
                guarded.shed_ms.is_some(),
                "{}: guard must shed",
                attack.name()
            );
            assert!(
                guarded.detect_ms.is_some(),
                "{}: detector must flag",
                attack.name()
            );
            assert_eq!(
                (guarded.workers_held, guarded.parsers_held),
                (0, 0),
                "{}: shedding frees the pool",
                attack.name()
            );
        }
    }

    #[test]
    fn fp_rows_are_silent() {
        let row = fp_row("baseline", None, 2);
        assert_eq!(row.alerts, 0);
        assert_eq!(row.guard_kills, 0);
        assert_eq!(row.completed, 2);
    }

    #[test]
    fn render_lists_all_sections() {
        let report = DosReport {
            grid: vec![grid_cell(DosAttack::SettingsFlood, true)],
            fleet: vec![fleet_row(DosAttack::ZeroWindowHoard, true)],
            fp: vec![fp_row("baseline", None, 1)],
        };
        let s = render(&report);
        assert!(s.contains("standalone"));
        assert!(s.contains("fleet"));
        assert!(s.contains("false positives"));
    }
}
