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

use h2priv_core::AttackConfig;
use h2priv_dos::{DetectorConfig, DosAttack, DosConfig, GuardConfig};
use h2priv_netsim::SimDuration;
use h2priv_testkit::fleet::{run_fleet_shard, FleetConfig, FleetConformance, FleetDosConfig};
use h2priv_testkit::{run_trial, ScenarioConfig};
use h2priv_web::{isidewith, PoolConfig};

use crate::common::{adversary_grid, paper_trial};
use crate::runner;
use crate::table::{Cell, Column, Count, Fmt, Layout, Report, Table};

/// Fixed seed for the standalone grid: the attacker is deterministic, the
/// seed only drives TCP/TLS nonces and server worker jitter.
const GRID_SEED: u64 = 0xD05;

/// One (attack × defense) row of the standalone grid: when the server
/// shed the attacker (ms; missing when it ran to the deadline), the
/// first alert's latency after the attack started (ms), the alerts, the
/// request workers and parser threads still held at the end, the
/// control-plane backlog (ms of unprocessed SETTINGS work) and the
/// resets the attacker absorbed.
fn grid_cell(attack: DosAttack, guarded: bool) -> Vec<Cell> {
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
    let r = run_trial(&iw.site, &iw.plan, &config, None);
    runner::record(r.events, &r.sched, r.violations_total, &r.violations);
    let attacker = r.attacker.expect("grid clients attack");
    let pool = r.pool.as_ref().expect("grid servers run a pool");
    let detect = r.dos_alerts.first().zip(attacker.attack_started);
    let detect = detect.map(|(alert, start)| alert.at.saturating_since(start));
    vec![
        attack.name().into(),
        Cell::from(if guarded { "on" } else { "off" }),
        attacker
            .shed_at
            .map_or(Cell::Missing, |t| Cell::Num(t.as_nanos() as f64 / 1e6)),
        detect.map_or(Cell::Missing, |d| Cell::Num(d.as_nanos() as f64 / 1e6)),
        (r.dos_alerts.len() as u64).into(),
        (pool.in_use() as u64).into(),
        (pool.parser_held() as u64).into(),
        pool.busy_until().as_millis().into(),
        attacker.resets_received.into(),
    ]
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
        dos: Some(FleetDosConfig {
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

/// One fleet-contention run (an attack variant, defended or not): shed
/// and detected hostile pairs, the mean first-alert latency, bystander
/// page completion, alerts on benign pairs (false positives; must be 0)
/// and requests that had to park for a free worker.
fn fleet_row(attack: DosAttack, guarded: bool) -> Vec<Cell> {
    let config = fleet_dos_config(attack, guarded);
    let results = runner::run_seeded(config.shards as u64, |shard| {
        run_fleet_shard(&config, shard as u32, None)
    });
    let merged = crate::fleet::merge_recorded(&config, results);
    let hostile = |k: u32| Count::new(k, merged.attackers);
    let n = u64::from(merged.detected);
    let mean = if n > 0 {
        merged.detection_latency_us as f64 / merged.detected as f64 / 1e3
    } else {
        0.0
    };
    vec![
        attack.name().into(),
        Cell::from(if guarded { "on" } else { "off" }),
        hostile(merged.attackers_shed).into(),
        hostile(merged.detected).into(),
        Cell::Mean { mean, n },
        Count::new(merged.completed, config.population - merged.attackers).into(),
        merged.benign_alerts.into(),
        merged.pool.map_or(0, |p| p.parked).into(),
    ]
}

/// The false-positive sweep runs [`adversary_grid`], each condition of the
/// paper's exhibits, with the honest client unchanged. The §IV/§V
/// attacks disturb the *network*; the DoS monitor watches the *client*,
/// so none of them may trip it.
const FP_CONDITIONS: [&str; 4] = [
    "baseline (fig1/table2)",
    "jitter 80ms (table1)",
    "throttle 800Mbps (fig5)",
    "full SV attack",
];

/// One false-positive row: honest traffic with the monitoring stack on.
/// Detector alerts and guard shedding actions must stay 0.
fn fp_row(condition: &str, attack: Option<&AttackConfig>, trials: u64) -> Vec<Cell> {
    let rows = runner::run_seeded(trials, |seed| {
        let trial = paper_trial(seed, attack, |cfg| {
            cfg.dos_guard = Some(GuardConfig::default());
            cfg.dos_detector = Some(DetectorConfig::default());
        });
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
        (trial.result.dos_alerts.len() as u64, kills, completed)
    });
    vec![
        condition.into(),
        trials.into(),
        rows.iter().map(|&(a, _, _)| a).sum::<u64>().into(),
        rows.iter().map(|&(_, k, _)| k).sum::<u64>().into(),
        (rows.iter().filter(|&&(_, _, c)| c).count() as u64).into(),
    ]
}

/// Runs the exhibit. `trials` scales only the false-positive sweep; the
/// attack grid and fleet runs are fixed-size.
pub fn run(trials: u64) -> Report {
    let grid = DosAttack::all().into_iter();
    let grid = grid.flat_map(|attack| [false, true].map(|guarded| grid_cell(attack, guarded)));
    // Two contention mechanisms: zero-window hoarding pins request
    // workers; trickled header sequences capture parser threads.
    let fleet = [DosAttack::ZeroWindowHoard, DosAttack::SlowHeaders].into_iter();
    let fleet = fleet.flat_map(|attack| [false, true].map(|guarded| fleet_row(attack, guarded)));
    let fp = FP_CONDITIONS.iter().zip(adversary_grid());
    let fp = fp.map(|(name, attack)| fp_row(name, attack.as_ref(), trials));
    report(grid.collect(), fleet.collect(), fp.collect())
}

/// The exhibit from its three sections' rows.
fn report(grid: Vec<Vec<Cell>>, fleet: Vec<Vec<Cell>>, fp: Vec<Vec<Cell>>) -> Report {
    let section = |title: &str, columns, rows: Vec<Vec<Cell>>| {
        let mut table = Table::new(title, Layout::Indented { header: true }, columns);
        rows.into_iter().for_each(|row| table.push(row));
        table
    };
    let col = Column::new;
    let (left, int) = (Fmt::Left, Fmt::Fixed(0));
    let grid = section(
        "standalone: one attacker, one server (pool capacity 16)",
        vec![
            col("attack", 18, left),
            col("guard", 7, left),
            col("shed ms", 8, int),
            col("detect ms", 10, int),
            col("alerts", 7, int),
            col("workers", 8, int),
            col("parsers", 8, int),
            col("backlog ms", 11, int),
            col("resets", 7, int),
        ],
        grid,
    );
    let fleet = section(
        "fleet: 16 pairs, 4 hostile, one 4-worker pool per shard",
        vec![
            col("attack", 18, left),
            col("guard", 7, left),
            col("shed", 6, Fmt::Ratio(1)),
            col("detected", 9, Fmt::Ratio(1)),
            col("detect ms", 11, Fmt::Fixed(1)),
            col("bystander%", 11, Fmt::Fixed(1)),
            col("FP alerts", 9, int),
            col("parked", 7, int),
        ],
        fleet,
    );
    let mut fp = section(
        "false positives: honest traffic with guard + detector armed",
        vec![
            col("condition", 24, left),
            col("trials", 7, int),
            col("alerts", 7, int),
            col("guard kills", 12, int),
            col("completed", 10, int),
        ],
        fp,
    );
    fp.notes = vec![
        "(all workloads are RFC-legal; shed = ENHANCE_YOUR_CALM reset/GOAWAY observed by".into(),
        " the attacker; FP rows must stay at zero alerts and zero kills)".into(),
    ];
    Report {
        head: vec!["SLOW-DOS: slow-rate HTTP/2 workloads vs. server hardening".to_owned()],
        tables: vec![grid, fleet, fp],
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standalone_grid_starves_then_sheds() {
        for attack in DosAttack::all() {
            let name = attack.name();
            // Columns 2 and 3: shed ms, detect ms; 5 and 6: workers and
            // parsers held.
            let undefended = grid_cell(attack, false);
            assert_eq!(undefended[2], Cell::Missing, "{name}: nothing sheds");
            let guarded = grid_cell(attack, true);
            assert_ne!(guarded[2], Cell::Missing, "{name}: guard must shed");
            assert_ne!(guarded[3], Cell::Missing, "{name}: detector must flag");
            let pool = [Cell::Int(0), Cell::Int(0)];
            assert_eq!(guarded[5..7], pool, "{name}: shedding frees the pool");
        }
    }

    #[test]
    fn fp_rows_are_silent() {
        let row = fp_row("baseline", None, 2);
        // Alerts, guard kills, completed loads.
        assert_eq!(row[2..], [Cell::Int(0), Cell::Int(0), Cell::Int(2)]);
    }

    #[test]
    fn render_lists_all_sections() {
        let s = report(
            vec![grid_cell(DosAttack::SettingsFlood, true)],
            vec![fleet_row(DosAttack::ZeroWindowHoard, true)],
            vec![fp_row("baseline", None, 1)],
        )
        .markdown();
        assert!(s.contains("-- standalone"));
        let fleet = "   zero-window-hoard  on         4/4       4/4";
        assert!(s.contains(fleet), "{s}");
        assert!(s.contains("-- false positives"));
    }
}
