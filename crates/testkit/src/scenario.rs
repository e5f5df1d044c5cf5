//! Canonical end-to-end scenario: client — gateway — server.
//!
//! Builds the paper's topology (§V "Adversary Setup"): a browser host, the
//! lab gateway (optionally carrying an adversary middlebox, always carrying
//! a wire tap), and the website server, wired over calibrated links. One
//! [`run_scenario`] call is one "download of the webpage" — one trial of
//! the paper's repeat-100-times experiments. With
//! [`ScenarioConfig::attacker`] set, the client is a slow-DoS attacker
//! instead (arXiv:2203.16796), and the same run measures what the attack
//! pins down on the server and how fast its hardening stops it.
//!
//! A trial is a one-pair shard on the host arena ([`crate::fleet`]), the
//! driver every fleet pair runs on too: pair 0 is the measured pair, the
//! gateway carries its adversary, tap and oracle chain, and each arrival
//! is pumped at once, the timing every paper golden was recorded with.
//! The result is read from the pair's row when it folds: when the page
//! load is over, or at the deadline.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::{GroundTruth, WireTrace};
use h2priv_conformance::{ConformanceTap, Violation, ViolationSink};
use h2priv_defense::{AdaptivePacer, ConstantRatePacer, DefenseSpec};
use h2priv_dos::{Alert, DetectorConfig, DosClientStats, DosConfig, GuardConfig, GuardStats};
use h2priv_http2::{H2Config, SendPolicy, Settings};
use h2priv_netsim::{Dir, LinkConfig, Middlebox, SimDuration, SimRng, SimTime, StopReason};
use h2priv_tcp::{TcpConfig, TcpSegment, TcpStats};
use h2priv_web::{
    BrowsePlan, BrowserConfig, RequestOutcome, SiteServerConfig, Website, WorkerPool,
};

use crate::calib;
use crate::fleet::{Chain, PumpTiming, Shard, ShardParts, VictimTap, VICTIM_PAIR};
use crate::pair::{PairInputs, PairRecipe};
use crate::tap::WireTap;

/// Everything configurable about one trial.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Trial seed (drives all randomness).
    pub seed: u64,
    /// Browser knobs.
    pub browser: BrowserConfig,
    /// Server application knobs.
    pub server: SiteServerConfig,
    /// Client HTTP/2 configuration.
    pub client_h2: H2Config,
    /// Server HTTP/2 configuration (the mux policy lives here).
    pub server_h2: H2Config,
    /// TCP configuration (both endpoints).
    pub tcp: TcpConfig,
    /// Client ↔ gateway link.
    pub client_link: LinkConfig,
    /// Gateway ↔ server link.
    pub server_link: LinkConfig,
    /// Hard cap on simulated trial duration.
    pub deadline: h2priv_netsim::SimDuration,
    /// Modeled kernel socket send-buffer size per endpoint (backpressure
    /// that keeps several responses pending in the mux at once).
    pub socket_buffer: usize,
    /// Countermeasure to deploy against the observer. Body padding rewrites
    /// the server config, frame quantization rewrites the server's HTTP/2
    /// config, and shaping defenses add a CDN-edge pacing node between the
    /// server and the adversary's gateway plus a dummy-record schedule on
    /// the server host.
    pub defense: DefenseSpec,
    /// Run the cross-layer conformance oracle alongside the trial: endpoint
    /// checkers on both hosts plus a wire tap at the gateway, all reporting
    /// into [`RunResult::violations`]. On by default; benches turn it off
    /// unless `--check` is given.
    pub conformance: bool,
    /// Slow-DoS resource guard on the server host. `None` (the default)
    /// keeps every pre-existing exhibit's schedule bit-identical; the DoS
    /// grid sets it against an [`attacker`](Self::attacker), and the
    /// false-positive suite on *benign* trials to pin zero sheds.
    pub dos_guard: Option<GuardConfig>,
    /// Online DoS detector on the server host, fed the decrypted inbound
    /// byte stream. `None` by default; benign trials with one attached
    /// must raise zero alerts.
    pub dos_detector: Option<DetectorConfig>,
    /// Worker-pool budget on the server. `None` (the default) keeps the
    /// legacy unbounded thread-per-request behavior.
    pub pool: Option<h2priv_web::PoolConfig>,
    /// The slow-DoS workload the client mounts in place of the browser
    /// (`None`, the default, browses the plan). The attacker itself is
    /// deterministic; the seed still drives TCP/TLS and the server's
    /// workers. Its run reports no browser outcomes; read the attacker's
    /// and the pool's end state from [`RunResult::attacker`] and
    /// [`RunResult::pool`]. The run ends once the server sheds the
    /// attacker, or at the deadline.
    pub attacker: Option<DosConfig>,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            seed: 0,
            browser: BrowserConfig {
                stall_timeout: calib::STALL_TIMEOUT,
                reissue_on_stall: true,
                max_attempts: 3,
                gap_noise_frac: calib::GAP_NOISE_FRAC,
                progress_quantum: 512 * 1024,
            },
            server: SiteServerConfig {
                worker_latency: calib::worker_latency(),
                pad: None,
            },
            client_h2: H2Config {
                settings: Settings {
                    initial_window_size: calib::CLIENT_STREAM_WINDOW,
                    ..Settings::default()
                },
                send_policy: SendPolicy::RoundRobin,
                data_chunk_size: calib::DATA_CHUNK_SIZE,
                connection_window_bonus: calib::CLIENT_CONN_WINDOW_BONUS,
                data_pad_quantum: 0,
                headers_pad_quantum: 0,
            },
            server_h2: H2Config {
                settings: Settings::default(),
                send_policy: SendPolicy::RoundRobin,
                data_chunk_size: calib::DATA_CHUNK_SIZE,
                connection_window_bonus: 0,
                data_pad_quantum: 0,
                headers_pad_quantum: 0,
            },
            tcp: TcpConfig::default(),
            // Links preserve order: real path jitter is shared queueing
            // delay, which stretches gaps but does not reorder; per-packet
            // independent reordering would trigger spurious dup-ACK storms.
            client_link: LinkConfig::with_delay(calib::CLIENT_GW_DELAY)
                .bandwidth(calib::LINK_BANDWIDTH),
            server_link: LinkConfig::with_delay(calib::GW_SERVER_DELAY)
                .bandwidth(calib::WAN_BANDWIDTH)
                .queue_limit(calib::WAN_QUEUE_BYTES)
                .loss(calib::WAN_LOSS)
                .jitter(calib::natural_jitter()),
            deadline: calib::TRIAL_DEADLINE,
            socket_buffer: calib::SOCKET_BUFFER,
            defense: DefenseSpec::None,
            conformance: true,
            dos_guard: None,
            dos_detector: None,
            pool: None,
            attacker: None,
        }
    }
}

/// A built, not-yet-run trial: a wired one-pair shard. Its pair is built
/// when the run starts.
pub struct Scenario {
    shard: Shard,
    deadline: SimDuration,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario").finish_non_exhaustive()
    }
}

/// The outcome of one trial.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Why and when the run stopped.
    pub stop: StopReason,
    /// Per-request browser outcomes (plan order; empty for an attacker
    /// client).
    pub outcomes: Vec<RequestOutcome>,
    /// Ground-truth annotations (degree of multiplexing).
    pub truth: GroundTruth,
    /// The gateway capture.
    pub trace: WireTrace,
    /// Client TCP counters.
    pub client_tcp: TcpStats,
    /// Server TCP counters.
    pub server_tcp: TcpStats,
    /// True if either endpoint's connection died (the paper's "broken
    /// connection").
    pub broken: bool,
    /// Simulator events the trial processed (throughput accounting).
    pub events: u64,
    /// Event-scheduler behaviour counters (tier split, promotions, peak
    /// occupancy) for the trial.
    pub sched: h2priv_netsim::SchedStats,
    /// Conformance violations the oracle detected (empty when the oracle
    /// was disabled; capped at the sink's storage limit).
    pub violations: Vec<Violation>,
    /// Total violations reported, including any past the storage cap.
    pub violations_total: u64,
    /// Dummy records the server's shaping schedule sealed (0 without a
    /// shaping defense) — the defense's byte-overhead numerator.
    pub defense_dummies: u64,
    /// Alerts the server-side DoS detector raised (empty without one; must
    /// stay empty on benign traffic).
    pub dos_alerts: Vec<Alert>,
    /// Shedding counters of the server-side DoS guard, when one was
    /// attached.
    pub guard: Option<GuardStats>,
    /// Worker-pool threads (request workers + captured parsers) still held
    /// when the run ended. Zero without a pool — and zero *with* one
    /// whenever the connection ended, because both teardown paths (guard
    /// GOAWAY and transport death) cancel the server's in-flight workers.
    pub pool_in_use: usize,
    /// The server's worker pool as the run left it, when it ran one.
    pub pool: Option<WorkerPool>,
    /// The slow-DoS client's counters, with when its attack started and
    /// when the server shed it (`None` for a browser client).
    pub attacker: Option<DosClientStats>,
}

impl RunResult {
    /// Combined client+server TCP retransmission count (Table I / Fig. 5's
    /// "number of retransmissions").
    pub fn total_retransmissions(&self) -> u64 {
        self.client_tcp.retransmissions
            + self.server_tcp.retransmissions
            + self.client_tcp.syn_retransmissions
            + self.server_tcp.syn_retransmissions
    }

    /// Panics if the conformance oracle recorded any violation, listing
    /// the stored ones. No-op when the oracle was disabled.
    pub fn assert_conformant(&self) {
        if self.violations_total == 0 {
            return;
        }
        let listing: Vec<String> = self.violations.iter().map(|v| format!("  {v}")).collect();
        panic!(
            "{} conformance violation(s):\n{}",
            self.violations_total,
            listing.join("\n")
        );
    }
}

/// Builds a trial for `site`/`plan` with an optional adversary middlebox
/// installed on the gateway (ahead of the tap, so the capture shows what
/// the adversary let through).
pub fn build_scenario(
    site: &Website,
    plan: &BrowsePlan,
    config: &ScenarioConfig,
    adversary: Option<Box<dyn Middlebox<TcpSegment>>>,
) -> Scenario {
    let trace = Rc::new(RefCell::new(WireTrace::new()));
    let truth = Rc::new(RefCell::new(GroundTruth::new()));
    let sink = config.conformance.then(ViolationSink::new);
    let pool = config
        .pool
        .map(|pool| Rc::new(RefCell::new(WorkerPool::new(pool))));

    // The oracle's wire checks sit after the adversary, so they validate
    // exactly the traffic that survives; the endpoint checkers on both
    // hosts report into the same sink.
    let mut chain: Chain = adversary.into_iter().collect();
    chain.push(Box::new(WireTap::new(trace.clone())));
    if let Some(sink) = &sink {
        chain.push(Box::new(ConformanceTap::new(sink.clone())));
    }
    // Shaping defenses pace at a CDN edge between the server and the
    // adversary's vantage point.
    let pacer = config
        .defense
        .pacing()
        .map(|pace| -> Box<dyn Middlebox<TcpSegment>> {
            match config.defense {
                DefenseSpec::ConstantRate { .. } => {
                    Box::new(ConstantRatePacer::new(Dir::RightToLeft, pace))
                }
                _ => Box::new(AdaptivePacer::new(Dir::RightToLeft, pace)),
            }
        });

    let recipe = PairRecipe::new(config.clone(), site);
    let served = Rc::new(site.clone());
    let plan = plan.clone();
    let (seed, attacker) = (config.seed, config.attacker.clone());
    let (pair_truth, pair_pool, pair_sink) = (truth.clone(), pool.clone(), sink.clone());
    let build = move |_pair| {
        recipe.build(
            PairInputs {
                rng: &mut SimRng::seed_from(seed ^ 0xD1CE_BA5E),
                session_key: 0x5EC0_0D5E ^ seed,
                site: &served,
                plan: &plan,
                served: served.clone(),
                attacker: attacker.clone(),
                truth: Some(pair_truth.clone()),
                pool: pair_pool.clone(),
                oracle: pair_sink.as_ref(),
            },
            // The shaper's fork comes last, so unshaped trials keep their
            // exact seed sequence.
            |rng| Some(rng.fork()),
        )
    };
    let shard = Shard::new(ShardParts {
        engine_seed: config.seed,
        pump: PumpTiming::EachArrival,
        population: 1,
        admit: vec![(SimTime::ZERO, VICTIM_PAIR)],
        build: Box::new(build),
        slab_hint: 1,
        chains: vec![(VICTIM_PAIR, chain)],
        pacer,
        access: config.client_link.clone(),
        wan: config.server_link.clone(),
        event_budget: None,
        victim: Some(VictimTap { trace, truth }),
        sink,
        pool,
        progress: None,
    });
    Scenario {
        shard,
        deadline: config.deadline,
    }
}

/// Runs a built scenario to completion (or its deadline) and collects the
/// result.
pub fn run_scenario(scenario: Scenario) -> RunResult {
    let run = scenario.shard.run(scenario.deadline);
    let victim = run.victim.expect("a one-pair shard folds its pair");
    let row = victim.row;
    RunResult {
        stop: run.stop,
        outcomes: row.outcomes,
        truth: victim.truth,
        trace: victim.trace,
        client_tcp: row.client_tcp,
        server_tcp: row.server_tcp,
        broken: row.broken,
        events: run.result.events,
        sched: run.result.sched,
        violations: run.result.violations,
        violations_total: run.result.violations_total,
        defense_dummies: row.defense_dummies,
        dos_alerts: row.dos_alerts,
        guard: row.guard,
        pool_in_use: run
            .pool
            .as_ref()
            .map_or(0, |p| p.in_use() + p.parser_held()),
        pool: run.pool,
        attacker: row.attacker,
    }
}

/// Convenience: build and run in one step.
pub fn run_trial(
    site: &Website,
    plan: &BrowsePlan,
    config: &ScenarioConfig,
    adversary: Option<Box<dyn Middlebox<TcpSegment>>>,
) -> RunResult {
    run_scenario(build_scenario(site, plan, config, adversary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2priv_dos::DosAttack;
    use h2priv_web::{isidewith, PoolConfig};

    /// One attacker against one pooled, monitored server.
    fn attack_run(attack: DosAttack, guarded: bool) -> RunResult {
        let iw = isidewith::build(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let config = ScenarioConfig {
            seed: 7,
            attacker: Some(DosConfig::for_attack(attack)),
            dos_guard: guarded.then(GuardConfig::default),
            dos_detector: Some(DetectorConfig::default()),
            pool: Some(PoolConfig::default()),
            deadline: SimDuration::from_secs(30),
            ..ScenarioConfig::default()
        };
        run_trial(&iw.site, &iw.plan, &config, None)
    }

    #[test]
    fn attacker_scenario_reports_no_browser_outcomes() {
        let r = attack_run(DosAttack::SettingsFlood, false);
        assert!(r.outcomes.is_empty());
        let attacker = r.attacker.expect("an attacker client");
        assert!(attacker.attack_started.is_some());
    }

    #[test]
    fn undefended_zero_window_hoard_pins_the_pool() {
        let r = attack_run(DosAttack::ZeroWindowHoard, false);
        let attacker = r.attacker.expect("an attacker client");
        assert_eq!(attacker.shed_at, None, "no guard, nothing sheds");
        let pool = r.pool.as_ref().expect("the server ran a pool");
        assert!(pool.stats().admitted > 0);
        assert_eq!(
            r.pool_in_use,
            PoolConfig::default().capacity,
            "hoarded streams hold every worker to the deadline"
        );
        assert_eq!(r.violations_total, 0, "{:?}", r.violations);
    }

    #[test]
    fn guarded_attacks_are_shed_and_detected() {
        for attack in DosAttack::all() {
            let r = attack_run(attack, true);
            let attacker = r.attacker.expect("an attacker client");
            assert!(
                attacker.shed_at.is_some(),
                "{}: guard never shed the attacker",
                attack.name()
            );
            assert!(
                r.dos_alerts.iter().any(|a| a.kind.name() == attack.name()),
                "{}: detector missed it (alerts: {:?})",
                attack.name(),
                r.dos_alerts
            );
            assert!(attacker.attack_started.is_some());
            assert_eq!(
                r.pool_in_use,
                0,
                "{}: shedding must return all pool capacity",
                attack.name()
            );
            assert_eq!(
                r.violations_total,
                0,
                "{}: {:?}",
                attack.name(),
                r.violations
            );
        }
    }
}
