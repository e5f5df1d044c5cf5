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

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::{GroundTruth, WireTrace};
use h2priv_conformance::{ConformanceTap, Violation, ViolationSink};
use h2priv_defense::{AdaptivePacer, ConstantRatePacer, DefenseSpec};
use h2priv_dos::{Alert, DetectorConfig, DosConfig, GuardConfig, GuardStats};
use h2priv_http2::{H2Config, SendPolicy, Settings};
use h2priv_netsim::{
    Dir, GatewayNode, LinkConfig, Middlebox, NodeId, SimDuration, SimRng, Simulator, StopReason,
};
use h2priv_tcp::{AbortReason, TcpConfig, TcpSegment, TcpStats};
use h2priv_web::{
    BrowsePlan, BrowserConfig, RequestOutcome, SiteServerConfig, Website, WorkerPool,
};

use crate::calib;
use crate::host::{App, Host, HostCore};
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
    /// and the pool's end state through [`Scenario::client`] and
    /// [`Scenario::server`].
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
                request_noise: h2priv_netsim::DurationDist::None,
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
                // Harness apps consume body *lengths*, never contents (the
                // browser records sizes and timing; the conformance oracle
                // taps TLS plaintext upstream of the h2 decoder), so DATA
                // payloads skip the per-frame copy on receive.
                opaque_data_payloads: true,
            },
            server_h2: H2Config {
                settings: Settings::default(),
                send_policy: SendPolicy::RoundRobin,
                data_chunk_size: calib::DATA_CHUNK_SIZE,
                connection_window_bonus: 0,
                data_pad_quantum: 0,
                headers_pad_quantum: 0,
                opaque_data_payloads: true,
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

/// A built, not-yet-run trial.
pub struct Scenario {
    /// The simulator, ready to run.
    pub sim: Simulator<TcpSegment>,
    /// Client host handle (browser or attacker, TCP stats).
    pub client: Rc<RefCell<HostCore>>,
    /// Server host handle.
    pub server: Rc<RefCell<HostCore>>,
    /// The gateway's capture.
    pub trace: Rc<RefCell<WireTrace>>,
    /// Seal-time annotations.
    pub truth: Rc<RefCell<GroundTruth>>,
    /// Node ids (client, gateway, server).
    pub nodes: (NodeId, NodeId, NodeId),
    /// The conformance oracle's sink, when the oracle is enabled.
    pub violations: Option<ViolationSink>,
    deadline: h2priv_netsim::SimDuration,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("nodes", &self.nodes)
            .finish()
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
    /// The client-side abort reason, if any.
    pub client_abort: Option<AbortReason>,
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
    let mut sim = Simulator::new(config.seed);
    let mut seed_rng = SimRng::seed_from(config.seed ^ 0xD1CE_BA5E);
    let client_id = sim.reserve_node_id();
    let gateway_id = sim.reserve_node_id();
    let server_id = sim.reserve_node_id();
    // Shaping defenses pace at a CDN edge *between* the server and the
    // adversary's vantage point: a Hold issued inside the gateway's own
    // middlebox chain would not move the tap's arrival timestamps, so the
    // pacer must finish its work one hop upstream of the observer.
    let edge_id = config.defense.is_shaping().then(|| sim.reserve_node_id());

    let trace = Rc::new(RefCell::new(WireTrace::new()));
    let truth = Rc::new(RefCell::new(GroundTruth::new()));
    let violations = config.conformance.then(ViolationSink::new);
    let (client, server) = PairRecipe::new(config.clone(), site).build(
        PairInputs {
            server_node: server_id,
            client_node: client_id,
            rng: &mut seed_rng,
            session_key: 0x5EC0_0D5E ^ config.seed,
            site,
            plan,
            served: Rc::new(site.clone()),
            attacker: config.attacker.clone(),
            truth: Some(truth.clone()),
            pool: config
                .pool
                .map(|pool| Rc::new(RefCell::new(WorkerPool::new(pool)))),
            oracle: violations.as_ref(),
        },
        // The shaper's fork comes last, so unshaped trials keep their
        // exact seed sequence.
        |rng| Some(rng.fork()),
    );
    let client = Rc::new(RefCell::new(client));
    let server = Rc::new(RefCell::new(server));

    let mut gateway = GatewayNode::new(client_id, server_id);
    if let Some(adv) = adversary {
        gateway.push_middlebox(adv);
    }
    gateway.push_middlebox(WireTap::new(trace.clone()));

    // The oracle's wire checks sit after the adversary, so they validate
    // exactly the traffic that survives; the endpoint checkers on both
    // hosts report into the same sink.
    if let Some(sink) = &violations {
        gateway.push_middlebox(Box::new(ConformanceTap::new(sink.clone())));
    }

    sim.install_node(client_id, Box::new(Host::from_core(client.clone())));
    sim.install_node(gateway_id, Box::new(gateway));
    sim.install_node(server_id, Box::new(Host::from_core(server.clone())));
    sim.add_link(client_id, gateway_id, config.client_link.clone());
    match edge_id {
        // Pacing edge: client — gateway — edge — server. The WAN link (and
        // the adversary's gateway) stays downstream of the pacer, so the
        // tap observes post-shaping timing; the edge—server hop models an
        // intra-datacenter LAN: fast, clean, order-preserving.
        Some(edge_id) => {
            let mut edge = GatewayNode::new(client_id, server_id);
            let pace = config
                .defense
                .pacing()
                .expect("shaping defense always has a pacing bound");
            match config.defense {
                DefenseSpec::ConstantRate { .. } => {
                    edge.push_middlebox(ConstantRatePacer::new(Dir::RightToLeft, pace));
                }
                _ => {
                    edge.push_middlebox(AdaptivePacer::new(Dir::RightToLeft, pace));
                }
            }
            sim.install_node(edge_id, Box::new(edge));
            sim.add_link(gateway_id, edge_id, config.server_link.clone());
            let lan = LinkConfig::with_delay(SimDuration::from_micros(50))
                .bandwidth(calib::LINK_BANDWIDTH);
            sim.add_link(edge_id, server_id, lan);
        }
        None => {
            sim.add_link(gateway_id, server_id, config.server_link.clone());
        }
    }

    Scenario {
        sim,
        client,
        server,
        trace,
        truth,
        nodes: (client_id, gateway_id, server_id),
        violations,
        deadline: config.deadline,
    }
}

/// Runs a built scenario to completion (or its deadline) and collects the
/// result.
pub fn run_scenario(mut scenario: Scenario) -> RunResult {
    let deadline = h2priv_netsim::SimTime::ZERO + scenario.deadline;
    let summary = scenario.sim.run_until(deadline);
    let sched = scenario.sim.sched_stats();
    // The run is over, so nothing will write to the capture again: move
    // the trace and ground truth out of their shared cells instead of
    // deep-cloning them per trial.
    let trace = std::mem::replace(&mut *scenario.trace.borrow_mut(), WireTrace::new());
    let truth = std::mem::replace(&mut *scenario.truth.borrow_mut(), GroundTruth::new());
    let client = scenario.client.borrow();
    let server = scenario.server.borrow();
    let (violations, violations_total) = match &scenario.violations {
        Some(sink) => {
            let total = sink.total();
            (sink.take(), total)
        }
        None => (Vec::new(), 0),
    };
    RunResult {
        stop: summary.stop,
        outcomes: match &client.app {
            App::Client(browser) => browser.outcomes(),
            _ => Vec::new(),
        },
        truth,
        trace,
        client_tcp: client.tcp_stats(),
        server_tcp: server.tcp_stats(),
        broken: client.dead || server.dead,
        client_abort: client.abort_reason(),
        events: summary.events,
        sched,
        violations,
        violations_total,
        defense_dummies: server.shaper_dummies(),
        dos_alerts: server.dos_alerts(),
        guard: server.guard_stats(),
        pool_in_use: server.server().pool().map_or(0, |p| {
            let p = p.borrow();
            p.in_use() + p.parser_held()
        }),
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

    /// One attacker against one pooled, monitored server, plus handles to
    /// both cores for their end state.
    fn attack_run(
        attack: DosAttack,
        guarded: bool,
    ) -> (RunResult, Rc<RefCell<HostCore>>, Rc<RefCell<HostCore>>) {
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
        let scenario = build_scenario(&iw.site, &iw.plan, &config, None);
        let (client, server) = (scenario.client.clone(), scenario.server.clone());
        (run_scenario(scenario), client, server)
    }

    #[test]
    fn attacker_scenario_reports_no_browser_outcomes() {
        let (r, client, _) = attack_run(DosAttack::SettingsFlood, false);
        assert!(r.outcomes.is_empty());
        assert!(client.borrow().attacker().attack_started().is_some());
    }

    #[test]
    fn undefended_zero_window_hoard_pins_the_pool() {
        let (r, client, server) = attack_run(DosAttack::ZeroWindowHoard, false);
        assert_eq!(
            client.borrow().attacker().shed_at(),
            None,
            "no guard, nothing sheds"
        );
        let server = server.borrow();
        assert!(server.server().requests_seen() > 0);
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
            let (r, client, _) = attack_run(attack, true);
            let client = client.borrow();
            let attacker = client.attacker();
            assert!(
                attacker.shed_at().is_some(),
                "{}: guard never shed the attacker",
                attack.name()
            );
            assert!(
                r.dos_alerts.iter().any(|a| a.kind.name() == attack.name()),
                "{}: detector missed it (alerts: {:?})",
                attack.name(),
                r.dos_alerts
            );
            assert!(attacker.attack_started().is_some());
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
