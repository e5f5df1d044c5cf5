//! The pair recipe: how every client/server pair of [`HostCore`]s is set
//! up.
//!
//! One driver runs pairs, the host arena ([`crate::fleet`]), and two entry
//! points assemble its shards: a paper trial
//! ([`build_scenario`](crate::build_scenario)) is a one-pair shard, and a
//! fleet shard ([`run_fleet_shard`](crate::fleet::run_fleet_shard)) holds
//! its share of a population. Both build every pair here, so the defense's
//! rewrite of the server config, the server stack, the slow-DoS hardening,
//! the shaper, the endpoint oracle and the choice of browser or attacker
//! are decided in one place. An entry point passes in only what differs
//! between them: the RNG stream, the session key, the ground-truth sink,
//! and the shared site and pool.

use std::cell::RefCell;
use std::rc::Rc;

use h2priv_analysis::GroundTruth;
use h2priv_conformance::ViolationSink;
use h2priv_defense::{constrained_pad_set, DefenseSpec, TlsShaper};
use h2priv_dos::{DosClient, DosConfig, DosDetector, ServerGuard};
use h2priv_http2::H2Config;
use h2priv_netsim::{SimDuration, SimRng};
use h2priv_tcp::Seq;
use h2priv_web::{BrowsePlan, Browser, SiteServer, Website, WorkerPool};

use crate::host::{App, HostCore, HostOracle};
use crate::scenario::ScenarioConfig;

/// The server's TCP initial sequence number; clients keep the default, so
/// the two directions' sequence spaces never overlap.
const SERVER_ISS: Seq = Seq(700_000);

/// The per-run half of the recipe: the stack and application configs,
/// with the defense's server-side rewrite applied once for every pair.
pub(crate) struct PairRecipe {
    config: ScenarioConfig,
    /// The `:authority` every browser request carries, shared by all
    /// cores of the run.
    authority: Rc<str>,
}

/// The per-pair half of the recipe: what the entry points choose per pair.
pub(crate) struct PairInputs<'a> {
    /// The pair's stream. The browser and then the server's workers each
    /// take one fork; an attacker burns the browser's, so the server's
    /// stream does not depend on which client the pair runs.
    pub rng: &'a mut SimRng,
    /// TLS session key of the pair's connection.
    pub session_key: u64,
    /// The site and plan the browser loads.
    pub site: &'a Website,
    /// The browser's plan (unused when the client is an attacker).
    pub plan: &'a BrowsePlan,
    /// The site the server serves, shared with the run's other servers.
    pub served: Rc<Website>,
    /// The slow-DoS workload the client mounts instead of a browser.
    pub attacker: Option<DosConfig>,
    /// Seal-time ground truth the server records, when the pair is
    /// measured.
    pub truth: Option<Rc<RefCell<GroundTruth>>>,
    /// The worker pool the server draws from, when bounded.
    pub pool: Option<Rc<RefCell<WorkerPool>>>,
    /// Endpoint conformance checkers report here, when the pair is checked.
    pub oracle: Option<&'a ViolationSink>,
}

impl PairRecipe {
    /// Takes the run's configs and applies its defense to the server side:
    /// constrained padding derives a pad set from `site`'s object sizes,
    /// frame quantization pads the server's HTTP/2 frames.
    /// `DefenseSpec::None` leaves both untouched byte for byte.
    pub(crate) fn new(mut config: ScenarioConfig, site: &Website) -> PairRecipe {
        match config.defense {
            DefenseSpec::ConstrainedPadding { overhead_per_mille } => {
                let sizes: Vec<usize> = site.objects().iter().map(|o| o.size).collect();
                config.server.pad = Some(constrained_pad_set(&sizes, overhead_per_mille));
            }
            DefenseSpec::FrameQuantize { quantum } => {
                config.server_h2.data_pad_quantum = quantum as usize;
                config.server_h2.headers_pad_quantum = quantum as usize;
            }
            _ => {}
        }
        PairRecipe {
            config,
            authority: Rc::from("www.isidewith.com"),
        }
    }

    /// Builds one pair's client and server cores. Under a shaping defense
    /// the server seals dummy records from the stream `shaper_rng` returns
    /// (called after both forks of `p.rng`); `None` leaves that server
    /// unshaped.
    pub(crate) fn build(
        &self,
        p: PairInputs<'_>,
        shaper_rng: impl FnOnce(&mut SimRng) -> Option<SimRng>,
    ) -> (HostCore, HostCore) {
        let c = &self.config;
        let core = |app, tcp, h2, truth| {
            HostCore::new(
                app,
                tcp,
                h2,
                p.session_key,
                self.authority.clone(),
                truth,
                c.socket_buffer,
            )
        };
        let (app, h2) = match p.attacker {
            Some(attack) => {
                let _ = p.rng.fork();
                (App::Attacker(DosClient::new(attack)), H2Config::default())
            }
            None => {
                let browser = Browser::new(p.site, p.plan.clone(), c.browser.clone(), p.rng.fork());
                (App::Client(browser), c.client_h2.clone())
            }
        };
        let mut client = core(app, c.tcp.clone(), h2, None);

        let mut site_server = SiteServer::new(p.served, c.server.clone(), p.rng.fork());
        if let Some(pool) = p.pool {
            site_server.set_pool(pool);
        }
        let mut server_tcp = c.tcp.clone();
        server_tcp.iss = SERVER_ISS;
        let mut server = core(
            App::Server(site_server),
            server_tcp,
            c.server_h2.clone(),
            p.truth,
        );
        if let Some(guard) = c.dos_guard {
            server.set_guard(ServerGuard::new(guard));
        }
        if let Some(detector) = c.dos_detector {
            server.set_detector(DosDetector::new(detector));
        }
        let shaper = match c.defense {
            DefenseSpec::ConstantRate { interval_us } => Some(TlsShaper::constant_rate(
                SimDuration::from_micros(interval_us as u64),
            )),
            DefenseSpec::AdaptivePadding {
                min_gap_us,
                spread_us,
            } => Some(TlsShaper::adaptive(
                SimDuration::from_micros(min_gap_us as u64),
                SimDuration::from_micros(spread_us as u64),
            )),
            _ => None,
        };
        if let Some(shaper) = shaper {
            if let Some(rng) = shaper_rng(p.rng) {
                server.set_shaper(shaper, rng);
            }
        }
        if let Some(sink) = p.oracle {
            client.set_oracle(HostOracle::new("client", true, sink.clone()));
            server.set_oracle(HostOracle::new("server", false, sink.clone()));
        }
        (client, server)
    }
}
