//! # h2priv-testkit — canonical end-to-end scenarios
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). Glue between the substrates: a [`HostCore`]
//! stacks TCP + TLS + HTTP/2 + application (browser, slow-DoS attacker or
//! site server) for one endpoint, and one pair recipe builds every
//! client/server pair of cores — defense rewrite, DoS hardening, shaper,
//! oracle — for two drivers. [`build_scenario`]/[`run_scenario`] run one
//! pair on the paper's topology (client — lab gateway — website server)
//! with calibrated defaults ([`calib`]), each core on its own simulator
//! node; [`fleet`] runs populations of pairs, each shard's cores batched
//! behind two arena nodes. Tests, benches and examples all build their
//! worlds through this crate so that every experiment shares one vetted
//! wiring.

#![warn(missing_docs)]

pub mod calib;
pub mod fleet;
mod host;
mod pair;
mod scenario;
mod tap;

pub use host::{App, HostCore};
pub use scenario::{build_scenario, run_scenario, run_trial, RunResult, Scenario, ScenarioConfig};
