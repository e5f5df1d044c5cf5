//! # h2priv-testkit — canonical end-to-end scenarios
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). Glue between the substrates: a host core
//! stacks TCP + TLS + HTTP/2 + application (browser, slow-DoS attacker or
//! site server) for one endpoint, one pair recipe builds every
//! client/server pair of cores — defense rewrite, DoS hardening, shaper,
//! oracle — and one driver runs them: the host arena of [`fleet`], which
//! slabs a shard's cores behind two arena nodes. Two entry points assemble
//! its shards. [`build_scenario`]/[`run_scenario`] run one pair on the
//! paper's topology (client — lab gateway — website server) with
//! calibrated defaults ([`calib`]); [`fleet`] runs populations of pairs.
//! Tests, benches and examples all build their worlds through this crate
//! so that every experiment shares one vetted wiring.

#![warn(missing_docs)]

pub mod calib;
pub mod fleet;
mod host;
mod pair;
mod scenario;
mod tap;

pub use scenario::{build_scenario, run_scenario, run_trial, RunResult, Scenario, ScenarioConfig};
