//! # h2priv-web — website and browser model
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). The paper's evaluation target is the
//! `isidewith.com` survey site as browsed by lab volunteers on Firefox;
//! this crate models both ends of that workload:
//!
//! * [`Website`]/[`WebObject`] — static sites as path → (kind, size) maps
//!   with deterministic bodies.
//! * [`isidewith`] — the target instance: 9 500 B result HTML, 47 embedded
//!   objects, 8 emblem images of 5–16 KB requested in the user's
//!   preference order with Table II's inter-request gaps.
//! * [`Browser`] — the client state machine: phase-gated request schedule
//!   with timing noise, stall detection, `RST_STREAM` + re-request on
//!   stalled responses (the Firefox behaviour §IV-D exploits).
//! * [`SiteServer`] — the server application: one worker per accepted
//!   request, duplicates served in full (the §IV-B duplicate-service
//!   behaviour), optionally padding bodies to a [`PadSet`].

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod browser;
pub mod isidewith;
pub mod newssite;
mod object;
mod padset;
mod plan;
mod server;
mod site;
pub mod streaming;

pub use browser::{Browser, BrowserCmd, BrowserConfig, RequestOutcome};
pub use object::{ObjectId, ObjectKind, WebObject};
pub use padset::PadSet;
pub use plan::{BrowsePlan, Phase, PlanStep, Trigger};
pub use server::{PoolConfig, PoolStats, Response, SiteServer, SiteServerConfig, WorkerPool};
pub use site::Website;
