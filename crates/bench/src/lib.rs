//! # h2priv-bench — the experiment harness
//!
//! Regenerates every table and figure of *"Depending on HTTP/2 for
//! Privacy? Good Luck!"* (DSN 2020) against the simulated substrates, one
//! module per exhibit:
//!
//! * [`fig1`] — the size-recovery concept (sequential vs multiplexed);
//! * [`table1`] — the §IV-B jitter sweep;
//! * [`fig5`] — the §IV-C bandwidth sweep;
//! * [`ivd`] — the §IV-D targeted-drop / forced-reset experiment;
//! * [`table2`] — the full §V attack's prediction accuracy;
//! * [`ablations`] — design-choice ablations and the §VII defense sketch;
//! * [`defend`] — the countermeasure arena: padding and shaping defenses
//!   evaluated against the full adversary grid (privacy vs. overhead);
//! * [`dos`] — the slow-rate DoS triad: attack workloads vs. server
//!   hardening vs. the online detector, standalone and at fleet scale;
//! * [`fleet`] — the population-scale contention run (N pairs sharing the
//!   gateway, victim throttled among bystanders), with the knobs for
//!   million-pair sittings (`--spread`/`--progress`) and the `scaleout`
//!   parallel-efficiency exhibit
//!   ([`fleet::scaleout`]: the same population at `--threads` 1/2/4/8,
//!   identical outcome rows asserted, wall-clock and efficiency recorded).
//!
//! Each returns a [`table::Report`]: tables of counted cells plus free
//! text. The `repro` binary prints them in the paper's layout, or as one
//! [`json`] document; [`runner`] fans trials out over threads, and
//! [`common`] counts over a trial batch. `EXPERIMENTS.md` records
//! paper-vs-measured values. Timing lives in `pagebench/`, which
//! measures wall-clock per simulated page load.

#![warn(missing_docs)]

pub mod ablations;
pub mod common;
pub mod defend;
pub mod dos;
pub mod fig1;
pub mod fig5;
pub mod fleet;
pub mod ivd;
pub mod json;
pub mod runner;
pub mod table;
pub mod table1;
pub mod table2;
