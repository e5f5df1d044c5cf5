//! # h2priv-defense — countermeasures against the serialization attack
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). The paper's §VII sketches defenses against its
//! traffic-analysis attack; this crate makes them concrete and pluggable so
//! the experiment driver can re-run the full adversary grid under each one
//! and chart the privacy-vs-overhead frontier:
//!
//! * [`PadSet`]/[`constrained_pad_set`] — *constrained padding* of object
//!   bodies to a small optimal size set with a bounded multiplicative
//!   overhead, after Reed & Reiter ("Optimally Hiding Object Sizes with
//!   Constrained Padding", arXiv:2108.01753). Applied at the web server,
//!   whose `h2priv-web` crate owns [`PadSet`]; it is re-exported here.
//! * Frame-size quantization — RFC 7540 §6.1 PADDED frames on a
//!   deterministic schedule; the mechanism lives in `h2priv-http2`
//!   (`H2Config::data_pad_quantum`), this crate only selects it.
//! * [`ConstantRatePacer`] — middlebox shaping: server→client data packets
//!   depart on a fixed time grid, destroying the inter-record timing the
//!   attack's burst segmentation feeds on.
//! * [`AdaptivePacer`] — middlebox shaping: per-packet randomized
//!   (order-preserving) departure jitter, the timing half of
//!   adaptive padding.
//! * [`TlsShaper`] — endpoint-side dummy-record injection: the host seals
//!   unsolicited PING-ACK frames as ordinary `application_data` records
//!   (in-stream, so TLS nonce continuity holds) during idle gaps, polluting
//!   the monitor's record counts and burst sizes.
//!
//! [`DefenseSpec`] names each countermeasure (and its knobs) for scenario
//! configs and the `repro defend --defense <name>` CLI.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod pacer;
mod padset;
mod shaper;
mod spec;

pub use h2priv_web::PadSet;
pub use pacer::{AdaptivePacer, ConstantRatePacer};
pub use padset::constrained_pad_set;
pub use shaper::{dummy_record_plaintext, TlsShaper, DUMMY_RECORD_LEN};
pub use spec::DefenseSpec;
