//! # h2priv-analysis — encrypted-traffic analysis
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). Everything the paper's eavesdropper computes
//! from captured traffic lives here, plus the simulation-side ground truth
//! used to score it:
//!
//! * [`WireTrace`]/[`ObservedPacket`] — the capture: header fields, sizes,
//!   timings, encrypted payload octets; never key material.
//! * [`StreamFollower`] — passive TCP reassembly (what `tshark` does),
//!   on the same `tcp::Reassembler` the endpoints use: each newly
//!   in-order range is handed on as a borrowed view of the captured
//!   segment, never copied into a stream buffer.
//! * [`RecordExtractor`]/[`extract_records`] — keyless TLS record
//!   recovery that reads only record headers, skipping each encrypted
//!   fragment by its length, with no per-packet allocation;
//!   [`app_data_records`] is the paper's `ssl.record.content_type == 23`
//!   filter.
//! * [`segment_bursts`] — the Fig. 1 boundary heuristic lifted to record
//!   level: serialized responses form bursts whose summed sizes identify
//!   objects.
//! * [`GroundTruth`] — the §II-A *degree of multiplexing* metric, computed
//!   from seal-time annotations the simulation host records, one pass over
//!   the ranges per scored instance.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bursts;
mod follower;
mod observed;
mod records;
#[cfg(test)]
mod records_tests_extra;
pub mod stats;
mod truth;

pub use bursts::{segment_bursts, Burst};
pub use follower::StreamFollower;
pub use observed::{ObservedPacket, WireTrace};
pub use records::{app_data_records, extract_records, RecordEvent, RecordExtractor};
pub use truth::{GroundTruth, ObjectRange};
