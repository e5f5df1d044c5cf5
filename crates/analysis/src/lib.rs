//! # h2priv-analysis — encrypted-traffic analysis
//!
//! Part of the `h2priv` reproduction of *"Depending on HTTP/2 for Privacy?
//! Good Luck!"* (DSN 2020). Everything the paper's eavesdropper computes
//! from captured traffic lives here, plus the simulation-side ground truth
//! used to score it:
//!
//! * [`WireTrace`]/[`ObservedPacket`] — the capture: each packet's header
//!   fields, sizes and timing, and the TLS records extracted from the
//!   payloads while the packets passed; of a payload it keeps only its
//!   length ([`PayloadLen`]), never the bytes or key material.
//! * [`StreamFollower`] — passive TCP reassembly (what `tshark` does),
//!   on the same `tcp::Reassembler` the endpoints use: each newly
//!   in-order range is handed on as a borrowed view of the segment in
//!   transit, never copied into a stream buffer.
//! * [`RecordExtractor`]/[`extract_records`] — keyless TLS record
//!   recovery that reads only record headers, skipping each encrypted
//!   fragment by its length, with no per-packet allocation; the capture
//!   and the adversary's online monitor each run one per direction.
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
pub use observed::{ObservedPacket, PayloadLen, WireTrace};
pub use records::{app_data_records, extract_records, RecordEvent, RecordExtractor};
pub use truth::{GroundTruth, ObjectRange};
