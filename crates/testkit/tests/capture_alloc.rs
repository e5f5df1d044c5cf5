//! Memory pins for the gateway capture.
//!
//! The capture keeps what the eavesdropper reads: each packet's header
//! fields and payload length, and the TLS records extracted while the
//! packets passed. It keeps no view of a payload, so no sealed run buffer
//! outlives its acknowledgement on the capture's account. This binary
//! installs the counting allocator from `h2priv-bytes` (the `count-allocs`
//! dev feature) and pins two figures of a paper page load (the isidewith
//! result page, no attack) on the process-wide byte gauge: the peak of
//! live heap bytes while the load runs, and the bytes its finished
//! `RunResult` still holds.
//!
//! One warm-up load runs first, because the first load on a thread fills
//! the server's per-thread body memo. Each bound is a quarter above the
//! largest value measured over the trial seeds below. A capture that
//! keeps a view of every payload peaks at 3.9–4.2 MB and holds 3.5–3.6 MB
//! on the same loads, far above both bounds.

use h2priv_bytes::count_alloc::{bytes_live, measure_peak_bytes, CountingAlloc};
use h2priv_testkit::{run_trial, ScenarioConfig};
use h2priv_web::isidewith;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A paper load's largest measured peak of live heap bytes.
const PEAK_MEASURED: u64 = 878_040;
/// The bytes each measured load's finished result held.
const RETAINED_MEASURED: u64 = 383_368;
const MAX_PEAK_BYTES: u64 = PEAK_MEASURED * 5 / 4;
const MAX_RETAINED_BYTES: u64 = RETAINED_MEASURED * 5 / 4;

#[test]
fn a_paper_load_keeps_no_payload_bytes() {
    let iw = isidewith::build(&[3, 1, 4, 0, 6, 2, 7, 5]);
    let load = |seed: u64| {
        let cfg = ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        };
        run_trial(&iw.site, &iw.plan, &cfg, None)
    };
    drop(load(1 << 32));
    for seed in 1..=3 {
        // Bytes the finished result holds: the live gauge's rise over the
        // load, with the result still alive.
        let before = bytes_live();
        let (result, peak) = measure_peak_bytes(|| load(1 << 32 | seed));
        let retained = bytes_live().saturating_sub(before);
        let done = result.outcomes.iter().all(|o| o.completed_at.is_some());
        assert!(done, "seed {seed}: the load did not complete");
        assert!(
            peak <= MAX_PEAK_BYTES,
            "seed {seed}: a paper load peaked at {peak} bytes (bound {MAX_PEAK_BYTES})"
        );
        assert!(
            retained <= MAX_RETAINED_BYTES,
            "seed {seed}: a finished load holds {retained} bytes (bound {MAX_RETAINED_BYTES})"
        );
    }
}
