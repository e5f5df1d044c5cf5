//! Regression guard for the parallel trial runner: a `Batch` produced with
//! any worker count must be bit-identical to the serial run. Every trial is
//! seeded and self-contained, and `run_seeded` collects results in seed
//! order, so nothing downstream may observe the thread count.

use std::sync::Mutex;

use h2priv_bench::common::{run_batch, Batch};
use h2priv_bench::runner;
use h2priv_core::AttackConfig;
use h2priv_netsim::SimDuration;

const TRIALS: u64 = 6;

/// The worker count is process-global, so tests that flip it must not
/// overlap.
static THREAD_KNOB: Mutex<()> = Mutex::new(());

fn batch_fingerprint(batch: &Batch) -> Vec<u64> {
    let mut fp = Vec::new();
    let mut counts = vec![batch.html_non_mux(), batch.html_success(), batch.broken()];
    counts.extend((0..8).map(|rank| batch.rank_correct(rank)));
    // Per object of interest (0 = HTML, 1..=8 = images by party): trials
    // that identified it, and its degrees of multiplexing.
    for index in 0..9 {
        counts.push(batch.count(|(_, a)| a.objects[index].success));
        fp.extend(batch.degrees(index).iter().map(|d| d.to_bits()));
    }
    fp.extend(counts.iter().flat_map(|c| [c.k, c.n]));
    fp.push(batch.total_retransmissions());
    // Per-trial event counts pin down the raw engine runs, not just the
    // aggregated statistics.
    fp.extend(batch.trials.iter().map(|(t, _)| t.result.events));
    fp
}

fn run_with_threads(threads: usize, attack: Option<&AttackConfig>) -> Vec<u64> {
    runner::set_threads(threads);
    let map = h2priv_bench::common::calibrated_map();
    let batch = run_batch(TRIALS, attack, &map, |_| {});
    runner::set_threads(0);
    batch_fingerprint(&batch)
}

#[test]
fn parallel_batches_match_serial_bit_for_bit() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let serial = run_with_threads(1, None);
    for threads in [2, 4] {
        let parallel = run_with_threads(threads, None);
        assert_eq!(
            serial, parallel,
            "baseline batch diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn parallel_attack_batches_match_serial_bit_for_bit() {
    let _guard = THREAD_KNOB.lock().unwrap();
    let attack = AttackConfig::jitter_only(SimDuration::from_millis(50));
    let serial = run_with_threads(1, Some(&attack));
    for threads in [2, 4] {
        let parallel = run_with_threads(threads, Some(&attack));
        assert_eq!(
            serial, parallel,
            "attack batch diverged between 1 and {threads} threads"
        );
    }
}
