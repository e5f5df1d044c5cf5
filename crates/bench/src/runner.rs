//! Parallel trial execution.
//!
//! Every experimental point in the reproduction runs N independent seeded
//! trials. Each trial is a fully self-contained deterministic simulation,
//! so the batch is embarrassingly parallel — the only requirement is that
//! results are collected **in seed order**, which makes every downstream
//! summary bit-identical to a serial run regardless of worker count or
//! scheduling.
//!
//! [`run_seeded`] fans each batch out over `min(threads(), n)` scoped
//! worker threads pulling from a shared atomic work index; each worker
//! writes its result into the seed's dedicated slot, and the batch returns
//! once every worker has joined. The worker count comes from [`threads`] —
//! settable once per process via [`set_threads`] (the `repro` binary's
//! `--threads` flag), defaulting to the machine's available parallelism.
//!
//! The module also owns the run's [`Tally`]: every bench run hands its
//! simulator events, scheduler counters and conformance violations to
//! [`record`], and the `repro` binary [`take`]s the tally after each
//! exhibit for its `[timing]` line, `--bench-json` and the `--check`
//! verdict.

use std::fmt::Display;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use h2priv_netsim::SchedStats;

/// Configured worker count; 0 = auto (available parallelism).
static THREADS: AtomicUsize = AtomicUsize::new(0);

/// Whether trials run with the conformance oracle (the `--check` flag).
/// Off by default so the perf baseline measures the stacks, not the
/// checkers.
static CONFORMANCE: AtomicBool = AtomicBool::new(false);

/// What the runs recorded since the last [`take`] (`None` = nothing yet).
static TALLY: Mutex<Option<Tally>> = Mutex::new(None);

/// Violation details a tally stores for the end-of-run diagnostic.
const MAX_VIOLATION_SAMPLES: usize = 16;

/// Counters summed over the runs recorded since the last [`take`].
#[derive(Debug, Default)]
pub struct Tally {
    /// Simulator events processed.
    pub events: u64,
    /// Event-scheduler counters, merged with [`SchedStats::merge`]:
    /// counts add, peaks take the maximum.
    pub sched: SchedStats,
    /// Conformance violations reported, including any past the samples.
    pub violations: u64,
    /// The first few violations' details.
    pub samples: Vec<String>,
}

/// Adds one run's counters to the tally: its `events`, its `sched`
/// counters, its `violations` total and the stored violations behind it.
/// Every bench run reaches the tally through this one call.
pub fn record(events: u64, sched: &SchedStats, violations: u64, samples: &[impl Display]) {
    let mut guard = TALLY.lock().expect("tally lock poisoned");
    let tally = guard.get_or_insert_default();
    tally.events += events;
    tally.sched.merge(sched);
    tally.violations += violations;
    tally
        .samples
        .extend(samples.iter().map(ToString::to_string));
    tally.samples.truncate(MAX_VIOLATION_SAMPLES);
}

/// Drains the tally, returning everything recorded since the previous
/// take. Exhibits run one after another, so taking after each yields
/// per-exhibit counters, peaks included.
pub fn take() -> Tally {
    TALLY
        .lock()
        .expect("tally lock poisoned")
        .take()
        .unwrap_or_default()
}

/// Turns the conformance oracle on/off for all subsequent trials.
pub fn set_conformance(on: bool) {
    CONFORMANCE.store(on, Ordering::SeqCst);
}

/// True when trials should run with the conformance oracle attached.
pub fn conformance_enabled() -> bool {
    CONFORMANCE.load(Ordering::SeqCst)
}

/// Sets the worker count for all subsequent batches (0 = auto).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The effective worker count: the configured value, or the machine's
/// available parallelism when unset.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Runs `f(seed)` for every seed in `0..n`, fanning out across up to
/// [`threads`] scoped workers, and returns the results **ordered by seed**
/// — bit-identical to `(0..n).map(f).collect()` because every trial
/// derives all randomness from its own seed.
///
/// Panics if any trial panicked (after every worker of the batch has
/// finished).
pub fn run_seeded<T, F>(n: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = threads().min(usize::try_from(n).unwrap_or(usize::MAX));
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // One slot per seed; workers race only on the shared work index, never
    // on each other's slots.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicU64::new(0);
    // `scope` joins every worker before it returns, and re-raises a
    // worker's panic only after that.
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= n {
                    break;
                }
                let out = f(seed);
                *slots[seed as usize].lock().expect("slot lock poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_are_seed_ordered() {
        let out = run_seeded(100, |seed| seed * 3);
        assert_eq!(out, (0..100).map(|s| s * 3).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_trial_edge_cases() {
        assert_eq!(run_seeded(0, |s| s), Vec::<u64>::new());
        assert_eq!(run_seeded(1, |s| s), vec![0]);
    }

    #[test]
    fn tally_holds_the_runs_recorded_until_taken() {
        // Other tests record concurrently but never take, and without
        // `--check` they record no violations.
        record(123, &SchedStats::default(), 2, &["late ack"]);
        let tally = take();
        assert!(tally.events >= 123);
        assert_eq!(tally.violations, 2);
        assert_eq!(tally.samples, ["late ack"]);
    }

    #[test]
    fn threads_default_is_positive() {
        assert!(threads() >= 1);
    }

    #[test]
    fn trials_run_concurrently() {
        if threads() < 2 {
            return;
        }
        // Trial 0 waits for a message only trial 1 sends: run serially,
        // trial 0 gives up before trial 1 starts.
        let (tx, rx) = std::sync::mpsc::channel();
        let rx = Mutex::new(rx);
        let heard = run_seeded(2, |seed| {
            if seed == 1 {
                tx.send(()).expect("the receiver outlives the batch");
                return true;
            }
            rx.lock()
                .expect("receiver lock poisoned")
                .recv_timeout(Duration::from_secs(5))
                .is_ok()
        });
        assert!(heard[0], "trial 0 never had trial 1 in flight beside it");
    }

    #[test]
    fn trial_panic_propagates_after_the_batch_drains() {
        let result = std::panic::catch_unwind(|| {
            run_seeded(8, |seed| {
                if seed == 3 {
                    panic!("boom");
                }
                seed
            })
        });
        assert!(result.is_err(), "a panicking trial must fail the batch");
        // The next batch runs normally.
        assert_eq!(run_seeded(4, |s| s + 1), vec![1, 2, 3, 4]);
    }
}
