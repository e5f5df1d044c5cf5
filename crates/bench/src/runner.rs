//! Parallel trial execution.
//!
//! Every experimental point in the reproduction runs N independent seeded
//! trials. Each trial is a fully self-contained deterministic simulation,
//! so the batch is embarrassingly parallel — the only requirement is that
//! results are collected **in seed order**, which makes every downstream
//! summary bit-identical to a serial run regardless of worker count or
//! scheduling.
//!
//! [`run_seeded`] fans seeds out over a **persistent** worker pool
//! pulling from a shared atomic work index; each worker writes its result
//! into the seed's dedicated slot. The pool spawns its OS threads once and
//! reuses them for every subsequent batch — a `repro` invocation runs
//! hundreds of `run_seeded` calls, and per-call `thread::scope` spawning
//! was measurable setup noise at small trial counts ([`threads_spawned`]
//! is the regression assertion for this). The worker count per batch comes
//! from [`threads`] — settable once per process via [`set_threads`] (the
//! `repro` binary's `--threads` flag), defaulting to the machine's
//! available parallelism.
//!
//! The module also owns the run's [`Tally`]: every bench run hands its
//! simulator events, scheduler counters and conformance violations to
//! [`record`], and the `repro` binary [`take`]s the tally after each
//! exhibit for its `[timing]` line, `--bench-json` and the `--check`
//! verdict.

use std::collections::VecDeque;
use std::fmt::Display;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};

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

/// Sets the worker-pool size for all subsequent batches (0 = auto).
pub fn set_threads(n: usize) {
    THREADS.store(n, Ordering::SeqCst);
}

/// The effective worker-pool size: the configured value, or the machine's
/// available parallelism when unset.
pub fn threads() -> usize {
    match THREADS.load(Ordering::SeqCst) {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// A batch job handed to the persistent pool. Jobs are lifetime-erased to
/// `'static`; [`run_seeded`]'s completion latch is what makes that sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The process-wide worker pool: a plain mutex-guarded job queue and
/// parked OS threads. Workers are spawned on demand up to the largest
/// batch width ever requested and then live for the process — batches
/// enqueue jobs instead of spawning.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    /// OS threads spawned over the process lifetime (the pool-reuse
    /// regression metric).
    spawned: AtomicUsize,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        queue: Mutex::new(VecDeque::new()),
        available: Condvar::new(),
        spawned: AtomicUsize::new(0),
    })
}

impl Pool {
    fn ensure_workers(&'static self, want: usize) {
        let have = self.spawned.load(Ordering::Relaxed);
        for _ in have..want {
            self.spawned.fetch_add(1, Ordering::Relaxed);
            std::thread::Builder::new()
                .name("repro-worker".into())
                .spawn(move || self.worker_loop())
                .expect("spawn pool worker");
        }
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("pool queue poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self.available.wait(queue).expect("pool queue poisoned");
                }
            };
            // A panicking job must not kill the worker: the batch's latch
            // guard reports the panic to its submitter, and this thread
            // goes back to the queue for the next batch.
            let _ = std::panic::catch_unwind(AssertUnwindSafe(job));
        }
    }

    fn submit(&self, job: Job) {
        self.queue
            .lock()
            .expect("pool queue poisoned")
            .push_back(job);
        self.available.notify_one();
    }
}

/// OS worker threads spawned by [`run_seeded`] over the process lifetime.
/// Stays flat across repeated batches — the pool-reuse regression
/// assertion.
pub fn threads_spawned() -> usize {
    pool().spawned.load(Ordering::Relaxed)
}

/// Completion latch for one batch: counts finished jobs and remembers
/// whether any of them panicked.
struct Latch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

/// Counts a job as finished on drop — including drops during unwinding,
/// which is what keeps [`run_seeded`]'s wait loop (and the soundness
/// argument below) intact when a trial panics.
struct LatchGuard<'a>(&'a Latch);

impl Drop for LatchGuard<'_> {
    fn drop(&mut self) {
        let mut state = self
            .0
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.0 += 1;
        if std::thread::panicking() {
            state.1 = true;
        }
        self.0.done.notify_all();
    }
}

/// Runs `f(seed)` for every seed in `0..n`, fanning out across the
/// persistent worker pool, and returns the results **ordered by seed** —
/// bit-identical to `(0..n).map(f).collect()` because every trial derives
/// all randomness from its own seed.
///
/// Panics if any trial panicked (after every in-flight job of the batch
/// has finished).
pub fn run_seeded<T, F>(n: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let workers = threads()
        .min(usize::try_from(n).unwrap_or(usize::MAX))
        .max(1);
    if workers <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // One slot per seed; workers race only on the shared work index, never
    // on each other's slots.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicU64::new(0);
    let latch = Latch {
        state: Mutex::new((0, false)),
        done: Condvar::new(),
    };
    let pool = pool();
    pool.ensure_workers(workers);
    for _ in 0..workers {
        let job: Box<dyn FnOnce() + Send + '_> = Box::new(|| {
            // The guard counts this job finished even if `f` panics.
            let _guard = LatchGuard(&latch);
            loop {
                let seed = next.fetch_add(1, Ordering::Relaxed);
                if seed >= n {
                    break;
                }
                let out = f(seed);
                *slots[seed as usize].lock().expect("slot lock poisoned") = Some(out);
            }
        });
        // SAFETY: the job borrows only locals of this call (`f`, `slots`,
        // `next`, `latch`). Erasing its lifetime is sound because this
        // function does not return — normally or by panic — until the
        // latch below has counted every submitted job, and a job's guard
        // only fires after its last use of those borrows (the captured
        // references themselves are dropped without being dereferenced).
        // This is the standard scoped-pool pattern, with the latch playing
        // the role of `thread::scope`'s join.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
        pool.submit(job);
    }
    let mut state = latch.state.lock().expect("latch poisoned");
    while state.0 < workers {
        state = latch.done.wait(state).expect("latch poisoned");
    }
    let panicked = state.1;
    drop(state);
    if panicked {
        panic!("a run_seeded trial panicked (see worker output above)");
    }
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
    fn worker_pool_is_reused_across_batches() {
        // Warm the pool to the machine's full width (the most any
        // concurrently-running test can demand), then verify that repeated
        // batches run on the same OS threads instead of spawning new ones.
        let _ = run_seeded(2 * threads() as u64, |s| s);
        let before = threads_spawned();
        for _ in 0..5 {
            let out = run_seeded(64, |s| s * 2);
            assert_eq!(out[63], 126);
        }
        assert_eq!(
            threads_spawned(),
            before,
            "run_seeded must reuse the persistent pool, not respawn workers"
        );
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
        // The pool survives the panic and keeps serving batches.
        assert_eq!(run_seeded(4, |s| s + 1), vec![1, 2, 3, 4]);
    }
}
