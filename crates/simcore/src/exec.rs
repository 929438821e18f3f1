//! The runtime seam: deterministic or threaded execution of simulation
//! jobs.
//!
//! The event loop itself ([`crate::sim::Simulator`]) stays strictly
//! single-threaded — that is what makes a `World` bit-for-bit
//! reproducible and lets it serve as a correctness oracle. Scale comes
//! from *above* the loop: production-size experiments are decomposed
//! into independent deterministic worlds (shards), and an [`Executor`]
//! decides whether those run one after another on the calling thread or
//! spread across a pool of threads. The seam mirrors the other
//! swap-points of the stack (`PendingEvents`, `CcFactory`,
//! `PathSelection`): callers program against the trait, differential
//! tests drive both implementations and assert bit-identical outputs.
//!
//! * [`DeterministicExecutor`] — runs jobs in submission order on the
//!   calling thread. The oracle: zero concurrency, zero ambiguity.
//! * [`ThreadedExecutor`] — `min(workers, jobs)` scoped OS threads
//!   claim jobs through one shared atomic cursor, so an idle thread
//!   always takes the next unclaimed job and uneven jobs balance
//!   themselves. Each thread hands its `(index, output)` pairs back
//!   when joined, and outputs are placed by job index, so the caller
//!   observes exactly the deterministic executor's output sequence —
//!   scheduling interleaving can never leak into results.
//!
//! # Contract
//!
//! Jobs must be independent: no job may wait on another. The threaded
//! executor may run any subset of them on one thread in any order, and
//! the deterministic executor runs them all on one. A job that panics
//! fails the whole [`Executor::execute`] call with that panic.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A type-erased job output (see [`execute_typed`] for the typed view).
pub type JobOutput = Box<dyn Any + Send>;

/// A type-erased job: runs once on some worker, produces an output.
pub type Job = Box<dyn FnOnce() -> JobOutput + Send>;

/// Where simulation jobs run — see the [module docs](self).
pub trait Executor: Sync {
    /// Stable identifier for logs and bench keys.
    fn name(&self) -> &'static str;

    /// Runs every job, returning outputs **in job order** regardless of
    /// completion order.
    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput>;
}

/// Typed front-end over [`Executor::execute`]: boxes the closures up,
/// downcasts the outputs back.
///
/// # Panics
///
/// Panics if the executor returns a wrong-typed or missing output —
/// both indicate a broken `Executor` implementation, not a caller error.
pub fn execute_typed<T: Send + 'static>(
    exec: &dyn Executor,
    jobs: Vec<Box<dyn FnOnce() -> T + Send>>,
) -> Vec<T> {
    let boxed: Vec<Job> = jobs
        .into_iter()
        .map(|job| -> Job { Box::new(move || Box::new(job()) as JobOutput) })
        .collect();
    exec.execute(boxed)
        .into_iter()
        .map(|out| *out.downcast::<T>().expect("executor preserved job types"))
        .collect()
}

/// Runs jobs in submission order on the calling thread — the oracle
/// every threaded run is differentially tested against.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeterministicExecutor;

impl Executor for DeterministicExecutor {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        jobs.into_iter().map(|job| job()).collect()
    }
}

/// A pool of OS threads sharing one job cursor (see the
/// [module docs](self)).
///
/// Threads are scoped to one [`Executor::execute`] call: the pool holds
/// no global state between calls and cannot leak threads.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedExecutor {
    workers: usize,
}

impl ThreadedExecutor {
    /// Creates a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> ThreadedExecutor {
        ThreadedExecutor {
            workers: workers.max(1),
        }
    }
}

impl Executor for ThreadedExecutor {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn execute(&self, jobs: Vec<Job>) -> Vec<JobOutput> {
        let total = jobs.len();
        // Job slots: each claimed exactly once, by whichever thread's
        // cursor increment lands on its index.
        let slots: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let cursor = AtomicUsize::new(0);
        let mut outputs: Vec<Option<JobOutput>> = (0..total).map(|_| None).collect();
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..self.workers.min(total))
                .map(|_| {
                    scope.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            // Relaxed suffices: the cursor only hands out
                            // indices; each job moves through its slot's
                            // mutex and each output back through `join`.
                            let idx = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(slot) = slots.get(idx) else {
                                break done;
                            };
                            let job = slot
                                .lock()
                                .expect("job slot poisoned")
                                .take()
                                .expect("job claimed twice");
                            done.push((idx, job()));
                        }
                    })
                })
                .collect();
            for thread in threads {
                let done = thread
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                for (idx, out) in done {
                    outputs[idx] = Some(out);
                }
            }
        });
        outputs
            .into_iter()
            .map(|o| o.expect("every job delivered exactly one output"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares_job(i: u64) -> Box<dyn FnOnce() -> u64 + Send> {
        Box::new(move || i * i)
    }

    #[test]
    fn deterministic_runs_in_order() {
        let order = std::sync::Arc::new(Mutex::new(Vec::new()));
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..8usize)
            .map(|i| {
                let order = order.clone();
                Box::new(move || {
                    order.lock().unwrap().push(i);
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = execute_typed(&DeterministicExecutor, jobs);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_preserves_job_order_in_outputs() {
        for workers in [1, 2, 4, 8] {
            let exec = ThreadedExecutor::new(workers);
            assert_eq!(exec.workers, workers);
            let jobs: Vec<_> = (0..50u64).map(squares_job).collect();
            let out = execute_typed(&exec, jobs);
            assert_eq!(
                out,
                (0..50u64).map(|i| i * i).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn threaded_matches_deterministic_bit_for_bit() {
        // The seam's core promise: for independent deterministic jobs the
        // executor choice is unobservable in the outputs.
        let make_jobs = || -> Vec<Box<dyn FnOnce() -> Vec<u64> + Send>> {
            (0..16u64)
                .map(|i| {
                    Box::new(move || {
                        // A deterministic per-job computation with state.
                        let mut acc = Vec::new();
                        let mut x = i + 1;
                        for _ in 0..100 {
                            x = x
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            acc.push(x);
                        }
                        acc
                    }) as Box<dyn FnOnce() -> Vec<u64> + Send>
                })
                .collect()
        };
        let oracle = execute_typed(&DeterministicExecutor, make_jobs());
        for workers in [2, 4, 8] {
            let threaded = execute_typed(&ThreadedExecutor::new(workers), make_jobs());
            assert_eq!(oracle, threaded, "{workers} workers diverged from oracle");
        }
    }

    #[test]
    fn uneven_jobs_all_complete_in_order() {
        // Job 0 is huge and the rest are small: while one thread is stuck
        // on it the others drain the cursor, so the wall time is bounded
        // by the huge job and — observable without timing — every job
        // still completes.
        let exec = ThreadedExecutor::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..40u64)
            .map(|i| {
                Box::new(move || {
                    let spins = if i == 0 { 2_000_000 } else { 1_000 };
                    let mut x = i;
                    for _ in 0..spins {
                        x = x.wrapping_mul(31).wrapping_add(7);
                    }
                    std::hint::black_box(x);
                    i
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let out = execute_typed(&exec, jobs);
        assert_eq!(out, (0..40u64).collect::<Vec<_>>());
    }

    /// Runs 20 jobs on `workers` threads; job 5 panics.
    fn run_with_a_panicking_job(workers: usize) {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..20u64)
            .map(|i| {
                Box::new(move || {
                    assert_ne!(i, 5, "job 5 failed");
                    i
                }) as Box<dyn FnOnce() -> u64 + Send>
            })
            .collect();
        let _ = execute_typed(&ThreadedExecutor::new(workers), jobs);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_fails_the_call_at_every_worker_count() {
        // The call must re-raise the job's panic, not hang waiting for
        // an output that never comes.
        for workers in [1, 2] {
            let failed = std::panic::catch_unwind(|| run_with_a_panicking_job(workers)).is_err();
            assert!(failed, "{workers} workers swallowed a job panic");
        }
        run_with_a_panicking_job(4);
    }

    #[test]
    fn empty_job_list() {
        assert!(ThreadedExecutor::new(4).execute(Vec::new()).is_empty());
        assert!(DeterministicExecutor.execute(Vec::new()).is_empty());
    }

    #[test]
    fn more_workers_than_jobs() {
        let out = execute_typed(
            &ThreadedExecutor::new(8),
            (0..2u64).map(squares_job).collect(),
        );
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        let exec = ThreadedExecutor::new(0);
        assert_eq!(exec.workers, 1);
        let out = execute_typed(&exec, (0..3u64).map(squares_job).collect());
        assert_eq!(out, vec![0, 1, 4]);
    }
}
