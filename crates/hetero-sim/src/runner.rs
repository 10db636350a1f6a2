//! Deterministic parallel run execution.
//!
//! Every sweep in the workspace — the `repro` figure targets, the policy ×
//! seed matrices of the integration tests, the experiment drivers — is a
//! set of *independent* runs: each is a pure function of its descriptor
//! (config, policy, seed), drawing randomness only from its own
//! [`SimRng`](crate::SimRng) stream. [`Runner`] executes such a set across
//! a fixed-size OS-thread pool and merges the results **in descriptor
//! order**, so the output is byte-identical regardless of thread count or
//! completion order.
//!
//! The determinism contract (DESIGN.md §10):
//!
//! * **per-run isolation** — the job closure must not mutate shared state;
//!   it receives its descriptor by value and returns its result by value.
//!   Each run seeds its own RNG from the descriptor, so draw order inside
//!   one run never depends on what other runs do;
//! * **descriptor-order merge** — results come back in the order the
//!   descriptors were submitted, not completion order;
//! * **thread-count independence** — `Runner::new(1)` and `Runner::new(n)`
//!   produce identical output for the same descriptor list. A sequential
//!   fallback runs on the caller's thread when the pool would be pointless
//!   (one job, or one worker).
//!
//! # Examples
//!
//! ```
//! use hetero_sim::runner::Runner;
//! use hetero_sim::SimRng;
//!
//! // Each run derives its own RNG stream from its descriptor.
//! let seeds: Vec<u64> = (0..16).collect();
//! let draws = |seeds: Vec<u64>, jobs: usize| {
//!     Runner::new(jobs).run(seeds, |s| SimRng::seed_from(s).next_u64())
//! };
//! assert_eq!(draws(seeds.clone(), 1), draws(seeds, 4));
//! ```

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::Mutex;
use std::thread;

/// The host's available parallelism, with a fallback of 1 when the
/// platform cannot report it.
pub fn available_jobs() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed-size parallel executor for independent, deterministic runs.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Runner {
    jobs: usize,
}

impl Default for Runner {
    /// A sequential runner (`jobs = 1`).
    fn default() -> Self {
        Runner::new(1)
    }
}

impl Runner {
    /// Creates a runner with a pool of `jobs` worker threads. `jobs == 0`
    /// means "use [`available_jobs`]".
    pub fn new(jobs: usize) -> Self {
        Runner {
            jobs: if jobs == 0 { available_jobs() } else { jobs },
        }
    }

    /// The configured pool size (always ≥ 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Executes one job per descriptor across the pool and returns the
    /// results in descriptor order.
    ///
    /// Workers pull descriptors from a shared queue (so an expensive run
    /// does not serialize behind cheap ones) and deposit each result into
    /// the slot indexed by its descriptor position; the merge step then
    /// reads the slots front to back. Completion order is irrelevant to
    /// the output.
    ///
    /// # Panics
    ///
    /// Panics are not swallowed: if any job panics (e.g. an assertion in a
    /// test matrix), the panic propagates to the caller after the pool is
    /// joined, exactly as in a sequential loop.
    pub fn run<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items.into_iter().map(f).collect();
        }
        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        // A panicking sibling poisons the queue; recover
                        // the guard so its own panic is the one the caller
                        // sees, not a lock error.
                        let job = queue
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .pop_front();
                        let Some((idx, item)) = job else { break };
                        let result = f(item);
                        *slots[idx]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                    })
                })
                .collect();
            // Join explicitly and re-raise the original payload: the
            // scope's automatic join would replace a job's panic message
            // with a generic "a scoped thread panicked".
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .expect("scope joined, so every descriptor produced a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimRng;

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert_eq!(Runner::new(0).jobs(), available_jobs());
        assert!(Runner::new(0).jobs() >= 1);
        assert_eq!(Runner::new(3).jobs(), 3);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u64> = Runner::new(4).run(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn results_come_back_in_descriptor_order() {
        // Jobs finish in scrambled order (later descriptors do less work);
        // the merge must still be descriptor-ordered.
        let items: Vec<u64> = (0..64).collect();
        let out = Runner::new(8).run(items.clone(), |i| {
            let mut rng = SimRng::seed_from(i);
            let spins = (64 - i) * 1000;
            let mut acc = 0u64;
            for _ in 0..spins {
                acc = acc.wrapping_add(rng.next_u64());
            }
            std::hint::black_box(acc);
            i * 2
        });
        assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_identical_across_thread_counts() {
        let run = |jobs: usize| {
            Runner::new(jobs).run((0..40u64).collect(), |s| {
                let mut rng = SimRng::seed_from(s);
                (0..100)
                    .map(|_| rng.next_u64())
                    .fold(0u64, u64::wrapping_add)
            })
        };
        let reference = run(1);
        for jobs in [2, 3, 4, 7, 16] {
            assert_eq!(run(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let out = Runner::new(32).run(vec![1u64, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn job_panics_propagate_to_the_caller() {
        Runner::new(4).run((0..8u64).collect(), |i| {
            assert!(i != 3, "job {i} failed");
            i
        });
    }
}
