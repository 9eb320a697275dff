//! Scoped fan-out over at most a fixed number of threads.
//!
//! A [`WorkerPool`] is a width, not a set of threads. [`WorkerPool::scope`]
//! collects the jobs its closure spawns, then drains them on the calling
//! thread plus `min(threads, jobs) - 1` threads of one `std::thread::scope`,
//! which joins them before `scope` returns — so jobs may borrow from the
//! caller's stack, and it is the borrow checker that says so. It is the
//! workspace's only compute fan-out: callers that take an
//! `Option<&WorkerPool>` go through [`for_each_slot`], where `None` means
//! "run the logical workers inline on the calling thread".
//!
//! ```
//! let pool = util::WorkerPool::new(4);
//! let mut partials = vec![0u64; 4];
//! pool.scope(|scope| {
//!     for (t, slot) in partials.iter_mut().enumerate() {
//!         scope.spawn(move || *slot = t as u64 + 1);
//!     }
//! });
//! assert_eq!(partials.iter().sum::<u64>(), 10);
//! ```
//!
//! The contract, where it differs from a pool of long-lived workers:
//!
//! * **Jobs start when the scope closure returns**, not when they are
//!   spawned. A closure that blocked on a job's result *inside* `scope`
//!   would wait forever: spawn, return, and read the results after `scope`
//!   has. If the closure itself panics, its jobs never run.
//! * **The caller is one of the `threads`.** At most `threads` jobs of one
//!   scope run at once, the calling thread included; a 1-wide pool spawns
//!   nothing and runs every job on the caller, in spawn order.
//! * **[`WorkerPool::new`] is free; every scope pays for its threads.**
//!   Spawning and joining costs tens of microseconds, so a scope is for
//!   coarse work — a sweep's runs, a fleet's nodes, a HOGWILD fit. No
//!   node's decision quantum opens one; the fleet quantum opens one.
//!
//! A job may open a scope of its own on the same pool: the inner scope
//! brings its own threads, so nesting cannot deadlock (the width bounds one
//! scope, not the process). A panic inside a job is caught and held until
//! every sibling job has run; the first is then resumed on the caller.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

/// Jobs are popped, then run; panics are caught, then stored.
const UNPOISONED: &str = "no code that can panic runs under a scope's locks";

/// How many threads a [`WorkerPool::scope`] may use, the caller included.
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A pool `threads` wide (clamped to at least one). Spawns nothing.
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The most jobs of one scope that run at once.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A reasonable default pool width for this machine: the available
    /// parallelism clamped into `2..=8` (the paper's DDS uses 8 threads).
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8)
    }

    /// Fans `f` out over `items`, returning the results in input order.
    ///
    /// Each item's result lands in its own slot, so the output is
    /// independent of which thread ran which item and in what order —
    /// the property the sweep harness relies on for byte-stable reports
    /// at any pool width. Blocks until every item has been processed;
    /// a panicking `f` is resumed here after the remaining items drain.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
        for_each_slot(Some(self), &mut slots, |i, slot| {
            *slot = Some(f(i, &items[i]));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("scope barrier guarantees every slot is filled"))
            .collect()
    }

    /// Runs `f` to collect the jobs it spawns (they may borrow from the
    /// caller's stack), runs them on up to [`threads`](Self::threads)
    /// threads, this one included, and returns `f`'s result once all have
    /// finished; the first job panic, if any, is resumed here after that.
    #[allow(
        clippy::disallowed_methods,
        reason = "the one sanctioned thread entry point: every compute fan-out in the workspace is a scope of this pool"
    )]
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'env>) -> R,
    {
        let scope = PoolScope {
            jobs: Mutex::new(VecDeque::new()),
        };
        let result = f(&scope);
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let drain = || {
            while let Some(job) = scope.pop() {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                    first_panic.lock().expect(UNPOISONED).get_or_insert(payload);
                }
            }
        };
        let jobs = scope.jobs.lock().expect(UNPOISONED).len();
        std::thread::scope(|threads| {
            for _ in 1..self.threads.min(jobs) {
                threads.spawn(drain);
            }
            drain();
        });
        if let Some(payload) = first_panic.into_inner().expect(UNPOISONED) {
            resume_unwind(payload);
        }
        result
    }
}

/// Runs `job(i, &mut slots[i])` for every logical worker `i`, each on its
/// own slot: as jobs on `pool` when one is given, otherwise inline on the
/// calling thread in index order — no threads, no barrier, no lock.
///
/// This is the only place that knows what a missing pool means. A job that
/// touches nothing but its slot and shared read-only state leaves the same
/// bits behind either way, which makes the inline arm the reference the
/// "pool width is immaterial" tests compare against.
pub fn for_each_slot<T, F>(pool: Option<&WorkerPool>, slots: &mut [T], job: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    match pool {
        Some(pool) => pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                let job = &job;
                scope.spawn(move || job(i, slot));
            }
        }),
        None => {
            for (i, slot) in slots.iter_mut().enumerate() {
                job(i, slot);
            }
        }
    }
}

/// Handle for spawning borrowing jobs inside [`WorkerPool::scope`]: the
/// queue the scope drains once its closure has returned.
pub struct PoolScope<'env> {
    jobs: Mutex<VecDeque<Box<dyn FnOnce() + Send + 'env>>>,
}

impl<'env> PoolScope<'env> {
    /// Queues `f`; it runs after the scope closure returns, on the calling
    /// thread or one of the scope's own. The closure may borrow from `'env`.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.jobs.lock().expect(UNPOISONED).push_back(Box::new(f));
    }

    fn pop(&self) -> Option<Box<dyn FnOnce() + Send + 'env>> {
        self.jobs.lock().expect(UNPOISONED).pop_front()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests count finished jobs with atomics and read the counts after the scope joined"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_jobs_and_waits_for_all_of_them() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..64 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn jobs_may_borrow_mutably_from_the_stack() {
        let pool = WorkerPool::new(3);
        let mut slots = [0usize; 10];
        pool.scope(|scope| {
            for (i, slot) in slots.iter_mut().enumerate() {
                scope.spawn(move || *slot = i * i);
            }
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, i * i);
        }
    }

    #[test]
    fn a_single_threaded_pool_still_completes_wide_fanouts() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            for _ in 0..32 {
                scope.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn map_indexed_preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..33).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        for width in [1, 2, 8] {
            let pool = WorkerPool::new(width);
            let out = pool.map_indexed(&items, |i, v| {
                assert_eq!(items[i], *v);
                v * v
            });
            assert_eq!(out, expected, "width {width}");
        }
    }

    #[test]
    fn for_each_slot_without_a_pool_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let mut inline = [0usize; 5];
        for_each_slot(None, &mut inline, |i, slot| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
            *slot = i * 3;
        });
        assert_eq!(*order.lock().unwrap(), [0, 1, 2, 3, 4]);
        let mut pooled = [0usize; 5];
        for_each_slot(Some(&WorkerPool::new(2)), &mut pooled, |i, slot| {
            *slot = i * 3;
        });
        assert_eq!(inline, pooled);
    }

    #[test]
    fn map_indexed_handles_empty_input() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.map_indexed(&[], |_, v: &u64| *v);
        assert!(out.is_empty());
    }

    #[test]
    fn nested_scopes_do_not_deadlock_even_when_oversubscribed() {
        // A 2-wide pool, 4 outer jobs that each open an inner scope of 4 jobs:
        // each inner scope drains on its own threads, so none waits on another.
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..4 {
                outer.spawn(|| {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn scopes_are_reusable_across_calls() {
        let pool = WorkerPool::new(2);
        let mut total = 0u64;
        for round in 0..10 {
            let mut partials = [0u64; 4];
            pool.scope(|scope| {
                for (t, slot) in partials.iter_mut().enumerate() {
                    scope.spawn(move || *slot = round * 10 + t as u64);
                }
            });
            total += partials.iter().sum::<u64>();
        }
        assert_eq!(total, (0..10).map(|r| 4 * r * 10 + 6).sum::<u64>());
    }

    #[test]
    fn a_panicking_job_propagates_after_siblings_finish() {
        let pool = WorkerPool::new(2);
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for i in 0..8 {
                    let finished = &finished;
                    scope.spawn(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("the job panic must resurface");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 3 exploded"));
        assert_eq!(finished.load(Ordering::Relaxed), 7);
        // And the pool must still be usable afterwards.
        let counter = AtomicUsize::new(0);
        pool.scope(|scope| {
            scope.spawn(|| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(counter.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_scope_never_runs_more_jobs_at_once_than_the_pool_is_wide() {
        for width in [1, 2, 3] {
            let pool = WorkerPool::new(width);
            let running = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            pool.scope(|scope| {
                for _ in 0..24 {
                    scope.spawn(|| {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                    });
                }
            });
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= width, "width {width}: peak {peak}");
        }
    }

    #[test]
    fn a_one_wide_pool_runs_every_job_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran = Mutex::new(Vec::new());
        WorkerPool::new(1).scope(|scope| {
            for i in 0..8 {
                let ran = &ran;
                scope.spawn(move || ran.lock().unwrap().push((i, std::thread::current().id())));
            }
        });
        // On the caller, and (one thread, one FIFO queue) in spawn order.
        assert_eq!(
            ran.into_inner().unwrap(),
            Vec::from_iter((0..8).map(|i| (i, caller)))
        );
    }

    #[test]
    fn new_clamps_zero_threads_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn default_threads_is_in_the_documented_band() {
        let n = WorkerPool::default_threads();
        assert!((2..=8).contains(&n));
    }
}
