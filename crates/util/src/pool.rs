//! A persistent worker pool with scoped, borrowing tasks.
//!
//! The decision loop fans its per-matrix reconstructions out every 100 ms
//! quantum, and spawning a fresh OS thread per closure would make thread
//! creation + teardown pure overhead there. This pool keeps its threads
//! alive across quanta and dispatches boxed jobs over a mutex-and-condvar
//! queue. It is the workspace's only compute fan-out: callers that take an
//! `Option<&WorkerPool>` go through [`for_each_slot`], where `None` means
//! "run the logical workers inline on the calling thread".
//!
//! The API mirrors the scoped-thread shape of `std::thread::scope`:
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
//! `scope` blocks until every job spawned inside it has finished, so jobs may
//! borrow from the caller's stack (the lifetime is erased internally and
//! restored by the barrier at scope exit — the same contract as
//! `std::thread::scope`). While waiting, the scoping thread *helps*: it pops
//! and runs queued jobs itself, which both speeds up the fan-out and keeps a
//! job that opens a scope of its own deadlock-free even when the pool is
//! smaller than the logical fan-out (nothing in the runtime nests scopes
//! today; the property is pinned by a unit test and the stress test in
//! `tests/concurrency.rs`).
//!
//! Panics inside a job are caught, held until every sibling job in the scope
//! has drained, and then resumed on the scoping thread — again matching
//! `std::thread::scope` semantics closely enough for our callers.

use std::any::Any;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// The shared dispatch queue: a mutex-guarded deque plus a condvar that
/// wakes idle workers when jobs arrive or shutdown is signalled.
struct Queue {
    state: Mutex<QueueState>,
    work_cv: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        let mut state = self.state.lock().unwrap();
        state.jobs.push_back(job);
        drop(state);
        self.work_cv.notify_one();
    }

    /// Non-blocking pop, used by helping waiters.
    fn try_pop(&self) -> Option<Job> {
        self.state.lock().unwrap().jobs.pop_front()
    }

    /// Blocking pop for workers; returns `None` once shutdown is signalled
    /// and the queue has drained.
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self.work_cv.wait(state).unwrap();
        }
    }

    fn shutdown(&self) {
        self.state.lock().unwrap().shutdown = true;
        self.work_cv.notify_all();
    }
}

/// Book-keeping for one `scope` call: how many of its jobs are still
/// outstanding, and the first panic any of them raised.
struct ScopeState {
    pending: Mutex<usize>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState {
            pending: Mutex::new(0),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn job_started(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn job_finished(&self) {
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            drop(pending);
            self.done_cv.notify_all();
        }
    }
}

/// A pool of long-lived worker threads. Dropping the pool shuts the workers
/// down and joins them.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (clamped to at least one).
    #[allow(
        clippy::disallowed_methods,
        reason = "the worker pool owns the deterministic fan-out threads; everything else goes through it"
    )]
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let queue = Arc::new(Queue::new());
        let workers = (0..threads)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("cuttlesys-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = queue.pop() {
                            job();
                        }
                    })
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Number of worker threads in the pool.
    pub fn threads(&self) -> usize {
        self.workers.len()
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
    /// independent of which worker ran which item and in what order —
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

    /// Runs `f` with a [`PoolScope`] whose spawned jobs may borrow from the
    /// caller's stack. Blocks until every spawned job has finished; if any
    /// job panicked, the first panic is resumed here after the rest drain.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&PoolScope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState::new());
        let scope = PoolScope {
            queue: &self.queue,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        // The guard waits for pending == 0 even if `f` itself panics after
        // spawning jobs — jobs borrowing the stack must not outlive it.
        let guard = WaitGuard {
            queue: &self.queue,
            state: &state,
        };
        let result = f(&scope);
        drop(guard);
        if let Some(payload) = state.panic.lock().unwrap().take() {
            resume_unwind(payload);
        }
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.queue.shutdown();
        for handle in self.workers.drain(..) {
            // A worker only panics if a job's panic escaped catch_unwind
            // (e.g. a foreign exception); surface it rather than hide it.
            if handle.join().is_err() {
                eprintln!("cuttlesys worker thread terminated abnormally");
            }
        }
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

/// Waits for every job of a scope to finish, *helping* by running queued
/// jobs while it waits. Runs on drop so the wait happens even when the
/// scope closure unwinds.
struct WaitGuard<'a> {
    queue: &'a Queue,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        loop {
            // Help: drain queued jobs (ours or a sibling scope's — either
            // makes progress and prevents nested-scope deadlock).
            while let Some(job) = self.queue.try_pop() {
                job();
            }
            let pending = self.state.pending.lock().unwrap();
            if *pending == 0 {
                return;
            }
            // A short timed wait: jobs may be queued by still-running jobs
            // of this very scope, so we must recheck the queue periodically
            // rather than block solely on the done condvar.
            let _unused = self
                .state
                .done_cv
                .wait_timeout(pending, Duration::from_millis(1))
                .unwrap();
        }
    }
}

/// Handle for spawning borrowing jobs inside [`WorkerPool::scope`].
pub struct PoolScope<'pool, 'env> {
    queue: &'pool Queue,
    state: Arc<ScopeState>,
    // Invariant in 'env, like std::thread::Scope: the environment lifetime
    // must not be shortened or lengthened by variance.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues `f` to run on a pool worker (or on the scoping thread while it
    /// waits). The closure may borrow from `'env`; the scope's exit barrier
    /// guarantees it finishes before those borrows expire.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.job_started();
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            if let Err(payload) = outcome {
                let mut slot = state.panic.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.job_finished();
        });
        // SAFETY: the job is queued behind the scope's exit barrier —
        // `WorkerPool::scope` (via WaitGuard, which runs even on unwind)
        // does not return until `pending` drops to zero, i.e. until this
        // closure has run to completion. Therefore every borrow of 'env
        // inside `f` is live for as long as the closure can execute, and
        // erasing the lifetime to 'static never lets a borrow dangle. This
        // is the same argument std::thread::scope makes for its own
        // lifetime erasure.
        let job: Job = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job) };
        self.queue.push(job);
    }
}

#[cfg(test)]
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
        // 2 workers, 4 outer jobs that each open an inner scope of 4 jobs:
        // the helping wait must let blocked outer jobs drain inner jobs.
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
        let finished = Arc::new(AtomicUsize::new(0));
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                for i in 0..8 {
                    let finished = Arc::clone(&finished);
                    scope.spawn(move || {
                        if i == 3 {
                            panic!("job 3 exploded");
                        }
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "the job panic must resurface");
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
