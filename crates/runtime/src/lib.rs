//! The shared execution runtime: a std-only, work-stealing thread pool.
//!
//! This crate hosts the one pool every parallel layer of the workspace
//! runs on — the server's connection handling, the parallel semi-naive
//! Datalog rounds, and the k-MCS candidate fan-out (through `magik-exec`'s
//! `Executor`). Design points:
//!
//! * **Work stealing.** Each worker owns a deque; submission round-robins
//!   jobs across the deques, a worker pops from the *front* of its own
//!   deque and steals from the *back* of a sibling's when it runs dry.
//!   Steals are counted ([`PoolCounters::steals`]) so skew is observable
//!   through the server's `metrics` op.
//! * **Panic isolation.** A panicking job must not shrink the pool: each
//!   job runs under `catch_unwind`, the panic is swallowed into the
//!   [`PoolCounters::panics`] counter, and the worker keeps serving.
//!   Fork-join callers ([`ThreadPool::run_map`]) still observe the panic —
//!   task wrappers ship the unwind payload back and the *submitting*
//!   thread resumes it.
//! * **Caller assistance.** A thread blocked in [`ThreadPool::run_map`]
//!   drains pool queues itself while it waits, so nested fork-join from
//!   inside a pool job cannot deadlock a saturated pool.
//! * **Safe code only.** No scoped threads, no unsafe: jobs are `'static`
//!   boxed closures, and shared state travels in `Arc`s (a clone of a
//!   relalg `Instance` is such a share: O(#relations) `Arc` bumps).
//!
//! Dropping the pool is a barrier: the queues are drained, every worker
//! joins, and all submitted jobs have finished.
//!
//! The crate also hosts [`poller`], the std-only readiness poller the
//! server's event-loop front end multiplexes connections on. Its Linux
//! `epoll` backend is the one place in the workspace allowed to use
//! `unsafe` (four `extern "C"` declarations) — hence `deny(unsafe_code)`
//! here rather than `forbid`, with the exception scoped to that module
//! and policed by `ci/check_hygiene.sh`.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod poller;

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Aggregate counters of a [`ThreadPool`]. The server's `metrics` op
/// reports the reasoning pool's as `runtime.tasks` / `runtime.steals`;
/// its `pool.panics` counts requests, since a reasoning job's panic
/// resumes on the request that forked it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Jobs submitted over the pool's lifetime.
    pub tasks: u64,
    /// Jobs a worker took from a sibling's deque (or a blocked fork-join
    /// caller took from any deque) instead of its own.
    pub steals: u64,
    /// Jobs that panicked. The workers survive; this counter is the only
    /// trace unless the submitter collects results ([`ThreadPool::run_map`]
    /// re-raises on the calling thread).
    pub panics: u64,
}

struct Shared {
    /// One deque per worker. A `Mutex<VecDeque>` per slot keeps the design
    /// std-only; contention is low because submission spreads round-robin
    /// and each worker drains its own slot first.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep coordination: workers re-check every queue under this lock
    /// before waiting, and submitters notify under it after pushing, so a
    /// push can never slip between check and wait.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    next: AtomicUsize,
    tasks: AtomicU64,
    steals: AtomicU64,
    panics: AtomicU64,
}

impl Shared {
    /// Pops a job: own queue front first, then siblings' backs. `home` is
    /// `None` for an assisting non-worker thread (every pop is a steal).
    fn pop(&self, home: Option<usize>) -> Option<Job> {
        if let Some(h) = home {
            if let Some(job) = self.queues[h].lock().expect("queue lock").pop_front() {
                return Some(job);
            }
        }
        let n = self.queues.len();
        let start = home.map_or(0, |h| h + 1);
        for off in 0..n {
            let i = (start + off) % n;
            if Some(i) == home {
                continue;
            }
            if let Some(job) = self.queues[i].lock().expect("queue lock").pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }

    fn run(&self, job: Job) {
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A fixed-size, work-stealing thread pool.
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.workers.len())
            .field("counters", &self.counters())
            .finish()
    }
}

impl ThreadPool {
    /// Spawns `size` worker threads (`size >= 1`).
    pub fn new(size: usize) -> ThreadPool {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            queues: (0..size).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            tasks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let workers = (0..size)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("magik-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool { shared, workers }
    }

    /// The number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// The pool's lifetime counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            tasks: self.shared.tasks.load(Ordering::Relaxed),
            steals: self.shared.steals.load(Ordering::Relaxed),
            panics: self.shared.panics.load(Ordering::Relaxed),
        }
    }

    /// Submits a fire-and-forget job.
    ///
    /// A panic inside `job` is caught: the worker survives and
    /// [`PoolCounters::panics`] is incremented.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.tasks.fetch_add(1, Ordering::Relaxed);
        let slot = self.shared.next.fetch_add(1, Ordering::Relaxed) % self.shared.queues.len();
        self.shared.queues[slot]
            .lock()
            .expect("queue lock")
            .push_back(Box::new(job));
        // Notify under the sleep lock so a worker that just found every
        // queue empty cannot miss this push.
        let _guard = self.shared.sleep.lock().expect("sleep lock");
        self.shared.wake.notify_one();
    }

    /// Fork-join: applies `f` to every item on the pool and returns the
    /// results **in input order**.
    ///
    /// The calling thread assists — it drains pool queues while waiting —
    /// so `run_map` may be called from inside a pool job without
    /// deadlocking a saturated pool. If `f` panics for any item, the panic
    /// is resumed on the calling thread (after the counter is bumped).
    ///
    /// Every job releases its handle on `f` before it reports, so once
    /// `run_map` returns nothing `f` captured is still shared: a
    /// snapshot it held no longer makes the caller's next write copy.
    pub fn run_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let (tx, rx) = channel::<(usize, std::thread::Result<R>)>();
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                // Catch here (not just in the worker) so the submitter
                // learns about the panic and can re-raise it.
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                drop(f);
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut pending = n;
        let mut first_panic = None;
        while pending > 0 {
            match rx.recv_timeout(Duration::from_micros(50)) {
                Ok((i, Ok(value))) => {
                    slots[i] = Some(value);
                    pending -= 1;
                }
                Ok((_, Err(payload))) => {
                    self.shared.panics.fetch_add(1, Ordering::Relaxed);
                    first_panic.get_or_insert(payload);
                    pending -= 1;
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Assist: run queued jobs (ours or anyone's) instead of
                    // blocking a thread the tasks might need.
                    while let Some(job) = self.shared.pop(None) {
                        self.shared.run(job);
                        if let Ok(msg) = rx.try_recv() {
                            match msg {
                                (i, Ok(value)) => {
                                    slots[i] = Some(value);
                                    pending -= 1;
                                }
                                (_, Err(payload)) => {
                                    self.shared.panics.fetch_add(1, Ordering::Relaxed);
                                    first_panic.get_or_insert(payload);
                                    pending -= 1;
                                }
                            }
                        }
                        if pending == 0 {
                            break;
                        }
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    unreachable!("every task sends exactly once before its sender drops")
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("all results received"))
            .collect()
    }
}

fn worker_loop(shared: &Shared, home: usize) {
    loop {
        if let Some(job) = shared.pop(Some(home)) {
            shared.run(job);
            continue;
        }
        // Nothing found: re-check under the sleep lock, then wait. The
        // timeout is a safety net against any missed notification.
        let guard = shared.sleep.lock().expect("sleep lock");
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain whatever remains before exiting (drop is a barrier).
            drop(guard);
            while let Some(job) = shared.pop(Some(home)) {
                shared.run(job);
            }
            return;
        }
        let queues_empty = shared
            .queues
            .iter()
            .all(|q| q.lock().expect("queue lock").is_empty());
        if queues_empty {
            let _ = shared
                .wake
                .wait_timeout(guard, Duration::from_millis(10))
                .expect("sleep lock");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.shared.sleep.lock().expect("sleep lock");
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The machine's available parallelism, defaulting to 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Splits `len` items into at most `parts` contiguous ranges of nearly
/// equal size (the first `len % parts` ranges get one extra item). Empty
/// ranges are omitted, so fewer than `parts` ranges come back when
/// `len < parts`.
pub fn partition(len: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::new();
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_all_jobs_and_joins_on_drop() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ThreadPool::new(4);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Drop joins, so every job has run afterwards.
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn jobs_run_concurrently() {
        let pool = ThreadPool::new(2);
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        // Two jobs that each wait for the other's signal: only possible
        // if they run on distinct workers.
        pool.execute(move || {
            tx1.send(()).unwrap();
            rx2.recv().unwrap();
        });
        pool.execute(move || {
            rx1.recv().unwrap();
            tx2.send(()).unwrap();
        });
        // Dropping joins; a deadlock here would hang the test.
    }

    #[test]
    fn panicking_job_keeps_workers_alive() {
        // Regression test: a panicking job used to kill its worker thread
        // silently, permanently shrinking the pool.
        let pool = ThreadPool::new(2);
        for _ in 0..8 {
            pool.execute(|| panic!("job panic"));
        }
        // Give the panicking jobs time to be picked up, then prove the
        // full pool still serves: 2 interlocked jobs need 2 live workers.
        let (tx, rx) = channel();
        let (tx1, rx1) = channel();
        let (tx2, rx2) = channel();
        let txa = tx.clone();
        pool.execute(move || {
            tx1.send(()).unwrap();
            rx2.recv().unwrap();
            txa.send(()).unwrap();
        });
        pool.execute(move || {
            rx1.recv().unwrap();
            tx2.send(()).unwrap();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(pool.counters().panics, 8);
        assert_eq!(pool.threads(), 2);
    }

    #[test]
    fn run_map_preserves_input_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<u64> = (0..200).collect();
        let out = pool.run_map(items, |x| x * 2);
        assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<u64>>());
        assert!(pool.counters().tasks >= 200);
    }

    #[test]
    fn run_map_releases_what_the_closure_captured() {
        // A job that drops its handle after reporting races the caller's
        // return; repeating the call makes a lost race all but certain.
        let pool = ThreadPool::new(4);
        let shared = Arc::new(7u64);
        for _ in 0..1000 {
            let captured = Arc::clone(&shared);
            let out = pool.run_map((0..8u64).collect(), move |x| x + *captured);
            assert_eq!(out[0], 7);
            assert_eq!(Arc::strong_count(&shared), 1);
        }
    }

    #[test]
    fn run_map_resumes_task_panics_on_caller() {
        let pool = ThreadPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_map(vec![1u32, 2, 3], |x| {
                assert!(x != 2, "boom");
                x
            })
        }));
        assert!(caught.is_err());
        assert!(pool.counters().panics >= 1);
        // The pool is still usable afterwards.
        assert_eq!(pool.run_map(vec![10u32], |x| x + 1), vec![11]);
    }

    #[test]
    fn nested_run_map_does_not_deadlock() {
        // Every worker blocks in an outer run_map whose inner tasks can
        // only proceed through caller assistance.
        let pool = Arc::new(ThreadPool::new(2));
        let outer = Arc::clone(&pool);
        let sums = pool.run_map(vec![0u64, 1, 2, 3], move |base| {
            outer
                .run_map((0..8u64).collect(), move |x| base * 100 + x)
                .into_iter()
                .sum::<u64>()
        });
        assert_eq!(sums, vec![28, 828, 1628, 2428]);
    }

    #[test]
    fn stealing_happens_under_skewed_load() {
        let pool = ThreadPool::new(4);
        // Many more jobs than workers: round-robin spreads them, and the
        // fast workers steal from the slow one's deque.
        let slow = Arc::new(AtomicUsize::new(0));
        let slow2 = Arc::clone(&slow);
        let out = pool.run_map((0..64u64).collect(), move |x| {
            if x % 4 == 0 {
                // Slow lane.
                std::thread::sleep(Duration::from_millis(2));
                slow2.fetch_add(1, Ordering::SeqCst);
            }
            x
        });
        assert_eq!(out.len(), 64);
        // Steals are load-dependent; the counter is just observable.
        let _ = pool.counters().steals;
    }

    #[test]
    fn partition_covers_range_without_overlap() {
        for (len, parts) in [(0, 4), (3, 4), (4, 4), (10, 3), (100, 8), (7, 1)] {
            let ranges = partition(len, parts);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered);
                covered = r.end;
                assert!(!r.is_empty());
            }
            assert_eq!(covered, len);
            assert!(ranges.len() <= parts.max(1));
        }
    }
}
