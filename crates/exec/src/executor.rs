//! The pluggable parallel executor: sequential or pooled fork-join.
//!
//! Every parallel consumer in the workspace — the semi-naive Datalog
//! rounds, the k-MCS candidate fan-out, the server's request evaluation —
//! takes an [`Executor`] and stays agnostic about where (or whether)
//! threads exist. [`Executor::Sequential`] runs everything inline with
//! zero overhead; [`Executor::Pooled`] fans out over a shared
//! work-stealing [`ThreadPool`] from `magik-runtime`.
//!
//! Tasks must be `'static` (the pool has no scoped API in safe code), so
//! callers ship shared state in `Arc`s or in clones of a relalg
//! [`Instance`](magik_relalg::Instance), which cost O(#relations) `Arc`
//! bumps.

use std::sync::Arc;

pub use magik_runtime::{available_parallelism, partition, PoolCounters, ThreadPool};

/// A pluggable fork-join executor.
#[derive(Debug, Clone, Default)]
pub enum Executor {
    /// Run every task inline on the calling thread.
    #[default]
    Sequential,
    /// Fan tasks out over a shared work-stealing pool. Cloning shares the
    /// pool (and its counters).
    Pooled(Arc<ThreadPool>),
}

impl Executor {
    /// An executor with `threads` workers: [`Executor::Sequential`] when
    /// `threads <= 1`, a fresh pooled executor otherwise.
    pub fn with_threads(threads: usize) -> Executor {
        if threads <= 1 {
            Executor::Sequential
        } else {
            Executor::Pooled(Arc::new(ThreadPool::new(threads)))
        }
    }

    /// The degree of parallelism: 1 for sequential, the pool size
    /// otherwise.
    pub fn threads(&self) -> usize {
        match self {
            Executor::Sequential => 1,
            Executor::Pooled(pool) => pool.threads(),
        }
    }

    /// The underlying pool's counters (all zero for sequential).
    pub fn counters(&self) -> PoolCounters {
        match self {
            Executor::Sequential => PoolCounters::default(),
            Executor::Pooled(pool) => pool.counters(),
        }
    }

    /// Applies `f` to every item, returning results **in input order**.
    ///
    /// Sequentially this is a plain loop; pooled it is a fork-join on the
    /// shared pool (the calling thread assists while waiting, so nesting
    /// is safe). Results are deterministic in *order* either way; callers
    /// needing deterministic *content* must keep `f` free of cross-task
    /// effects.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        match self {
            Executor::Sequential => items.into_iter().map(f).collect(),
            Executor::Pooled(pool) => pool.run_map(items, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_and_pooled_agree() {
        let items: Vec<u32> = (0..100).collect();
        let seq = Executor::Sequential.map(items.clone(), |x| x * x);
        let par = Executor::with_threads(4).map(items, |x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn with_threads_one_is_sequential() {
        assert!(matches!(Executor::with_threads(1), Executor::Sequential));
        assert_eq!(Executor::with_threads(1).threads(), 1);
        assert_eq!(Executor::with_threads(4).threads(), 4);
    }

    #[test]
    fn pooled_counters_accumulate() {
        let ex = Executor::with_threads(2);
        ex.map((0..10u32).collect(), |x| x);
        assert!(ex.counters().tasks >= 10);
        assert_eq!(Executor::Sequential.counters(), PoolCounters::default());
    }
}
