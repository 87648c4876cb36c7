//! Compiled query-execution layer for MAGIK-rs.
//!
//! Every reasoning layer of the system — query evaluation, the
//! Chandra–Merlin containment checks, the completeness engine's searches
//! over the frozen canonical database, and the semi-naive Datalog fixpoints
//! behind the Section 5 encoding — reduces to matching a conjunctive body
//! against an [`Instance`](magik_relalg::Instance). The plan IR itself (planner, executor,
//! projections, counters) lives in [`magik_relalg::exec`] because it is
//! inseparable from the data model; this crate re-exports it and adds the
//! layers the *callers* share:
//!
//! * [`CompiledQuery`] — a safety-checked query compiled to a plan plus a
//!   head projection, executable repeatedly against evolving instances;
//! * [`CompiledBody`] — a rule-shaped body (positive atoms, stratified
//!   negation, declared-bound pivot variables) compiled for full or
//!   delta-mode execution, the building block of the Datalog engine, whose
//!   delta runs are seeded by [`match_ground`](magik_relalg::match_ground);
//! * [`LruCache`] — a small exact LRU with hit/miss counters, behind
//!   every cache of the server engine (its plan cache maps a query key to
//!   a shared [`CompiledQuery`] and the query's head name);
//!   [`PlanCache`] is a plain LRU of shared [`CompiledQuery`]s, which the
//!   benchmark harness's shadow session keys on canonical query forms;
//! * [`explain_text`] / [`explain_json`] — human- and machine-readable
//!   renderings of a plan and its execution counters, backing the CLI's
//!   `explain-plan` command;
//! * [`Executor`] — the pluggable parallel executor (sequential, or
//!   fork-join over the shared work-stealing `magik-runtime` pool) that
//!   the Datalog fixpoints, the k-MCS search, and the server fan out on;
//! * [`reference`] — the seed backtracking evaluator, preserved verbatim
//!   as the oracle for equivalence tests and the baseline for benches.
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod compiled;
mod executor;
mod explain;
pub mod reference;

pub use cache::{LruCache, PlanCache};
pub use compiled::{CompiledBody, CompiledQuery};
pub use executor::{available_parallelism, partition, Executor, PoolCounters, ThreadPool};
pub use explain::{explain_json, explain_text};
pub use magik_relalg::batch::{Batch, BatchOp, BatchPlan, JoinStrategy};
pub use magik_relalg::exec::{
    Access, ColAction, ExecStats, Key, OpCounters, Plan, PlanOp, Projection, Row,
};
