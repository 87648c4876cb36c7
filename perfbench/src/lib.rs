//! The completeness service's benchmark.
//!
//! One command runs a seeded workload against an in-process
//! `magik_server::Server` (event-loop front end) over loopback TCP,
//! checks every reply, and prints every end-to-end metric; `--trace 1`
//! instead replays the workload's stream in-process with a span around
//! each call into a crate's public functions and prints the per-layer
//! metrics. See `perfbench/README.md`.

pub mod gen;
pub mod load;
pub mod run;
pub mod shadow;
pub mod stats;
pub mod trace;
