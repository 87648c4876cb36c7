//! A concurrent completeness service over the MAGIK-rs reasoning stack.
//!
//! The paper's MAGIK system is an *interactive* demonstrator: a user loads
//! a database and a set of table-completeness statements, then asks
//! completeness questions and edits the data, back and forth. This crate
//! is the production-shaped version of that loop: a long-running
//! [`Engine`] holding the session state, served over a line-oriented TCP
//! protocol by a fixed pool of worker threads.
//!
//! * [`Engine`] — the shared session: database, TCS set, an incrementally
//!   maintained T_C materialization, a canonical-form verdict cache, an
//!   answer cache, and metrics. All entry points take `&self`. State is
//!   published as immutable snapshots behind a swap point, so read
//!   requests evaluate without holding any lock — a slow `specialize`
//!   never blocks a concurrent `check`, and writers proceed undisturbed.
//! * [`Server`] — `std::net` front end: an event-loop reactor (one
//!   thread multiplexes every connection over a non-blocking poller,
//!   requests may be pipelined, and a length-prefixed binary framing can
//!   be negotiated in-band). Grammar in `PROTOCOL.md`.
//! * [`ThreadPool`] — the shared `magik-runtime` work-stealing pool the
//!   request handlers run on. The engine's *compute* pool (its
//!   [`Executor`](magik_exec::Executor)) is a separate instance: request
//!   handlers must never occupy the workers that reasoning fan-outs
//!   need, and vice versa.
//! * [`ServerConfig`] / [`ReplicaStatus`] / [`initial_sync`] /
//!   [`run_replica`] — WAL log-shipping replication: a primary streams
//!   its write-ahead log to read-only replicas from a snapshot-consistent
//!   position; replicas replay through the normal recovery path and
//!   report their epoch lag via the `replication` command.
//! * [`Metrics`] / [`Histogram`] — per-op counters and fixed-bucket
//!   latency quantiles, reported by the `metrics` request (together with
//!   the compute pool's `runtime.tasks`/`runtime.steals`/`pool.panics`
//!   counters).
//! * [`LruCache`] — the exact LRU (from `magik-exec`) behind each of the
//!   engine's caches, which report their own hits and misses.
//! * [`Engine::open_durable`] / [`DurabilityOptions`] — the optional
//!   durability layer (`magik-storage`): mutations are written ahead to a
//!   CRC-framed WAL before they are applied, a background worker writes
//!   periodic snapshot checkpoints, and opening recovers the newest valid
//!   checkpoint plus a verified replay of the WAL tail
//!   ([`RecoveryReport`]). [`Server::stop`] flushes the log and writes a
//!   final checkpoint, so a clean stop replays zero records on restart.
//!
//! # Example
//!
//! ```
//! use std::io::{BufRead, BufReader, Write};
//! use std::net::TcpStream;
//! use std::sync::Arc;
//! use magik_server::{Engine, Server};
//!
//! let server = Server::start(Arc::new(Engine::new()), "127.0.0.1:0", 2).unwrap();
//! let mut conn = TcpStream::connect(server.local_addr()).unwrap();
//! conn.write_all(b"compl pupil(N, C, S) ; true.\ncheck q(N) :- pupil(N, C, S).\n")
//!     .unwrap();
//! let mut lines = BufReader::new(conn.try_clone().unwrap()).lines();
//! assert_eq!(lines.next().unwrap().unwrap(), "ok epoch=1");
//! assert_eq!(lines.next().unwrap().unwrap(), "ok complete");
//! server.stop();
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod durability;
mod engine;
mod event_loop;
mod metrics;
mod net;
mod replication;

pub use durability::{DurabilityOptions, RecoveryReport};
pub use engine::Engine;
pub use magik_exec::LruCache;
pub use magik_runtime::ThreadPool;
pub use metrics::{Histogram, Metrics, Op};
pub use net::{Server, ServerConfig};
pub use replication::{initial_sync, run_replica, ReplicaStatus};
