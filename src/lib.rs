//! # MAGIK-rs — Complete Approximations of Incomplete Queries
//!
//! A from-scratch Rust implementation of the system described in
//! *Complete Approximations of Incomplete Queries* (Corman, Nutt,
//! Savković; the MAGIK demo appeared in PVLDB 6(12), VLDB 2013).
//!
//! Databases are often *partially complete*: the available state misses
//! facts of the (unknown) ideal state. **Table-completeness statements**
//! declare which parts are guaranteed complete. Given such statements and
//! a conjunctive query, this library answers three questions:
//!
//! 1. **Is the query complete?** — every ideal answer is available
//!    ([`is_complete`]).
//! 2. If not, **what is its best complete generalization?** — the
//!    *minimal complete generalization* (MCG), unique up to equivalence
//!    ([`mcg`]).
//! 3. And **what are its best complete specializations?** — the *maximal
//!    complete specializations* within a bounded size (k-MCS,
//!    [`k_mcs`]), via *maximal complete instantiations* ([`mcis`]).
//!
//! # Crate map
//!
//! | module (re-export of) | contents |
//! |---|---|
//! | [`relalg`] | terms, atoms, queries, instances, copy-on-write snapshots, evaluation, containment, minimization |
//! | [`runtime`] | shared work-stealing thread pool: panic-isolated workers, fork-join helpers |
//! | [`exec`] | compiled query-execution layer: plan IR, compiled queries/rule bodies, plan cache, pluggable executor, explain output |
//! | [`unify`] | unification, MGUs, renaming apart |
//! | [`datalog`] | forward-chaining Datalog engine (naive + semi-naive) |
//! | [`completeness`] | TCSs, `T_C`/`G_C`, completeness check, MCG, MCI, k-MCS; finite-domain + key constraints, answering with guarantees, explanations, lints; certificate emission |
//! | [`cert`] | trusted certificate checker: validates completeness verdicts and repairs by direct definition-checking, sharing no reasoning code with the engine |
//! | [`parser`] | text syntax for queries, statements and facts, with byte-span tracking |
//! | [`analyze`] | span-aware static analysis: `M0xx` diagnostics over statements, queries, facts and the Datalog encoding |
//! | [`server`] | concurrent completeness service: session engine, verdict cache, TCP front end, optional durability |
//! | [`storage`] | write-ahead log + snapshot checkpoints: CRC-framed segments, atomic checkpoint images, crash recovery |
//! | [`workload`] | paper workloads, synthetic data, random generators |
//!
//! The most common items are re-exported at the crate root.
//!
//! # Quickstart
//!
//! ```
//! use magik::{parse_document, is_complete, mcg, k_mcs, KMcsOptions, DisplayWith, Vocabulary};
//!
//! let mut vocab = Vocabulary::new();
//! let doc = parse_document(
//!     "compl school(S, primary, D) ; true.
//!      compl pupil(N, C, S) ; school(S, T, merano).
//!      compl learns(N, english) ; pupil(N, C, S), school(S, primary, D).
//!      query q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).",
//!     &mut vocab,
//! ).unwrap();
//!
//! let q = &doc.queries[0];
//! assert!(!is_complete(q, &doc.tcs));
//!
//! // Best complete query from above: drop the learns atom.
//! let general = mcg(q, &doc.tcs).unwrap();
//! assert_eq!(general.display(&vocab).to_string(),
//!            "q(N) :- pupil(N, C, S), school(S, primary, merano)");
//!
//! // Best complete query from below: restrict to English learners.
//! let special = k_mcs(q, &doc.tcs, &mut vocab, KMcsOptions::new(0));
//! assert_eq!(special.queries.len(), 1);
//! assert_eq!(special.queries[0].display(&vocab).to_string(),
//!            "q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, english)");
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use magik_analyze as analyze;
pub use magik_cert as cert;
pub use magik_completeness as completeness;
pub use magik_datalog as datalog;
pub use magik_exec as exec;
pub use magik_parser as parser;
pub use magik_relalg as relalg;
pub use magik_runtime as runtime;
pub use magik_server as server;
pub use magik_storage as storage;
pub use magik_unify as unify;
pub use magik_workload as workload;

pub use magik_analyze::{
    allow_directives, analyze_check, analyze_document, analyze_state, apply_edits, explain_code,
    filter_suppressed, fix_source, render_json, render_report, render_sarif, severity_profile,
    summary_line, AllowDirective, Applicability, Baseline, Code, Diagnostic, Fingerprint,
    FixReport, SarifFile, Severity, SourceFile, Suggestion, CATALOGUE,
};
pub use magik_cert::{
    check_certificate, check_complete, check_incomplete, check_repair, CertError, CertStatement,
    Certificate, CompleteCert, FactDerivation, IncompleteCert, RepairCert,
};
pub use magik_completeness::{
    answering, cert_statements, certify, certify_explained, chase_query, classify_answers,
    complete_unifiers, constraints, count_bounds, explain, explain_check, g_op, is_complete,
    is_complete_under, is_complete_via_datalog, is_instantiation_of, is_mcg, is_mci, k_mcs,
    k_mcs_on, lint, mcg, mcg_under, mcg_with_stats, mcis, mcis_bounded, publishable_counts,
    render_counterexample, render_explanation, render_explanation_with_locations,
    repair_suggestions, semantics, tc_apply, tc_apply_datalog, tc_encoding, AnswerReport,
    CanonTerm, CanonicalQuery, ChaseOutcome, CheckExplanation, ConstraintSet, CountBounds,
    FiniteDomain, GuaranteeWitness, KMcsEngine, KMcsOptions, KMcsOutcome, KMcsStats, Key,
    KeyViolation, Lint, McgStats, PublishableCount, TcSet, TcStatement,
};
pub use magik_datalog::{MaterializeError, Materialized, RetractStats};
pub use magik_exec::{
    available_parallelism, explain_json, explain_text, CompiledBody, CompiledQuery, ExecStats,
    Executor, Plan, PlanCache, PoolCounters, ThreadPool,
};
pub use magik_parser::{
    parse_atom, parse_document, parse_instance, parse_query, parse_rules, parse_tcs,
    print_document, print_domain, print_instance, print_key, print_query, print_tcs, Document,
    LineIndex, ParseError,
};
pub use magik_relalg::{
    answers, are_equivalent, canonical_database, has_answer, has_answer_witness, is_contained_in,
    is_strictly_contained_in, minimize, Atom, Cst, DisplayWith, Fact, Instance, Pred, Query,
    Snapshot, StoreView, Substitution, Term, Var, Vocabulary, Witness, WitnessStep,
};
pub use magik_server::{
    initial_sync, run_replica, DurabilityOptions, Engine, RecoveryReport, ReplicaStatus, Server,
};
pub use magik_storage::{
    CheckpointImage, FsyncPolicy, StorageError, Store, StoreOptions, WalRecord,
};
