//! Query-completeness reasoning: the core contribution of
//! *Complete Approximations of Incomplete Queries* (Corman, Nutt, Savković).
//!
//! Given a conjunctive query `Q` and a set of **table-completeness
//! statements** (TCSs) describing which parts of a partially complete
//! database are guaranteed complete, this crate decides and computes:
//!
//! * whether `Q` is **complete** — all ideal answers are available
//!   ([`is_complete`], Theorem 3);
//! * the **minimal complete generalization** (MCG) of `Q` — the most
//!   specific complete query containing `Q`, unique up to equivalence
//!   ([`mcg`], Algorithm 1, via the monotone [`g_op`] operator);
//! * the **maximal complete instantiations** (MCIs) of `Q` — the most
//!   general complete queries obtained by instantiating `Q`'s variables
//!   ([`mcis`], Algorithm 2, via [complete unifiers](complete_unifiers));
//! * the **k-MCSs** of `Q` — maximal complete specializations with at most
//!   `|Q| + k` body atoms ([`k_mcs`], Algorithm 3), with both a
//!   paper-faithful naive engine and an optimized engine implementing the
//!   Section 5 optimizations.
//!
//! The *semantics* — incomplete databases as ideal/available pairs, TCS
//! satisfaction, query completeness over a concrete pair — is implemented
//! in [`semantics`], so every reasoning result can be (and, in the test
//! suite, is) validated against the model theory it abstracts.
//!
//! # Example — the paper's running example
//!
//! ```
//! use magik_relalg::{Vocabulary, Atom, Query, Term};
//! use magik_completeness::{TcSet, TcStatement, is_complete};
//!
//! let mut v = Vocabulary::new();
//! let pupil = v.pred("pupil", 3);
//! let school = v.pred("school", 3);
//! let (n, c, s, t, d) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"), v.var("D"));
//! let (primary, merano) = (v.cst("primary"), v.cst("merano"));
//!
//! // C_sp: Compl(school(S, primary, D); true)
//! // C_pb: Compl(pupil(N, C, S); school(S, T, merano))
//! let tcs = TcSet::new(vec![
//!     TcStatement::new(
//!         Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Var(d)]),
//!         vec![],
//!     ),
//!     TcStatement::new(
//!         Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
//!         vec![Atom::new(school, vec![Term::Var(s), Term::Var(t), Term::Cst(merano)])],
//!     ),
//! ]);
//!
//! // Q_ppb(N) <- pupil(N, C, S), school(S, primary, merano)
//! let q = Query::new(
//!     v.sym("q"),
//!     vec![Term::Var(n)],
//!     vec![
//!         Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
//!         Atom::new(school, vec![Term::Var(s), Term::Cst(primary), Term::Cst(merano)]),
//!     ],
//! );
//! assert!(is_complete(&q, &tcs));
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod answering;
mod canonical;
pub mod certify;
mod check;
pub mod codec;
pub mod constraints;
pub mod explain;
mod generalize;
pub mod keys;
pub mod lint;
mod mci;
pub mod semantics;
mod specialize;
mod tc_op;
mod tcs;
#[cfg(test)]
pub(crate) mod testutil;
mod unifiers;

pub use answering::{
    classify_answers, count_bounds, publishable_counts, AnswerReport, CountBounds, PublishableCount,
};
pub use canonical::{CanonTerm, CanonicalQuery};
pub use certify::{cert_statements, certify, certify_explained, repair_suggestions};
pub use check::{is_complete, is_complete_via_datalog};
pub use constraints::{is_complete_under, mcg_under, ConstraintSet, DomainViolation, FiniteDomain};
pub use explain::{
    explain_check, render_counterexample, render_explanation, render_explanation_with_locations,
    CheckExplanation, GuaranteeWitness,
};
pub use generalize::{g_op, is_mcg, mcg, mcg_with_stats, McgStats};
pub use keys::{chase_query, ChaseOutcome, Key, KeyViolation};
pub use lint::{lint, Lint};
pub use mci::{is_instantiation_of, is_mci, mcis, mcis_bounded};
pub use specialize::{k_mcs, k_mcs_on, KMcsEngine, KMcsOptions, KMcsOutcome, KMcsStats};
pub use tc_op::{tc_apply, tc_apply_datalog, tc_encoding};
pub use tcs::{TcSet, TcStatement};
pub use unifiers::{complete_unifiers, complete_unifiers_naive};
