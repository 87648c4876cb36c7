//! Relational-algebra substrate for MAGIK-rs.
//!
//! This crate provides the data model and algorithms that the completeness
//! reasoner of [Corman, Nutt, Savković, *Complete Approximations of
//! Incomplete Queries*] is built on:
//!
//! * interned **symbols**, **variables**, **constants** and **predicates**
//!   ([`Vocabulary`], [`Symbol`], [`Var`], [`Cst`], [`Pred`]);
//! * **atoms**, **facts** and **conjunctive queries** ([`Atom`], [`Fact`],
//!   [`Query`]) — queries are *generalized* conjunctive queries: the safety
//!   condition is not enforced structurally (the paper's Section 3 needs
//!   unsafe intermediate queries), it is checked by [`Query::is_safe`];
//! * **substitutions** and the freezing map θ ([`Substitution`],
//!   [`freeze_atom`], [`canonical_database`]);
//! * database **instances** with per-column indexes ([`Instance`],
//!   [`Relation`]), whose clones are cheap copy-on-write snapshots: each
//!   relation is a shared base plus a small delta, so a write after a
//!   clone copies O(change), not the relation ([`cow_cells_copied`]
//!   counts the copies);
//! * conjunctive-query **evaluation** by compiled register plans (the
//!   [`exec`] plan IR: atom order, access paths and slot layout fixed at
//!   compile time; [`answers`], [`has_answer`], [`homomorphisms`]), every
//!   seeded run seeded by [`match_ground`];
//! * **containment**, **equivalence** and **minimization** of conjunctive
//!   queries, following Chandra–Merlin ([`is_contained_in`],
//!   [`are_equivalent`], [`minimize`], [`is_minimal`]).
//!
//! # Example
//!
//! ```
//! use magik_relalg::{Vocabulary, Instance, Query, Term, answers};
//!
//! let mut v = Vocabulary::new();
//! let pupil = v.pred("pupil", 3);
//! let (n, c, s) = (v.var("N"), v.var("C"), v.var("S"));
//! let q = Query::new(
//!     v.sym("q"),
//!     vec![Term::Var(n)],
//!     vec![Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)])],
//! );
//! # use magik_relalg::Atom;
//!
//! let mut db = Instance::new();
//! db.insert(Fact::new(pupil, vec![v.cst("john"), v.cst("1a"), v.cst("goethe")]));
//! # use magik_relalg::Fact;
//!
//! let ans = answers(&q, &db).unwrap();
//! assert_eq!(ans.len(), 1);
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod atom;
pub mod batch;
pub mod codec;
mod containment;
mod display;
mod eval;
pub mod exec;
mod instance;
mod minimize;
mod query;
mod subst;
mod term;
mod vocab;

pub use atom::{Atom, Fact, Pred};
pub use batch::{Batch, BatchPlan, JoinStrategy};
pub use containment::{are_equivalent, is_contained_in, is_strictly_contained_in};
pub use display::{json_escape, DisplayWith, WithVocab};
pub use eval::{
    answers, has_answer, has_answer_witness, homomorphisms, Answer, AnswerSet, EvalError, Witness,
    WitnessStep,
};
pub use exec::match_ground;
pub use instance::{cow_cells_copied, Instance, Relation, RowRef, Snapshot, DELTA_ROWS};
pub use minimize::{is_minimal, minimize, minimize_in_place};
pub use query::Query;
pub use subst::{
    canonical_database, freeze_atom, freeze_term, unfreeze_atom, unfreeze_fact, unfreeze_term,
    Substitution,
};
pub use term::{Cst, Term, Var};
pub use vocab::{Symbol, Vocabulary};
