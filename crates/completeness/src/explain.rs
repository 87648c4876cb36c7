//! Explanations: *why* is a query complete or incomplete?
//!
//! The MAGIK demonstration tool's selling point was explaining its
//! verdicts: for each query atom, which statement guarantees it (and via
//! which condition match), or the fact that none does, and for an
//! incomplete query a counterexample. This module reads both from the
//! witnessed `T_C(D_Q)` pass of the Theorem 3 check, the record
//! certificates read too ([`crate::certify_explained`] returns both from
//! one pass), and renders them for humans.

use std::fmt::Write as _;

use magik_relalg::{
    canonical_database, freeze_atom, freeze_term, has_answer, unfreeze_atom, unfreeze_fact, Atom,
    Cst, DisplayWith, Instance, Query, Vocabulary,
};

use crate::semantics::IncompleteDatabase;
use crate::tc_op::{tc_witnessed, WitnessedTc};
use crate::tcs::TcSet;

/// Why one body atom is guaranteed to be available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuaranteeWitness {
    /// Index of the covering statement in the [`TcSet`].
    pub statement: usize,
    /// The condition atoms of that statement, instantiated by the witness
    /// homomorphism (unfrozen back into query terms). Empty for
    /// unconditional statements.
    pub condition: Vec<Atom>,
}

/// The per-atom verdicts of one completeness check.
#[derive(Debug, Clone)]
pub struct CheckExplanation {
    /// The overall verdict (`C ⊨ Compl(Q)`).
    pub complete: bool,
    /// For each body atom, in body order: a witness if the atom is
    /// guaranteed, `None` otherwise.
    pub atoms: Vec<(Atom, Option<GuaranteeWitness>)>,
    /// For an incomplete verdict, the canonical counterexample: the
    /// query's canonical database `D_Q` as the ideal state and what the
    /// statements guarantee of it, `T_C(D_Q)`, as the available one. It
    /// satisfies every statement, and the query loses its frozen head
    /// answer on it. `None` when the query is complete.
    pub counterexample: Option<IncompleteDatabase>,
}

impl CheckExplanation {
    /// The body atoms no statement guarantees.
    pub fn unguaranteed(&self) -> impl Iterator<Item = &Atom> {
        self.atoms
            .iter()
            .filter(|(_, w)| w.is_none())
            .map(|(a, _)| a)
    }
}

/// Runs the Theorem 3 check and records, for every guaranteed body atom,
/// its first covering statement and that statement's instantiated
/// condition, and for an incomplete verdict the counterexample.
pub fn explain_check(q: &Query, tcs: &TcSet) -> CheckExplanation {
    let db = canonical_database(q);
    let tc = tc_witnessed(tcs.statements(), &db);
    explained(q, tcs, db, tc)
}

/// The explanation of `q`'s verdict read from `tc`, the witnessed pass
/// over its canonical database `db`.
pub(crate) fn explained(q: &Query, tcs: &TcSet, db: Instance, tc: WitnessedTc) -> CheckExplanation {
    let target: Vec<Cst> = q.head.iter().map(|&t| freeze_term(t)).collect();
    let complete = has_answer(q, &tc.facts, &target);
    let atoms = q
        .body
        .iter()
        .map(|a| {
            let witness = tc.first.get(&freeze_atom(a)).map(|(si, hom)| {
                let condition = &tcs.statements()[*si].condition;
                GuaranteeWitness {
                    statement: *si,
                    // Unfreeze so the witness reads in query terms.
                    condition: condition
                        .iter()
                        .map(|g| unfreeze_atom(&hom.apply_atom(g)))
                        .collect(),
                }
            });
            (a.clone(), witness)
        })
        .collect();
    let counterexample = (!complete)
        .then(|| IncompleteDatabase::new(db, tc.facts).expect("T_C only keeps facts of D_Q"));
    CheckExplanation {
        complete,
        atoms,
        counterexample,
    }
}

/// Renders an explanation as indented text.
pub fn render_explanation(
    q: &Query,
    tcs: &TcSet,
    e: &CheckExplanation,
    vocab: &Vocabulary,
) -> String {
    render_explanation_with_locations(q, tcs, e, vocab, |_| None)
}

/// Like [`render_explanation`], but each witnessing statement is cited
/// with its source location: `locate(i)` maps a statement index to a
/// short location string (e.g. `line 5`) when the statement came from a
/// parsed document. Statements without a location render as before.
pub fn render_explanation_with_locations(
    q: &Query,
    tcs: &TcSet,
    e: &CheckExplanation,
    vocab: &Vocabulary,
    locate: impl Fn(usize) -> Option<String>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", q.display(vocab));
    for (atom, witness) in &e.atoms {
        match witness {
            Some(w) => {
                let _ = write!(
                    out,
                    "  + {}  guaranteed by [{}] {}",
                    atom.display(vocab),
                    w.statement,
                    tcs.statements()[w.statement].display(vocab)
                );
                if let Some(loc) = locate(w.statement) {
                    let _ = write!(out, " ({loc})");
                }
                if !w.condition.is_empty() {
                    let conds: Vec<String> = w
                        .condition
                        .iter()
                        .map(|c| c.display(vocab).to_string())
                        .collect();
                    let _ = write!(out, "\n      condition matched on {}", conds.join(", "));
                }
                out.push('\n');
            }
            None => {
                let _ = writeln!(
                    out,
                    "  - {}  not guaranteed by any statement",
                    atom.display(vocab)
                );
            }
        }
    }
    if e.complete {
        let _ = writeln!(out, "  => COMPLETE");
        if e.unguaranteed().next().is_some() {
            let _ = writeln!(
                out,
                "     (unguaranteed atoms are redundant: the query folds onto its guaranteed part)"
            );
        }
    } else {
        let missing: Vec<String> = e
            .unguaranteed()
            .map(|a| a.display(vocab).to_string())
            .collect();
        let _ = writeln!(
            out,
            "  => INCOMPLETE: answers may be missing because of {}",
            missing.join(", ")
        );
    }
    out
}

/// Renders a counterexample: the ideal and available states and the lost
/// answer.
pub fn render_counterexample(q: &Query, db: &IncompleteDatabase, vocab: &Vocabulary) -> String {
    let ideal_facts: Vec<String> = db
        .ideal()
        .iter_facts()
        .map(|f| unfreeze_fact(&f).display(vocab).to_string())
        .collect();
    let avail_facts: Vec<String> = db
        .available()
        .iter_facts()
        .map(|f| unfreeze_fact(&f).display(vocab).to_string())
        .collect();
    let target: Vec<Cst> = q.head.iter().map(|&t| freeze_term(t)).collect();
    format!(
        "counterexample (frozen query variables act as unknown constants):\n  \
         ideal state:     {{{}}}\n  \
         available state: {{{}}}\n  \
         lost answer:     {}\n",
        ideal_facts.join(", "),
        avail_facts.join(", "),
        target.display(vocab)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_complete;
    use crate::testutil::{flight, q_pbl, q_ppb, school_tcs};
    use magik_relalg::Term;

    #[test]
    fn explains_the_complete_running_example() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let e = explain_check(&q, &tcs);
        assert!(e.complete);
        assert_eq!(e.unguaranteed().count(), 0);
        // pupil is covered by statement 1 (C_pb) with the school condition.
        let (_, w) = &e.atoms[0];
        let w = w.as_ref().unwrap();
        assert_eq!(w.statement, 1);
        assert_eq!(w.condition.len(), 1);
        let school = v.pred("school", 3);
        assert_eq!(w.condition[0].pred, school);
        // The condition instance mentions the query's school constant.
        assert!(w.condition[0].args.contains(&Term::Cst(v.cst("merano"))));
        // school is covered by statement 0 (C_sp), unconditionally.
        let (_, w2) = &e.atoms[1];
        assert_eq!(w2.as_ref().unwrap().statement, 0);
        assert!(w2.as_ref().unwrap().condition.is_empty());
    }

    #[test]
    fn explains_the_incomplete_running_example() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let e = explain_check(&q, &tcs);
        assert!(!e.complete);
        let missing: Vec<_> = e.unguaranteed().collect();
        assert_eq!(missing.len(), 1);
        let learns = v.pred("learns", 2);
        assert_eq!(missing[0].pred, learns);
        let rendered = render_explanation(&q, &tcs, &e, &v);
        assert!(rendered.contains("- learns(N, L)  not guaranteed"));
        assert!(rendered.contains("INCOMPLETE"));
    }

    #[test]
    fn complete_nonminimal_query_reports_redundant_atoms() {
        // Q(X) <- r(X, a), r(X, Y) with Compl(r(X, a); true): complete,
        // but r(X, Y) itself is unguaranteed (it is redundant).
        let mut v = Vocabulary::new();
        let r = v.pred("r", 2);
        let (x, y) = (v.var("X"), v.var("Y"));
        let a = v.cst("a");
        let tcs = TcSet::new(vec![crate::tcs::TcStatement::new(
            Atom::new(r, vec![Term::Var(x), Term::Cst(a)]),
            vec![],
        )]);
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![
                Atom::new(r, vec![Term::Var(x), Term::Cst(a)]),
                Atom::new(r, vec![Term::Var(x), Term::Var(y)]),
            ],
        );
        assert!(is_complete(&q, &tcs));
        let e = explain_check(&q, &tcs);
        assert!(e.complete);
        assert_eq!(e.unguaranteed().count(), 1);
        let rendered = render_explanation(&q, &tcs, &e, &v);
        assert!(rendered.contains("redundant"));
    }

    #[test]
    fn rendered_witnesses_cite_statement_locations() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let e = explain_check(&q, &tcs);
        let rendered = render_explanation_with_locations(&q, &tcs, &e, &v, |i| {
            Some(format!("line {}", i + 4))
        });
        // Statement 1 (C_pb) covers pupil, statement 0 (C_sp) covers school.
        assert!(rendered.contains("(line 5)"), "{rendered}");
        assert!(rendered.contains("(line 4)"), "{rendered}");
        // The plain renderer is the no-location specialization.
        assert_eq!(
            render_explanation(&q, &tcs, &e, &v),
            render_explanation_with_locations(&q, &tcs, &e, &v, |_| None)
        );
    }

    #[test]
    fn counterexample_for_incomplete_queries() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let db = explain_check(&q, &tcs)
            .counterexample
            .expect("incomplete query has a counterexample");
        assert_eq!(
            db,
            IncompleteDatabase::minimal_completion(canonical_database(&q), &tcs)
        );
        assert!(db.satisfies_all(&tcs));
        assert!(!db.query_complete(&q).unwrap());
        let rendered = render_counterexample(&q, &db, &v);
        assert!(rendered.contains("lost answer"));
        assert!(rendered.contains("N'"));
    }

    #[test]
    fn no_counterexample_for_complete_queries() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        assert!(explain_check(&q, &tcs).counterexample.is_none());
    }

    #[test]
    fn flight_explanation_shows_the_cycle_dependency() {
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        let e = explain_check(&q, &tcs);
        assert!(!e.complete);
        // conn(X, Y) is unguaranteed: its condition needs another hop.
        assert_eq!(e.unguaranteed().count(), 1);
        // The self-loop IS guaranteed, with the condition matched on the
        // loop itself.
        let conn = v.pred("conn", 2);
        let x = v.var("X");
        let loop_q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(conn, vec![Term::Var(x), Term::Var(x)])],
        );
        let e2 = explain_check(&loop_q, &tcs);
        assert!(e2.complete);
        let w = e2.atoms[0].1.as_ref().unwrap();
        assert_eq!(w.condition.len(), 1);
        assert_eq!(w.condition[0].pred, conn);
    }
}
