//! Certificate emission: proof-carrying verdicts for Theorem 3.
//!
//! [`certify`] upgrades [`crate::is_complete`]'s boolean into a
//! [`Certificate`] that the independent checker crate (`magik-cert`) can
//! validate by direct definition-checking:
//!
//! * **complete** — the witnessing assignment θ from
//!   [`magik_relalg::has_answer_witness`] over `T_C(D_Q)`, plus one
//!   [`FactDerivation`] per body atom naming the statement and grounding
//!   that guarantee its θ-image;
//! * **incomplete** — the canonical counterexample (available state
//!   `T_C(D_Q)` inside ideal state `D_Q`, lost answer `θū`) and a
//!   **minimal repair**: unconditional statements whose addition flips
//!   the verdict, computed greedy-then-minimize over the canonical
//!   database so that removing any single element flips it back.
//!
//! Everything is read from one witnessed `T_C(D_Q)` pass, which records
//! each guaranteed fact's first statement and grounding; complete
//! certificates take their derivations from that record. `T_C` is a
//! union over statements, so adding `Compl(a; true)` adds exactly the
//! facts of `D_Q` that match `a`: the repair search and the minimality
//! witnesses evaluate the query over the pass plus each candidate's
//! matches, with the candidates numbered after the statements of `C`.
//!
//! The emitter lives on the engine side and may use every engine
//! shortcut; soundness is the checker's problem, which is the point of
//! the split.

use magik_cert::{
    Binding, CertStatement, Certificate, CompleteCert, FactDerivation, IncompleteCert, RepairCert,
};
use magik_relalg::{
    canonical_database, freeze_term, has_answer, has_answer_witness, Atom, Cst, Fact, Instance,
    Query, Substitution, Term, Var,
};

use crate::explain::{explained, CheckExplanation};
use crate::tc_op::{tc_witnessed, WitnessedTc};
use crate::tcs::{TcSet, TcStatement};

/// Converts a TCS into the checker's statement representation, preserving
/// order (certificates index into this list).
pub fn cert_statements(tcs: &TcSet) -> Vec<CertStatement> {
    tcs.statements()
        .iter()
        .map(|s| CertStatement {
            head: s.head.clone(),
            condition: s.condition.clone(),
        })
        .collect()
}

fn binding_of(sub: &Substitution) -> Binding {
    sub.iter()
        .filter_map(|(v, t)| match t {
            Term::Cst(c) => Some((v, c)),
            Term::Var(_) => None,
        })
        .collect()
}

fn subst_of(binding: &[(Var, Cst)]) -> Substitution {
    Substitution::from_pairs(binding.iter().map(|&(v, c)| (v, Term::Cst(c))))
}

/// A repair candidate `Compl(atom; true)` and the facts of `D_Q` it
/// guarantees: the atom's matches.
struct Addition {
    atom: Atom,
    matches: WitnessedTc,
}

/// A query's canonical database, frozen head and witnessed `T_C(D_Q)`
/// pass: everything its certificate and repair read.
struct Frozen<'a> {
    q: &'a Query,
    db: Instance,
    target: Vec<Cst>,
    tc: WitnessedTc,
    /// `|C|`, the index the first addition takes.
    statements: usize,
}

impl<'a> Frozen<'a> {
    fn new(q: &'a Query, tcs: &TcSet) -> Self {
        let db = canonical_database(q);
        Frozen {
            q,
            target: q.head.iter().map(|&t| freeze_term(t)).collect(),
            tc: tc_witnessed(tcs.statements(), &db),
            db,
            statements: tcs.len(),
        }
    }

    /// `T_C(D_Q)` for `C` plus `Compl(a; true)` for each of `additions`,
    /// built as [`crate::tc_apply`] builds it for the extended set.
    fn repaired<'b>(&self, additions: impl IntoIterator<Item = &'b Addition>) -> Instance {
        let mut facts = self.tc.facts.clone();
        for a in additions {
            facts.extend_from(&a.matches.facts);
        }
        facts
    }

    /// The first derivation of a guaranteed fact, with `additions`
    /// numbered after the statements of `C`.
    fn derivation(&self, fact: &Fact, additions: &[Addition]) -> Option<(usize, Binding)> {
        if let Some((statement, hom)) = self.tc.first.get(fact) {
            return Some((*statement, binding_of(hom)));
        }
        additions.iter().enumerate().find_map(|(j, a)| {
            let (_, hom) = a.matches.first.get(fact)?;
            Some((self.statements + j, binding_of(hom)))
        })
    }

    /// A completeness witness for `C` plus `additions`, or `None` when
    /// the head is lost over the facts they guarantee.
    fn complete_cert(&self, additions: &[Addition]) -> Option<CompleteCert> {
        let available = self.repaired(additions);
        let theta = has_answer_witness(self.q, &available, &self.target)?.binding;
        let sub = subst_of(&theta);
        let derivations = self
            .q
            .body
            .iter()
            .map(|atom| {
                let fact = sub
                    .apply_atom(atom)
                    .to_fact()
                    .expect("θ grounds every body atom");
                let (statement, binding) = self
                    .derivation(&fact, additions)
                    .expect("θ-images of body atoms are in T_C(D_Q)");
                FactDerivation {
                    fact,
                    statement,
                    binding,
                }
            })
            .collect();
        Some(CompleteCert { theta, derivations })
    }

    /// The counterexample with available state `available`.
    fn incomplete_cert(&self, available: &Instance) -> IncompleteCert {
        IncompleteCert {
            available: available.iter_facts().collect(),
            target: self.target.clone(),
        }
    }

    /// A 1-minimal repair: one candidate per distinct body atom, then
    /// greedily drop every candidate whose removal keeps the repaired set
    /// complete. Empty when `C` alone is complete.
    fn minimal_repair(&self) -> Vec<Addition> {
        let mut kept: Vec<Addition> = Vec::new();
        for a in &self.q.body {
            if !kept.iter().any(|k| k.atom == *a) {
                let statement = TcStatement::new(a.clone(), Vec::new());
                kept.push(Addition {
                    atom: a.clone(),
                    matches: tc_witnessed(std::slice::from_ref(&statement), &self.db),
                });
            }
        }
        let mut i = 0;
        while i < kept.len() {
            if has_answer(self.q, &self.repaired(all_but(&kept, i)), &self.target) {
                kept.remove(i);
            } else {
                i += 1;
            }
        }
        kept
    }

    /// The certificate of the verdict.
    fn certificate(&self) -> Certificate {
        match self.complete_cert(&[]) {
            Some(c) => Certificate::Complete(c),
            None => Certificate::Incomplete {
                counterexample: self.incomplete_cert(&self.tc.facts),
                repair: self.repair_cert(),
            },
        }
    }

    /// The repair certificate, or `None` when there is nothing to repair.
    fn repair_cert(&self) -> Option<RepairCert> {
        let kept = self.minimal_repair();
        if kept.is_empty() {
            return None;
        }
        let complete = self
            .complete_cert(&kept)
            .expect("a repair restores completeness");
        let minimality = (0..kept.len())
            .map(|i| self.incomplete_cert(&self.repaired(all_but(&kept, i))))
            .collect();
        Some(RepairCert {
            additions: kept.into_iter().map(|a| a.atom).collect(),
            complete,
            minimality,
        })
    }
}

/// Every addition but the `i`-th, in order.
fn all_but(additions: &[Addition], i: usize) -> impl Iterator<Item = &Addition> {
    additions
        .iter()
        .enumerate()
        .filter(move |&(j, _)| j != i)
        .map(|(_, a)| a)
}

/// Computes a 1-minimal repair for an incomplete verdict: a set of
/// unconditional statements (one per uncovered body atom pattern) whose
/// addition makes `Q` complete, minimized greedily so that removing any
/// single element makes it incomplete again.
///
/// Always succeeds for incomplete verdicts: adding `Compl(a; true)` for
/// *every* body atom makes `T_C(D_Q) = D_Q`, under which the identity
/// assignment witnesses completeness.
pub fn repair_suggestions(q: &Query, tcs: &TcSet) -> Vec<TcStatement> {
    Frozen::new(q, tcs)
        .minimal_repair()
        .into_iter()
        .map(|a| TcStatement::new(a.atom, Vec::new()))
        .collect()
}

/// Decides `C ⊨ Compl(Q)` and emits a checkable [`Certificate`] for the
/// verdict: a completeness witness, or a counterexample plus a minimal
/// repair.
///
/// The certificate validates against
/// [`magik_cert::check_certificate`]`(q, &cert_statements(tcs), …)`.
pub fn certify(q: &Query, tcs: &TcSet) -> Certificate {
    Frozen::new(q, tcs).certificate()
}

/// [`certify`] and [`crate::explain_check`] of `q` together, read from
/// one witnessed `T_C(D_Q)` pass instead of two.
pub fn certify_explained(q: &Query, tcs: &TcSet) -> (Certificate, CheckExplanation) {
    let frozen = Frozen::new(q, tcs);
    let cert = frozen.certificate();
    (cert, explained(q, tcs, frozen.db, frozen.tc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_complete;
    use crate::testutil::{flight, q_pbl, q_ppb, school_tcs, table1};
    use magik_cert::{check_certificate, check_complete, check_repair, CertError};
    use magik_relalg::Vocabulary;

    fn assert_valid(q: &Query, tcs: &TcSet) -> Certificate {
        let cert = certify(q, tcs);
        assert_eq!(
            check_certificate(q, &cert_statements(tcs), &cert),
            Ok(()),
            "emitted certificate must validate"
        );
        cert
    }

    #[test]
    fn complete_verdicts_carry_valid_witnesses() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let cert = assert_valid(&q, &tcs);
        assert!(matches!(cert, Certificate::Complete(_)));
    }

    #[test]
    fn incomplete_verdicts_carry_counterexample_and_repair() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let cert = assert_valid(&q, &tcs);
        match cert {
            Certificate::Incomplete { repair, .. } => {
                let repair = repair.expect("incomplete verdicts carry a repair");
                // The repair is exactly the uncovered learns-atom.
                assert_eq!(repair.additions.len(), 1);
            }
            Certificate::Complete(_) => panic!("q_pbl is incomplete"),
        }
    }

    #[test]
    fn cyclic_and_table1_fixtures_certify() {
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        assert_valid(&q, &tcs);
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        assert_valid(&q, &tcs);
    }

    #[test]
    fn repair_removal_flips_validation() {
        // Acceptance criterion: the repair set is 1-minimal — removing any
        // element makes the completeness half of the repair fail.
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let Certificate::Incomplete {
            repair: Some(repair),
            ..
        } = certify(&q, &tcs)
        else {
            panic!("q_pbl is incomplete with a repair");
        };
        let stmts = cert_statements(&tcs);
        assert_eq!(check_repair(&q, &stmts, &repair), Ok(()));
        for i in 0..repair.additions.len() {
            let mut broken = repair.clone();
            broken.additions.remove(i);
            broken.minimality.remove(i);
            assert!(
                check_repair(&q, &stmts, &broken).is_err(),
                "removing addition {i} must flip validation"
            );
        }
    }

    #[test]
    fn empty_tcs_repair_covers_every_body_pattern() {
        let mut v = Vocabulary::new();
        let q = q_ppb(&mut v);
        let tcs = TcSet::default();
        let repairs = repair_suggestions(&q, &tcs);
        assert!(!repairs.is_empty());
        assert!(is_complete(
            &q,
            &tcs.statements()
                .iter()
                .chain(&repairs)
                .cloned()
                .collect::<TcSet>()
        ));
        assert!(matches!(
            certify(&q, &tcs),
            Certificate::Incomplete {
                repair: Some(_),
                ..
            }
        ));
        assert_valid(&q, &tcs);
    }

    #[test]
    fn forged_certificates_are_rejected() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_ppb(&mut v);
        let Certificate::Complete(mut cert) = certify(&q, &tcs) else {
            panic!("q_ppb is complete");
        };
        // Swap the verdict's witness onto a weaker statement set: the
        // checker catches the now-dangling statement indices or unmet
        // conditions.
        let weak = TcSet::new(vec![tcs.statements()[0].clone()]);
        assert!(check_complete(&q, &cert_statements(&weak), &cert).is_err());
        // Forge θ: claim the head maps elsewhere.
        cert.theta.clear();
        assert!(matches!(
            check_complete(&q, &cert_statements(&tcs), &cert),
            Err(CertError::Unbound(_))
        ));
    }
}
