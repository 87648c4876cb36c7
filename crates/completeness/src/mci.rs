//! Maximal complete instantiations (Definition 19, Algorithm 2).

use std::collections::HashSet;

use magik_relalg::{is_contained_in, Atom, Pred, Query, Term, Var, Vocabulary};
use magik_unify::Unifier;

use crate::canonical::CanonTerm;
use crate::tcs::TcSet;
use crate::unifiers::{
    complete_unifiers, for_each_complete_unifier, Scratch, ScratchNames, VarPool,
};

/// Keeps one representative per equivalence class and drops strictly
/// contained queries. Shared by Algorithm 2 (line 6–7) and Algorithm 3
/// (line 5–6).
pub(crate) fn retain_maximal(cands: Vec<Query>) -> Vec<Query> {
    let mut out: Vec<Query> = Vec::new();
    'next: for q in cands {
        let mut i = 0;
        while i < out.len() {
            if is_contained_in(&q, &out[i]) {
                // q is subsumed (or equivalent to) a kept candidate.
                continue 'next;
            }
            if is_contained_in(&out[i], &q) {
                // Strictly contained (the equivalent case was caught above).
                out.swap_remove(i);
                continue;
            }
            i += 1;
        }
        out.push(q);
    }
    out
}

/// The dedup key of a candidate: its head and body with duplicate body
/// atoms dropped, the atoms stably sorted by a shape key (predicate and
/// constant pattern, variable identity masked), and the variables
/// numbered by first occurrence, head first. α-equivalent candidates
/// whose atoms sort alike get equal keys, so they are deduplicated
/// cheaply before the quadratic maximality filter. The key interns
/// nothing and ignores which ids the variables have.
pub(crate) type CandidateKey = (Vec<CanonTerm>, Vec<(Pred, Vec<CanonTerm>)>);

/// The [`CandidateKey`] of `q`.
pub(crate) fn canonical_form(q: &Query) -> CandidateKey {
    let mut sorted = q.clone();
    sorted.dedup_body();
    let shape = |a: &Atom| {
        (
            a.pred,
            a.args
                .iter()
                .map(|t| match t {
                    Term::Var(_) => None,
                    Term::Cst(c) => Some(*c),
                })
                .collect::<Vec<_>>(),
        )
    };
    sorted.body.sort_by_key(|a| shape(a));
    let mut numbered: Vec<Var> = Vec::new();
    let mut canon = |t: &Term| match *t {
        Term::Cst(c) => CanonTerm::Cst(c),
        Term::Var(v) => {
            let n = numbered.iter().position(|&w| w == v).unwrap_or_else(|| {
                numbered.push(v);
                numbered.len() - 1
            });
            CanonTerm::Var(u32::try_from(n).expect("fewer than 2^32 variables"))
        }
    };
    let head = sorted.head.iter().map(&mut canon).collect();
    let body = sorted
        .body
        .iter()
        .map(|a| (a.pred, a.args.iter().map(&mut canon).collect()))
        .collect();
    (head, body)
}

/// Decides whether `candidate` is an instantiation of `q`: whether some
/// substitution α satisfies `αQ = candidate` (same head, same body as a
/// set of atoms).
pub fn is_instantiation_of(candidate: &Query, q: &Query) -> bool {
    if candidate.head.len() != q.head.len() {
        return false;
    }
    let cand_body: HashSet<&Atom> = candidate.body.iter().collect();
    // Backtracking: map every body atom of q onto some atom of candidate
    // under a single substitution that also maps the head exactly.
    fn assign(
        qa: &[Atom],
        i: usize,
        cand_atoms: &[&Atom],
        u: &mut Unifier,
        q: &Query,
        candidate: &Query,
        cand_body: &HashSet<&Atom>,
    ) -> bool {
        if i == qa.len() {
            // Verify αQ equals candidate exactly (image set and head).
            let alpha = u.to_substitution();
            let image = alpha.apply_query(q);
            if image.head != candidate.head {
                return false;
            }
            let image_set: HashSet<&Atom> = image.body.iter().collect();
            return image_set == *cand_body;
        }
        for target in cand_atoms {
            let cp = u.checkpoint();
            if unify_onto(u, &qa[i], target)
                && assign(qa, i + 1, cand_atoms, u, q, candidate, cand_body)
            {
                return true;
            }
            u.rollback(cp);
        }
        false
    }
    /// One-directional match: bind variables of `pattern` so that it
    /// becomes exactly `target` (variables of `target` are constants-like:
    /// they may only be images, never bound).
    fn unify_onto(u: &mut Unifier, pattern: &Atom, target: &Atom) -> bool {
        if pattern.pred != target.pred || pattern.args.len() != target.args.len() {
            return false;
        }
        let cp = u.checkpoint();
        for (&p, &t) in pattern.args.iter().zip(&target.args) {
            let resolved = u.resolve(p);
            let ok = match resolved {
                Term::Var(v) => {
                    // Already equal (literally or through the bindings)?
                    resolved == t
                        || u.resolve(t) == resolved
                        // Otherwise bind the pattern variable to the target.
                        || (u.unify_terms(Term::Var(v), t) && u.resolve(Term::Var(v)) == t)
                }
                other => other == t,
            };
            if !ok {
                u.rollback(cp);
                return false;
            }
        }
        true
    }
    let cand_atoms: Vec<&Atom> = candidate.body.iter().collect();
    let mut u = Unifier::new();
    assign(&q.body, 0, &cand_atoms, &mut u, q, candidate, &cand_body)
}

/// Decides whether `candidate` is an MCI of `q` wrt `tcs` — the decision
/// problem of Theorem 25 (in `Π₂ᵖ`), implemented by the three steps of
/// its proof sketch: (I) is the candidate complete, (II) is it an
/// instantiation of (the minimized) `q`, (III) is no complete
/// instantiation strictly more general.
pub fn is_mci(candidate: &Query, q: &Query, tcs: &TcSet, vocab: &mut Vocabulary) -> bool {
    // (I) completeness.
    if !crate::check::is_complete(candidate, tcs) {
        return false;
    }
    // (II) instantiation of the query as given (Definition 19).
    if !is_instantiation_of(candidate, q) {
        return false;
    }
    // (III) maximality among complete instantiations: every MCI that
    // contains the candidate must be equivalent to it.
    mcis(q, tcs, vocab)
        .iter()
        .all(|m| !is_contained_in(candidate, m) || is_contained_in(m, candidate))
}

/// Computes all maximal complete instantiations of `q` wrt `tcs`
/// (Algorithm 2). The result contains one representative per equivalence
/// class, each a complete instantiation of `q` maximal wrt containment.
///
/// The search runs on the query **as given** (not its core): redundant
/// atoms enlarge the space of instantiations — e.g. `q(X) ← p(X,Y),
/// p(X,Z)` has the MCI `p(X,a), p(X,b)` under mutually-conditioned
/// statements, which no instantiation of the one-atom core reaches.
/// Proposition 21 (complete unifiers yield complete queries) holds for
/// arbitrary conjunctive queries, so soundness is unaffected.
pub fn mcis(q: &Query, tcs: &TcSet, vocab: &mut Vocabulary) -> Vec<Query> {
    let mut seen = HashSet::new();
    let mut cands = Vec::new();
    for gamma in complete_unifiers(q, tcs, vocab) {
        let mut qi = gamma.apply_query(q);
        qi.dedup_body();
        if seen.insert(canonical_form(&qi)) {
            cands.push(qi);
        }
    }
    retain_maximal(cands)
}

/// Computes the complete instantiations of `q` with at most `max_size`
/// distinct body atoms, maximal within that space — the `MCI_{≤n+k}`
/// subroutine of Algorithm 3.
pub fn mcis_bounded(q: &Query, tcs: &TcSet, vocab: &mut Vocabulary, max_size: usize) -> Vec<Query> {
    let mut names = ScratchNames::new(vocab, q, tcs);
    let mut pool = names.pool(Scratch::Statement);
    let (cands, _, _) = collect_bounded_instantiations(q, tcs, &mut pool, max_size, true, u64::MAX);
    // The candidates instantiate `q`, so they mention no scratch variable.
    names.grow(&pool);
    retain_maximal(cands)
}

/// Enumerates complete instantiations of `q` (not necessarily minimal!)
/// whose deduplicated size is at most `max_size`. Returns the candidates
/// (syntactically deduplicated), the unifier-search stats, and whether the
/// search ran to exhaustion. Shared with Algorithm 3.
pub(crate) fn collect_bounded_instantiations(
    q: &Query,
    tcs: &TcSet,
    pool: &mut VarPool,
    max_size: usize,
    indexed: bool,
    max_unify_calls: u64,
) -> (Vec<Query>, crate::unifiers::UnifierSearchStats, bool) {
    let mut seen = HashSet::new();
    let mut cands = Vec::new();
    let (stats, complete) =
        for_each_complete_unifier(q, tcs, pool, indexed, max_unify_calls, &mut |gamma| {
            let mut qi = gamma.apply_query(q);
            qi.dedup_body();
            if qi.size() <= max_size && seen.insert(canonical_form(&qi)) {
                cands.push(qi);
            }
            true
        });
    (cands, stats, complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::is_complete;
    use crate::testutil::{flight, q_pbl, school_tcs, table1};
    use magik_relalg::{are_equivalent, Term, Vocabulary};

    #[test]
    fn mci_of_q_pbl_is_the_english_specialization() {
        // Example 22/24: the single MCI replaces L by english.
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let result = mcis(&q, &tcs, &mut v);
        assert_eq!(result.len(), 1);
        let mci = &result[0];
        assert!(is_complete(mci, &tcs));
        assert!(is_instantiation_of(mci, &q));
        assert!(is_contained_in(mci, &q));
        let learns = v.pred("learns", 2);
        let english = v.cst("english");
        let learns_atom = mci.body.iter().find(|a| a.pred == learns).unwrap();
        assert_eq!(learns_atom.args[1], Term::Cst(english));
    }

    #[test]
    fn mci_of_flight_query_is_the_self_loop() {
        // Theorem 17 illustration: Q'(X) <- conn(X, X) is the only MCI.
        let mut v = Vocabulary::new();
        let (tcs, q) = flight(&mut v);
        let result = mcis(&q, &tcs, &mut v);
        assert_eq!(result.len(), 1);
        let conn = v.pred("conn", 2);
        let mci = &result[0];
        assert_eq!(mci.body.len(), 1);
        assert_eq!(mci.body[0].pred, conn);
        assert_eq!(mci.body[0].args[0], mci.body[0].args[1]);
        assert_eq!(mci.head[0], mci.body[0].args[0]);
    }

    #[test]
    fn table1_query_has_no_mci() {
        let mut v = Vocabulary::new();
        let (tcs, q) = table1(&mut v);
        assert!(mcis(&q, &tcs, &mut v).is_empty());
    }

    #[test]
    fn complete_query_has_itself_as_only_mci() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = crate::testutil::q_ppb(&mut v);
        let result = mcis(&q, &tcs, &mut v);
        assert_eq!(result.len(), 1);
        assert!(are_equivalent(&result[0], &q));
    }

    #[test]
    fn retain_maximal_keeps_incomparable_and_drops_subsumed() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let r = v.pred("r", 2);
        let (x, y) = (v.var("X"), v.var("Y"));
        let a = v.cst("a");
        let general = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
        );
        let special = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Cst(a)])],
        );
        let other = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(r, vec![Term::Var(x), Term::Var(y)])],
        );
        let kept = retain_maximal(vec![special.clone(), general.clone(), other.clone()]);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().any(|q| are_equivalent(q, &general)));
        assert!(kept.iter().any(|q| are_equivalent(q, &other)));
        // Equivalent duplicates collapse to one representative.
        let kept = retain_maximal(vec![general.clone(), general.clone()]);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn is_instantiation_of_accepts_collapses_and_rejects_generalizations() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let (x, y) = (v.var("X"), v.var("Y"));
        let a = v.cst("a");
        // q(X) <- p(X, Y), p(Y, X)
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![
                Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(p, vec![Term::Var(y), Term::Var(x)]),
            ],
        );
        // Collapse Y -> X: q(X) <- p(X, X).
        let collapsed = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(x)])],
        );
        assert!(is_instantiation_of(&collapsed, &q));
        // Ground: q(a) <- p(a, a).
        let ground = Query::new(
            v.sym("q"),
            vec![Term::Cst(a)],
            vec![Atom::new(p, vec![Term::Cst(a), Term::Cst(a)])],
        );
        assert!(is_instantiation_of(&ground, &q));
        // A generalization is not an instantiation.
        let single = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
        );
        assert!(!is_instantiation_of(&single, &q));
        // Extra atoms are not instantiations either.
        let z = v.var("Z");
        let extended = q.with_atoms([Atom::new(p, vec![Term::Var(z), Term::Var(z)])]);
        assert!(!is_instantiation_of(&extended, &q));
    }

    #[test]
    fn canonical_form_identifies_alpha_equivalent_queries() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let (x, y, u, w) = (v.var("X"), v.var("Y"), v.var("U"), v.var("W"));
        let q1 = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
        );
        let q2 = Query::new(
            v.sym("q"),
            vec![Term::Var(u)],
            vec![Atom::new(p, vec![Term::Var(u), Term::Var(w)])],
        );
        assert_eq!(canonical_form(&q1), canonical_form(&q2));
    }

    #[test]
    fn is_mci_decision_problem() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        // The english specialization is the MCI.
        let the_mci = mcis(&q, &tcs, &mut v).pop().unwrap();
        assert!(is_mci(&the_mci, &q, &tcs, &mut v));
        // q itself is not (incomplete).
        assert!(!is_mci(&q, &q, &tcs, &mut v));
        // A complete but non-maximal instantiation (Example 24's query,
        // which additionally fixes the class code) is not an MCI.
        let c = v.var("C");
        let one = v.cst("1");
        let narrower =
            magik_relalg::Substitution::from_pairs([(c, Term::Cst(one))]).apply_query(&the_mci);
        assert!(crate::check::is_complete(&narrower, &tcs));
        assert!(!is_mci(&narrower, &q, &tcs, &mut v));
        // A complete query that is no instantiation of q is not an MCI.
        let other = crate::testutil::q_ppb(&mut v);
        assert!(!is_mci(&other, &q, &tcs, &mut v));
    }

    #[test]
    fn is_mcg_decision_problem() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let expected = crate::testutil::q_ppb(&mut v);
        assert!(crate::generalize::is_mcg(&expected, &q, &tcs));
        // q itself is not its own MCG (it is incomplete).
        assert!(!crate::generalize::is_mcg(&q, &q, &tcs));
        // Dropping one more atom is complete but not minimal... dropping
        // the pupil atom makes the head unsafe, so use the school-only
        // Boolean variant on a Boolean query instead.
        let bool_q = Query::boolean(v.sym("b"), q.body.clone());
        let school_only = bool_q.subquery(|a| a.pred == v.pred("school", 3));
        assert!(crate::check::is_complete(&school_only, &tcs));
        assert!(!crate::generalize::is_mcg(&school_only, &bool_q, &tcs));
    }

    #[test]
    fn mcis_bounded_respects_the_size_bound() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let q = q_pbl(&mut v);
        let unbounded = mcis_bounded(&q, &tcs, &mut v, 10);
        assert_eq!(unbounded.len(), 1);
        let too_small = mcis_bounded(&q, &tcs, &mut v, 1);
        assert!(too_small.is_empty());
    }
}
