//! Syntactic unification for MAGIK-rs.
//!
//! The specialization side of the paper (Section 4) is built on unification
//! between query atoms and the heads/conditions of table-completeness
//! statements — the role SWI-Prolog played in the authors' implementation.
//! This crate provides that machinery over the flat terms of
//! [`magik_relalg`]: a [`Unifier`] accumulates bindings with chain
//! resolution and supports checkpoints for backtracking search, and
//! [`mgu_atoms`] / [`mgu_pairs`] compute most general unifiers as idempotent
//! [`Substitution`]s.
//!
//! Because terms are flat (variables and constants only, no function
//! symbols), unification always terminates without an occurs check and MGUs
//! are computable in near-linear time.
//!
//! # Example
//!
//! ```
//! use magik_relalg::{Vocabulary, Atom, Term};
//! use magik_unify::mgu_atoms;
//!
//! let mut v = Vocabulary::new();
//! let learns = v.pred("learns", 2);
//! let (n, l) = (v.var("N"), v.var("L"));
//! // learns(N, L) unifies with learns(N2, english) by {L -> english, N -> N2}.
//! let n2 = v.var("N2");
//! let english = v.cst("english");
//! let a = Atom::new(learns, vec![Term::Var(n), Term::Var(l)]);
//! let b = Atom::new(learns, vec![Term::Var(n2), Term::Cst(english)]);
//! let mgu = mgu_atoms(&a, &b).unwrap();
//! assert_eq!(mgu.apply_atom(&a), mgu.apply_atom(&b));
//! assert_eq!(mgu.apply_term(Term::Var(l)), Term::Cst(english));
//! ```
#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::HashMap;

use magik_relalg::{Atom, Substitution, Term, Var};

/// An incremental unifier with checkpoint/rollback support.
///
/// Bindings form a forest: a variable is bound to a term, which may itself
/// be a variable bound further. [`Unifier::resolve`] follows chains to the
/// representative. The trail records bound variables so that
/// [`Unifier::rollback`] can undo everything past a [`Checkpoint`] — the
/// backbone of the backtracking searches in `magik-completeness`.
#[derive(Debug, Default, Clone)]
pub struct Unifier {
    bindings: HashMap<Var, Term>,
    trail: Vec<Var>,
}

/// A point in the trail to roll back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint(usize);

impl Unifier {
    /// Creates an empty unifier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bound variables.
    pub fn len(&self) -> usize {
        self.trail.len()
    }

    /// `true` iff no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.trail.is_empty()
    }

    /// Follows binding chains until reaching an unbound variable or a
    /// constant.
    pub fn resolve(&self, mut t: Term) -> Term {
        while let Term::Var(v) = t {
            match self.bindings.get(&v) {
                Some(&next) => t = next,
                None => break,
            }
        }
        t
    }

    /// Records the current trail position.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.trail.len())
    }

    /// Undoes all bindings made after `cp`.
    pub fn rollback(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.0 {
            let v = self.trail.pop().expect("trail length checked");
            self.bindings.remove(&v);
        }
    }

    fn bind(&mut self, v: Var, t: Term) {
        debug_assert!(!self.bindings.contains_key(&v));
        self.bindings.insert(v, t);
        self.trail.push(v);
    }

    /// Unifies two terms under the current bindings. On failure the
    /// unifier is left unchanged (term unification binds at most one
    /// variable, so no partial bindings can leak).
    pub fn unify_terms(&mut self, a: Term, b: Term) -> bool {
        let ra = self.resolve(a);
        let rb = self.resolve(b);
        match (ra, rb) {
            (Term::Var(va), Term::Var(vb)) => {
                if va != vb {
                    self.bind(va, Term::Var(vb));
                }
                true
            }
            (Term::Var(v), c @ Term::Cst(_)) | (c @ Term::Cst(_), Term::Var(v)) => {
                self.bind(v, c);
                true
            }
            (Term::Cst(ca), Term::Cst(cb)) => ca == cb,
        }
    }

    /// Unifies two atoms under the current bindings. On failure the
    /// unifier is rolled back to its state at entry.
    pub fn unify_atoms(&mut self, a: &Atom, b: &Atom) -> bool {
        if a.pred != b.pred || a.args.len() != b.args.len() {
            return false;
        }
        let cp = self.checkpoint();
        for (&ta, &tb) in a.args.iter().zip(&b.args) {
            if !self.unify_terms(ta, tb) {
                self.rollback(cp);
                return false;
            }
        }
        true
    }

    /// Extracts the accumulated bindings as an idempotent substitution:
    /// every variable maps to its fully resolved representative.
    pub fn to_substitution(&self) -> Substitution {
        Substitution::from_pairs(
            self.bindings
                .keys()
                .map(|&v| (v, self.resolve(Term::Var(v)))),
        )
    }
}

/// Most general unifier of two atoms, if one exists.
pub fn mgu_atoms(a: &Atom, b: &Atom) -> Option<Substitution> {
    let mut u = Unifier::new();
    u.unify_atoms(a, b).then(|| u.to_substitution())
}

/// Most general simultaneous unifier of a sequence of term pairs.
pub fn mgu_pairs(pairs: &[(Term, Term)]) -> Option<Substitution> {
    let mut u = Unifier::new();
    for &(a, b) in pairs {
        if !u.unify_terms(a, b) {
            return None;
        }
    }
    Some(u.to_substitution())
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::{Cst, Vocabulary};

    fn setup() -> (Vocabulary, magik_relalg::Pred, Var, Var, Cst, Cst) {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let x = v.var("X");
        let y = v.var("Y");
        let a = v.cst("a");
        let b = v.cst("b");
        (v, p, x, y, a, b)
    }

    #[test]
    fn unify_var_with_constant() {
        let (_, _, x, _, a, _) = setup();
        let mgu = mgu_pairs(&[(Term::Var(x), Term::Cst(a))]).unwrap();
        assert_eq!(mgu.apply_term(Term::Var(x)), Term::Cst(a));
    }

    #[test]
    fn unify_distinct_constants_fails() {
        let (_, _, _, _, a, b) = setup();
        assert!(mgu_pairs(&[(Term::Cst(a), Term::Cst(b))]).is_none());
        assert!(mgu_pairs(&[(Term::Cst(a), Term::Cst(a))]).is_some());
    }

    #[test]
    fn unify_chains_resolve_transitively() {
        let (mut v, _, x, y, a, _) = setup();
        let z = v.var("Z");
        // X = Y, Y = Z, Z = a  =>  all map to a.
        let mgu = mgu_pairs(&[
            (Term::Var(x), Term::Var(y)),
            (Term::Var(y), Term::Var(z)),
            (Term::Var(z), Term::Cst(a)),
        ])
        .unwrap();
        for var in [x, y, z] {
            assert_eq!(mgu.apply_term(Term::Var(var)), Term::Cst(a));
        }
    }

    #[test]
    fn conflicting_chain_fails() {
        let (_, _, x, y, a, b) = setup();
        assert!(mgu_pairs(&[
            (Term::Var(x), Term::Cst(a)),
            (Term::Var(y), Term::Cst(b)),
            (Term::Var(x), Term::Var(y)),
        ])
        .is_none());
    }

    #[test]
    fn atom_unification_requires_same_predicate() {
        let (mut v, p, x, y, _, _) = setup();
        let q = v.pred("q", 2);
        let a1 = Atom::new(p, vec![Term::Var(x), Term::Var(y)]);
        let a2 = Atom::new(q, vec![Term::Var(x), Term::Var(y)]);
        assert!(mgu_atoms(&a1, &a2).is_none());
    }

    #[test]
    fn atom_unification_merges_repeated_vars() {
        let (mut v, p, x, _, a, _) = setup();
        let (u1, u2) = (v.var("U1"), v.var("U2"));
        // p(X, X) with p(U1, U2): forces U1 = U2.
        let a1 = Atom::new(p, vec![Term::Var(x), Term::Var(x)]);
        let a2 = Atom::new(p, vec![Term::Var(u1), Term::Var(u2)]);
        let mgu = mgu_atoms(&a1, &a2).unwrap();
        assert_eq!(mgu.apply_atom(&a1), mgu.apply_atom(&a2));
        // p(X, X) with p(a, b) must fail.
        let ground = Atom::new(p, vec![Term::Cst(a), Term::Cst(v.cst("b"))]);
        assert!(mgu_atoms(&a1, &ground).is_none());
    }

    #[test]
    fn failed_atom_unification_rolls_back() {
        let (_, p, x, y, a, b) = setup();
        let mut u = Unifier::new();
        assert!(u.unify_terms(Term::Var(x), Term::Cst(a)));
        let before = u.len();
        // p(X, Y) vs p(b, b): the X/b pair fails, Y must stay unbound.
        let a1 = Atom::new(p, vec![Term::Var(x), Term::Var(y)]);
        let a2 = Atom::new(p, vec![Term::Cst(b), Term::Cst(b)]);
        assert!(!u.unify_atoms(&a1, &a2));
        assert_eq!(u.len(), before);
        assert_eq!(u.resolve(Term::Var(y)), Term::Var(y));
    }

    #[test]
    fn checkpoint_rollback_restores_state() {
        let (_, _, x, y, a, _) = setup();
        let mut u = Unifier::new();
        assert!(u.unify_terms(Term::Var(x), Term::Cst(a)));
        let cp = u.checkpoint();
        assert!(u.unify_terms(Term::Var(y), Term::Var(x)));
        assert_eq!(u.resolve(Term::Var(y)), Term::Cst(a));
        u.rollback(cp);
        assert_eq!(u.resolve(Term::Var(y)), Term::Var(y));
        assert_eq!(u.resolve(Term::Var(x)), Term::Cst(a));
    }

    #[test]
    fn substitution_is_idempotent() {
        let (mut v, _, x, y, a, _) = setup();
        let z = v.var("Z");
        let mgu = mgu_pairs(&[(Term::Var(x), Term::Var(y)), (Term::Var(z), Term::Cst(a))]).unwrap();
        // Applying twice equals applying once.
        for var in [x, y, z] {
            let once = mgu.apply_term(Term::Var(var));
            assert_eq!(mgu.apply_term(once), once);
        }
    }

    #[test]
    fn paper_example_22_unifier() {
        // γ = {L -> english} is a complete unifier for Q_pbl; here we check
        // the unification step: learns(N, L) vs learns(N2, english).
        let mut v = Vocabulary::new();
        let learns = v.pred("learns", 2);
        let (n, l, n2) = (v.var("N"), v.var("L"), v.var("N2"));
        let english = v.cst("english");
        let qa = Atom::new(learns, vec![Term::Var(n), Term::Var(l)]);
        let ha = Atom::new(learns, vec![Term::Var(n2), Term::Cst(english)]);
        let mgu = mgu_atoms(&qa, &ha).unwrap();
        assert_eq!(mgu.apply_term(Term::Var(l)), Term::Cst(english));
    }
}
