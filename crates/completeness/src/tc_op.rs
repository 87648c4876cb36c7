//! The `T_C` operator (equation (1) of the paper), in two implementations.
//!
//! `T_C(D) = ⋃_{C ∈ C} {R(t̄) | t̄ ∈ Q_C(D)}` maps a database instance to
//! the part of it that the statements guarantee to be available. It is the
//! workhorse of completeness checking (Theorem 3) and of the `G_C`
//! generalization operator.
//!
//! * [`tc_apply`] evaluates each associated query `Q_C` directly on the
//!   relational engine;
//! * [`tc_apply_datalog`] uses the Section 5 encoding — `Rⁱ` facts and
//!   `Rᵃ ← Rⁱ, Gⁱ` rules — on the Datalog engine (the paper ran this on
//!   dlv).
//!
//! Both compute the same function; property tests assert the agreement.
//! A third, crate-private pass, `tc_witnessed`, computes what
//! [`tc_apply`] does and also records each fact's first derivation: the
//! one record that certificates, repairs and explanations read.
//!
//! [`tc_apply`] keeps its own loop because recording is not free on
//! data. It enumerates answers, where the witnessed pass enumerates every
//! homomorphism and keeps a grounding per fact. Timed in one process on a
//! 2-vCPU Xeon host, alternating the two over 21 rounds, the witnessed
//! pass took 1.7–1.8× [`tc_apply`]'s median on A2's school instances
//! (215–3,419 facts), data like that which
//! [`crate::semantics::IncompleteDatabase::minimal_completion`] and
//! `magik simulate` apply `T_C` to. On A14's canonical databases, as
//! [`crate::is_complete`] sees them, the two were within 0.89–1.13×.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use magik_datalog::{Program, Rule};
use magik_relalg::{answers, homomorphisms, Atom, Fact, Instance, Pred, Substitution, Vocabulary};

use crate::tcs::{TcSet, TcStatement};

/// Applies `T_C` once to `db` (direct implementation).
pub fn tc_apply(tcs: &TcSet, db: &Instance) -> Instance {
    let mut out = Instance::new();
    for c in tcs.statements() {
        let q = c.associated_query();
        let tuples = answers(&q, db).expect("associated queries are safe");
        for t in tuples {
            out.insert(Fact::new(c.head.pred, t));
        }
    }
    out
}

/// `T_C(db)` together with each of its facts' first derivation.
#[derive(Debug)]
pub(crate) struct WitnessedTc {
    /// `T_C(db)`, each statement's facts inserted in sorted order exactly
    /// as [`tc_apply`] inserts them, so a plan over it runs (and finds
    /// its first witness) as it does over [`tc_apply`]'s result.
    pub(crate) facts: Instance,
    /// For each fact, the first statement (by index) that produces it and
    /// the homomorphism of that statement's associated query into `db`
    /// that does, in statement-then-homomorphism order.
    pub(crate) first: HashMap<Fact, (usize, Substitution)>,
}

/// Applies `T_C` once to `db` for `statements`, recording each fact's
/// first derivation.
pub(crate) fn tc_witnessed(statements: &[TcStatement], db: &Instance) -> WitnessedTc {
    let mut facts = Instance::new();
    let mut first = HashMap::new();
    for (si, c) in statements.iter().enumerate() {
        let mut produced = BTreeSet::new();
        for hom in homomorphisms(&c.associated_query().body, db) {
            let fact = hom
                .apply_atom(&c.head)
                .to_fact()
                .expect("homomorphisms into a ground instance are ground");
            if !first.contains_key(&fact) {
                first.insert(fact.clone(), (si, hom));
            }
            produced.insert(fact);
        }
        for fact in produced {
            facts.insert(fact);
        }
    }
    WitnessedTc { facts, first }
}

/// The Section 5 Datalog encoding of a TCS set.
///
/// Returns the program (`Rᵃ(s̄) ← Rⁱ(s̄), Gⁱ` per statement) together with
/// the predicate renamings `R → Rⁱ` and `R → Rᵃ`. The relation name of
/// `Rⁱ`/`Rᵃ` is derived by suffixing `@i`/`@a`.
pub fn tc_encoding(
    tcs: &TcSet,
    vocab: &mut Vocabulary,
) -> (Program, BTreeMap<Pred, Pred>, BTreeMap<Pred, Pred>) {
    let mut ideal: BTreeMap<Pred, Pred> = BTreeMap::new();
    let mut avail: BTreeMap<Pred, Pred> = BTreeMap::new();
    let variant = |vocab: &mut Vocabulary, p: Pred, suffix: &str| {
        let name = format!("{}@{suffix}", vocab.pred_name(p));
        vocab.pred(&name, vocab.arity(p))
    };
    for p in tcs.signature() {
        let pi = variant(vocab, p, "i");
        let pa = variant(vocab, p, "a");
        ideal.insert(p, pi);
        avail.insert(p, pa);
    }
    let rules = tcs
        .statements()
        .iter()
        .map(|c| {
            let head = Atom::new(avail[&c.head.pred], c.head.args.clone());
            let mut body = vec![Atom::new(ideal[&c.head.pred], c.head.args.clone())];
            body.extend(
                c.condition
                    .iter()
                    .map(|a| Atom::new(ideal[&a.pred], a.args.clone())),
            );
            Rule::new(head, body)
        })
        .collect();
    let program = Program::new(rules).expect("TC rules are range-restricted by construction");
    (program, ideal, avail)
}

/// Applies `T_C` once to `db` via the Datalog encoding.
///
/// Relations of `db` outside the signature of `tcs` cannot be produced by
/// any statement and are simply absent from the result, exactly as with
/// [`tc_apply`].
pub fn tc_apply_datalog(tcs: &TcSet, db: &Instance, vocab: &mut Vocabulary) -> Instance {
    let (program, ideal, avail) = tc_encoding(tcs, vocab);
    // Load D as R^i facts (only relations in the signature matter).
    let mut edb = Instance::new();
    for fact in db.iter_facts() {
        if let Some(&pi) = ideal.get(&fact.pred) {
            edb.insert(Fact::new(pi, fact.args));
        }
    }
    let derived = program.immediate_consequences(&edb);
    // Read off R^a facts back into the original vocabulary.
    let back: BTreeMap<Pred, Pred> = avail.iter().map(|(&r, &ra)| (ra, r)).collect();
    let mut out = Instance::new();
    for fact in derived.iter_facts() {
        let r = back[&fact.pred];
        out.insert(Fact::new(r, fact.args));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::school_tcs;
    use magik_relalg::DisplayWith;

    fn fact(v: &mut Vocabulary, name: &str, arity: usize, args: &[&str]) -> Fact {
        let p = v.pred(name, arity);
        Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
    }

    fn school_instance(v: &mut Vocabulary) -> Instance {
        let mut db = Instance::new();
        db.insert(fact(v, "school", 3, &["goethe", "primary", "merano"]));
        db.insert(fact(v, "school", 3, &["dante", "middle", "bolzano"]));
        db.insert(fact(v, "pupil", 3, &["john", "c1", "goethe"]));
        db.insert(fact(v, "pupil", 3, &["luca", "c2", "dante"]));
        db.insert(fact(v, "learns", 2, &["john", "english"]));
        db.insert(fact(v, "learns", 2, &["john", "german"]));
        db
    }

    #[test]
    fn tc_selects_guaranteed_facts() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let db = school_instance(&mut v);
        let out = tc_apply(&tcs, &db);
        // C_sp keeps the primary school only.
        assert!(out.contains(&fact(&mut v, "school", 3, &["goethe", "primary", "merano"])));
        assert!(!out.contains(&fact(&mut v, "school", 3, &["dante", "middle", "bolzano"])));
        // C_pb keeps pupils of merano schools only.
        assert!(out.contains(&fact(&mut v, "pupil", 3, &["john", "c1", "goethe"])));
        assert!(!out.contains(&fact(&mut v, "pupil", 3, &["luca", "c2", "dante"])));
        // C_enp keeps English learners at primary schools only.
        assert!(out.contains(&fact(&mut v, "learns", 2, &["john", "english"])));
        assert!(!out.contains(&fact(&mut v, "learns", 2, &["john", "german"])));
    }

    #[test]
    fn tc_is_contractive_and_monotone() {
        // Proposition 2: T_C(D) ⊆ D; and D ⊆ D' ⟹ T_C(D) ⊆ T_C(D').
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let db = school_instance(&mut v);
        let small = tc_apply(&tcs, &db);
        assert!(small.is_subset_of(&db));
        let mut bigger = db.clone();
        bigger.insert(fact(&mut v, "school", 3, &["verdi", "primary", "bolzano"]));
        let big = tc_apply(&tcs, &bigger);
        assert!(small.is_subset_of(&big));
    }

    #[test]
    fn witnessed_pass_is_tc_apply_with_first_derivations() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let db = school_instance(&mut v);
        let w = tc_witnessed(tcs.statements(), &db);
        let direct = tc_apply(&tcs, &db);
        assert_eq!(
            w.facts.iter_facts().collect::<Vec<_>>(),
            direct.iter_facts().collect::<Vec<_>>()
        );
        assert_eq!(w.first.len(), direct.len());
        for (fact, (si, hom)) in &w.first {
            let stmt = &tcs.statements()[*si];
            assert_eq!(hom.apply_atom(&stmt.head).to_fact().as_ref(), Some(fact));
        }
        // C_pb (statement 1) guarantees john's pupil fact.
        let john = fact(&mut v, "pupil", 3, &["john", "c1", "goethe"]);
        assert_eq!(w.first[&john].0, 1);
    }

    #[test]
    fn datalog_encoding_matches_direct_implementation() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let db = school_instance(&mut v);
        let direct = tc_apply(&tcs, &db);
        let datalog = tc_apply_datalog(&tcs, &db, &mut v);
        assert_eq!(direct, datalog);
    }

    #[test]
    fn encoding_produces_expected_rules() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let (program, ideal, avail) = tc_encoding(&tcs, &mut v);
        assert_eq!(program.rules().len(), 3);
        // The C_pb rule reads: pupil@a(N, C, S) :- pupil@i(N, C, S), school@i(S, T, merano).
        assert_eq!(
            program.rules()[1].display(&v).to_string(),
            "pupil@a(N, C, S) :- pupil@i(N, C, S), school@i(S, T, merano)."
        );
        let pupil = v.pred("pupil", 3);
        assert_eq!(v.pred_name(ideal[&pupil]), "pupil@i");
        assert_eq!(v.pred_name(avail[&pupil]), "pupil@a");
    }

    #[test]
    fn relations_without_statements_are_dropped() {
        let mut v = Vocabulary::new();
        let tcs = school_tcs(&mut v);
        let mut db = Instance::new();
        db.insert(fact(&mut v, "unrelated", 1, &["x"]));
        assert!(tc_apply(&tcs, &db).is_empty());
        assert!(tc_apply_datalog(&tcs, &db, &mut v).is_empty());
    }

    #[test]
    fn empty_set_maps_everything_to_empty() {
        let mut v = Vocabulary::new();
        let db = school_instance(&mut v);
        let tcs = TcSet::default();
        assert!(tc_apply(&tcs, &db).is_empty());
    }
}
