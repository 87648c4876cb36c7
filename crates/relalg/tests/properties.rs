//! Property-based tests for the relational-algebra substrate.
//!
//! Random queries and instances are generated over a small fixed schema;
//! each property checks a law the rest of the system relies on.

use proptest::prelude::*;

use std::collections::BTreeSet;

use magik_relalg::{
    answers, are_equivalent, canonical_database, freeze_atom, has_answer, is_contained_in,
    is_minimal, minimize, unfreeze_fact, Atom, Cst, Fact, Instance, Pred, Query, Relation,
    Substitution, Term, Vocabulary, DELTA_ROWS,
};

/// Abstract term: materialized against a vocabulary later.
#[derive(Debug, Clone, Copy)]
enum ATerm {
    Var(u8),
    Cst(u8),
}

#[derive(Debug, Clone)]
struct AAtom {
    pred: u8,
    args: Vec<ATerm>,
}

#[derive(Debug, Clone)]
struct AQuery {
    head: Vec<ATerm>,
    body: Vec<AAtom>,
}

const NUM_PREDS: u8 = 3;
const NUM_VARS: u8 = 5;
const NUM_CSTS: u8 = 3;

fn pred_arity(p: u8) -> usize {
    [1, 2, 3][p as usize % 3]
}

fn aterm() -> impl Strategy<Value = ATerm> {
    prop_oneof![
        (0..NUM_VARS).prop_map(ATerm::Var),
        (0..NUM_CSTS).prop_map(ATerm::Cst),
    ]
}

fn aatom() -> impl Strategy<Value = AAtom> {
    (0..NUM_PREDS).prop_flat_map(|p| {
        proptest::collection::vec(aterm(), pred_arity(p))
            .prop_map(move |args| AAtom { pred: p, args })
    })
}

fn aquery(max_body: usize) -> impl Strategy<Value = AQuery> {
    (
        proptest::collection::vec(aterm(), 0..3),
        proptest::collection::vec(aatom(), 0..=max_body),
    )
        .prop_map(|(head, body)| AQuery { head, body })
}

struct Ctx {
    vocab: Vocabulary,
}

impl Ctx {
    fn new() -> Self {
        Ctx {
            vocab: Vocabulary::new(),
        }
    }

    fn term(&mut self, t: ATerm) -> Term {
        match t {
            ATerm::Var(i) => Term::Var(self.vocab.var(&format!("X{i}"))),
            ATerm::Cst(i) => Term::Cst(self.vocab.cst(&format!("c{i}"))),
        }
    }

    fn atom(&mut self, a: &AAtom) -> Atom {
        let pred = self.vocab.pred(&format!("p{}", a.pred), pred_arity(a.pred));
        let args = a.args.iter().map(|&t| self.term(t)).collect();
        Atom::new(pred, args)
    }

    fn query(&mut self, q: &AQuery) -> Query {
        let name = self.vocab.sym("q");
        let head = q.head.iter().map(|&t| self.term(t)).collect();
        let body = q.body.iter().map(|a| self.atom(a)).collect();
        Query::new(name, head, body)
    }

    /// Materializes a ground instance from abstract atoms by freezing
    /// variables into constants (gives ground, varied instances).
    fn instance(&mut self, atoms: &[AAtom]) -> Instance {
        atoms
            .iter()
            .map(|a| {
                let atom = self.atom(a);
                freeze_atom(&atom)
            })
            .collect()
    }
}

/// Makes a safe variant of a query: drop head terms whose variable is not in
/// the body.
fn safe_head(q: &Query) -> Query {
    let body_vars = q.body_vars();
    let head = q
        .head
        .iter()
        .copied()
        .filter(|t| t.as_var().is_none_or(|v| body_vars.contains(&v)))
        .collect();
    Query::new(q.name, head, q.body.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn freeze_unfreeze_roundtrip(a in aatom()) {
        let mut ctx = Ctx::new();
        let atom = ctx.atom(&a);
        let fact = freeze_atom(&atom);
        prop_assert_eq!(unfreeze_fact(&fact), atom);
    }

    #[test]
    fn substitution_compose_law(t in aterm(), pairs1 in proptest::collection::vec((0..NUM_VARS, aterm()), 0..4), pairs2 in proptest::collection::vec((0..NUM_VARS, aterm()), 0..4)) {
        let mut ctx = Ctx::new();
        let term = ctx.term(t);
        let s1 = Substitution::from_pairs(
            pairs1.iter().map(|&(v, img)| {
                let var = ctx.vocab.var(&format!("X{v}"));
                let image = ctx.term(img);
                (var, image)
            }).collect::<Vec<_>>(),
        );
        let s2 = Substitution::from_pairs(
            pairs2.iter().map(|&(v, img)| {
                let var = ctx.vocab.var(&format!("X{v}"));
                let image = ctx.term(img);
                (var, image)
            }).collect::<Vec<_>>(),
        );
        let composed = s2.compose(&s1);
        prop_assert_eq!(
            composed.apply_term(term),
            s2.apply_term(s1.apply_term(term))
        );
    }

    #[test]
    fn containment_is_reflexive(q in aquery(4)) {
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        prop_assert!(is_contained_in(&query, &query));
    }

    #[test]
    fn dropping_an_atom_generalizes(q in aquery(4)) {
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        for i in 0..query.size() {
            prop_assert!(is_contained_in(&query, &query.without_atom(i)));
        }
    }

    #[test]
    fn minimize_preserves_equivalence(q in aquery(5)) {
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        let m = minimize(&query);
        prop_assert!(m.size() <= query.size());
        prop_assert!(are_equivalent(&query, &m));
        prop_assert!(is_minimal(&m));
    }

    #[test]
    fn evaluation_is_monotone(q in aquery(3), d1 in proptest::collection::vec(aatom(), 0..6), d2 in proptest::collection::vec(aatom(), 0..6)) {
        let mut ctx = Ctx::new();
        let query = safe_head(&ctx.query(&q));
        let small = ctx.instance(&d1);
        let mut big = small.clone();
        big.extend_from(&ctx.instance(&d2));
        let ans_small = answers(&query, &small).unwrap();
        let ans_big = answers(&query, &big).unwrap();
        prop_assert!(ans_small.is_subset(&ans_big));
    }

    #[test]
    fn containment_implies_answer_inclusion(q1 in aquery(3), q2 in aquery(3), d in proptest::collection::vec(aatom(), 0..6)) {
        let mut ctx = Ctx::new();
        let a = safe_head(&ctx.query(&q1));
        let b = safe_head(&ctx.query(&q2));
        let db = ctx.instance(&d);
        if a.head.len() == b.head.len() && is_contained_in(&a, &b) {
            let ans_a = answers(&a, &db).unwrap();
            let ans_b = answers(&b, &db).unwrap();
            prop_assert!(ans_a.is_subset(&ans_b));
        }
    }

    #[test]
    fn has_answer_agrees_with_answers(q in aquery(3), d in proptest::collection::vec(aatom(), 0..6)) {
        let mut ctx = Ctx::new();
        let query = safe_head(&ctx.query(&q));
        let db = ctx.instance(&d);
        let ans = answers(&query, &db).unwrap();
        for tuple in &ans {
            prop_assert!(has_answer(&query, &db, tuple));
        }
    }

    #[test]
    fn canonical_database_witnesses_self_containment(q in aquery(4)) {
        // θū ∈ Q(D_Q): the freezing assignment satisfies Q over D_Q.
        let mut ctx = Ctx::new();
        let query = ctx.query(&q);
        let db = canonical_database(&query);
        let target: Vec<_> = query
            .head
            .iter()
            .map(|&t| magik_relalg::freeze_term(t))
            .collect();
        prop_assert!(has_answer(&query, &db, &target));
    }

    #[test]
    fn instance_roundtrip_through_facts(d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let db = ctx.instance(&d);
        let copy: Instance = db.iter_facts().collect();
        prop_assert_eq!(db, copy);
    }

    #[test]
    fn insert_is_idempotent(d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let facts: Vec<Fact> = ctx
            .instance(&d)
            .iter_facts()
            .collect();
        let mut db = Instance::new();
        for f in &facts {
            db.insert(f.clone());
        }
        let len = db.len();
        for f in &facts {
            prop_assert!(!db.insert(f.clone()));
        }
        prop_assert_eq!(db.len(), len);
    }
}

/// One step of a differential-relation workload: writes to one of three
/// relations (arity 1, 2 and 3), or a change to the set of held clones.
#[derive(Debug, Clone)]
enum Step {
    Insert(usize, [u8; 3]),
    Remove(usize, [u8; 3]),
    /// Hold a clone of the live instance.
    Hold,
    /// Drop the held clone at this index (modulo the number held).
    Drop(u8),
}

const STEP_DOMAIN: u8 = 6;

fn step() -> impl Strategy<Value = Step> {
    // Most writes go to the arity-3 relation, the only one whose domain
    // (216 tuples) lets its delta reach the fold bound.
    let write = || {
        (
            prop_oneof![1 => Just(0usize), 1 => Just(1usize), 4 => Just(2usize)],
            0..STEP_DOMAIN,
            0..STEP_DOMAIN,
            0..STEP_DOMAIN,
        )
    };
    prop_oneof![
        10 => write().prop_map(|(r, a, b, c)| Step::Insert(r, [a, b, c])),
        7 => write().prop_map(|(r, a, b, c)| Step::Remove(r, [a, b, c])),
        3 => Just(Step::Hold),
        2 => (0..8u8).prop_map(Step::Drop),
    ]
}

/// The vocabulary of a step run: three relations and the constant domain.
struct Schema {
    preds: [Pred; 3],
    csts: Vec<Cst>,
}

impl Schema {
    fn new() -> Schema {
        let mut v = Vocabulary::new();
        let preds = [v.pred("r1", 1), v.pred("r2", 2), v.pred("r3", 3)];
        let csts = (0..STEP_DOMAIN).map(|i| v.cst(&format!("c{i}"))).collect();
        Schema { preds, csts }
    }

    fn tuple(&self, rel: usize, args: [u8; 3]) -> Vec<Cst> {
        args[..=rel]
            .iter()
            .map(|&a| self.csts[a as usize])
            .collect()
    }
}

/// The oracle: each relation's facts.
type Oracle = [BTreeSet<Vec<Cst>>; 3];

/// Rows of `rel` at `positions`, sorted.
fn rows_at(rel: &Relation, positions: impl Iterator<Item = u32>) -> Vec<Vec<Cst>> {
    let mut rows: Vec<Vec<Cst>> = positions.map(|pos| rel.row(pos).to_vec()).collect();
    rows.sort();
    rows
}

/// Checks `store` against the oracle: the same facts, and every
/// statistic equal to that of a relation rebuilt from them.
fn check_store(store: &Instance, schema: &Schema, oracle: &Oracle) {
    for (r, &pred) in schema.preds.iter().enumerate() {
        let rebuilt: Instance = oracle[r]
            .iter()
            .map(|t| Fact::new(pred, t.clone()))
            .collect();
        let (Some(rel), Some(fresh)) = (store.relation(pred), rebuilt.relation(pred)) else {
            assert!(store.relation(pred).is_none_or(Relation::is_empty));
            assert!(oracle[r].is_empty());
            continue;
        };
        assert_eq!(rel.len(), oracle[r].len());
        let rows: Vec<Vec<Cst>> = rel.iter().map(|row| row.to_vec()).collect();
        assert_eq!(rows.len(), oracle[r].len(), "iteration repeats a row");
        assert_eq!(rows.into_iter().collect::<BTreeSet<_>>(), oracle[r]);
        for col in 0..=r {
            assert_eq!(rel.distinct_in_col(col), fresh.distinct_in_col(col));
            for &value in &schema.csts {
                let found = rel.matches(col, value);
                assert_eq!(found.len(), fresh.matches(col, value).len());
                assert_eq!(
                    rows_at(rel, found),
                    rows_at(fresh, fresh.matches(col, value))
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of writes, held clones and drops against a
    /// set oracle; each held clone must keep showing the oracle state of
    /// its time. Runs are long enough that the arity-3 relation's delta
    /// passes the fold bound several times, both under a held clone (the
    /// fold copies the base) and without one (it folds in place).
    #[test]
    fn differential_relations_match_a_set_oracle(
        steps in proptest::collection::vec(step(), 1_200..1_600),
    ) {
        let schema = Schema::new();
        let mut live = Instance::new();
        let mut oracle: Oracle = Default::default();
        let mut held: Vec<(Instance, Oracle)> = Vec::new();
        for (i, step) in steps.into_iter().enumerate() {
            match step {
                Step::Insert(r, args) => {
                    let t = schema.tuple(r, args);
                    let fact = Fact::new(schema.preds[r], t.clone());
                    prop_assert_eq!(live.insert(fact.clone()), oracle[r].insert(t));
                    prop_assert!(live.contains(&fact));
                }
                Step::Remove(r, args) => {
                    let t = schema.tuple(r, args);
                    let fact = Fact::new(schema.preds[r], t.clone());
                    prop_assert_eq!(live.remove(&fact), oracle[r].remove(&t));
                    prop_assert!(!live.contains(&fact));
                }
                Step::Hold => held.push((live.clone(), oracle.clone())),
                Step::Drop(k) => {
                    if !held.is_empty() {
                        let (share, was) = held.remove(k as usize % held.len());
                        check_store(&share, &schema, &was);
                    }
                }
            }
            if i % 97 == 0 {
                check_store(&live, &schema, &oracle);
            }
        }
        check_store(&live, &schema, &oracle);
        for (share, was) in &held {
            check_store(share, &schema, was);
        }
        prop_assert!(DELTA_ROWS < 1_200 / 4, "runs cross the fold bound");
    }
}
