//! Property-based tests: naive and semi-naive evaluation agree, fixpoints
//! are fixpoints, and evaluation is monotone in the EDB.

use std::collections::BTreeSet;

use proptest::prelude::*;

use magik_datalog::{Program, Rule};
use magik_relalg::{Atom, Fact, Instance, Term, Vocabulary};

const NUM_PREDS: u8 = 3;
const NUM_VARS: u8 = 4;
const NUM_CSTS: u8 = 3;

fn pred_arity(p: u8) -> usize {
    [1, 2, 2][p as usize % 3]
}

/// Abstract rule: body atoms (pred, var-or-cst args), head args are indexes
/// into the body variable pool so rules are range-restricted by
/// construction.
#[derive(Debug, Clone)]
struct ARule {
    head_pred: u8,
    head_args: Vec<u8>, // index into body vars (mod len), or constant if none
    body: Vec<(u8, Vec<i8>)>, // positive = var id, negative = constant id
}

fn arule() -> impl Strategy<Value = ARule> {
    let atom = (0..NUM_PREDS).prop_flat_map(|p| {
        proptest::collection::vec(
            prop_oneof![
                (0..NUM_VARS).prop_map(|v| v as i8),
                (1..=NUM_CSTS).prop_map(|c| -(c as i8)),
            ],
            pred_arity(p),
        )
        .prop_map(move |args| (p, args))
    });
    (
        0..NUM_PREDS,
        proptest::collection::vec(0..16u8, 0..3),
        proptest::collection::vec(atom, 1..3),
    )
        .prop_map(|(head_pred, head_args, body)| ARule {
            head_pred,
            head_args,
            body,
        })
}

fn materialize(v: &mut Vocabulary, rules: &[ARule]) -> Program {
    let mk_term = |v: &mut Vocabulary, t: i8| {
        if t >= 0 {
            Term::Var(v.var(&format!("X{t}")))
        } else {
            Term::Cst(v.cst(&format!("c{}", -t)))
        }
    };
    let rules = rules
        .iter()
        .map(|r| {
            let body: Vec<Atom> = r
                .body
                .iter()
                .map(|(p, args)| {
                    let pred = v.pred(&format!("p{p}"), pred_arity(*p));
                    let args = args.iter().map(|&t| mk_term(v, t)).collect();
                    Atom::new(pred, args)
                })
                .collect();
            let body_vars: Vec<_> = body.iter().flat_map(Atom::vars).collect();
            let head_pred = v.pred(&format!("p{}", r.head_pred), pred_arity(r.head_pred));
            let arity = pred_arity(r.head_pred);
            let head_args: Vec<Term> = (0..arity)
                .map(|i| {
                    let sel = r.head_args.get(i).copied().unwrap_or(0) as usize;
                    if body_vars.is_empty() {
                        Term::Cst(v.cst("c1"))
                    } else {
                        Term::Var(body_vars[sel % body_vars.len()])
                    }
                })
                .collect();
            Rule::new(Atom::new(head_pred, head_args), body)
        })
        .collect();
    Program::new(rules).expect("construction guarantees range restriction")
}

fn materialize_edb(v: &mut Vocabulary, facts: &[(u8, Vec<u8>)]) -> Instance {
    facts
        .iter()
        .map(|(p, args)| {
            let pred = v.pred(&format!("p{p}"), pred_arity(*p));
            Fact::new(
                pred,
                (0..pred_arity(*p))
                    .map(|i| {
                        v.cst(&format!(
                            "c{}",
                            args.get(i).copied().unwrap_or(0) % NUM_CSTS
                        ))
                    })
                    .collect(),
            )
        })
        .collect()
}

fn afacts() -> impl Strategy<Value = Vec<(u8, Vec<u8>)>> {
    proptest::collection::vec(
        (0..NUM_PREDS).prop_flat_map(|p| {
            proptest::collection::vec(0..NUM_CSTS, pred_arity(p)).prop_map(move |args| (p, args))
        }),
        0..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn naive_and_semi_naive_agree(rules in proptest::collection::vec(arule(), 0..4), facts in afacts()) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &facts);
        let naive = program.eval_naive(&edb);
        let semi = program.eval_semi_naive(&edb);
        prop_assert_eq!(&naive.model, &semi.model);
        prop_assert_eq!(naive.derived, semi.derived);
    }

    /// Both engines (compiled plans, delta propagation) compute exactly
    /// the model of the seed re-planning naive fixpoint kept in
    /// `magik_exec::reference`.
    #[test]
    fn compiled_fixpoints_match_reference_oracle(rules in proptest::collection::vec(arule(), 0..4), facts in afacts()) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &facts);
        let positive: Vec<(Atom, Vec<Atom>)> = program
            .rules()
            .iter()
            .map(|r| (r.head.clone(), r.body.clone()))
            .collect();
        let oracle = magik_exec::reference::naive_fixpoint(&positive, &edb);
        prop_assert_eq!(&program.eval_naive(&edb).model, &oracle);
        prop_assert_eq!(&program.eval_semi_naive(&edb).model, &oracle);
    }

    #[test]
    fn model_contains_edb_and_is_fixpoint(rules in proptest::collection::vec(arule(), 0..4), facts in afacts()) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &facts);
        let result = program.eval_semi_naive(&edb);
        prop_assert!(edb.is_subset_of(&result.model));
        // Applying the rules once more derives nothing new.
        let more = program.immediate_consequences(&result.model);
        prop_assert!(more.is_subset_of(&result.model));
    }

    #[test]
    fn evaluation_is_monotone_in_edb(rules in proptest::collection::vec(arule(), 0..4), facts1 in afacts(), facts2 in afacts()) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let small = materialize_edb(&mut v, &facts1);
        let mut big = small.clone();
        big.extend_from(&materialize_edb(&mut v, &facts2));
        let m_small = program.eval_semi_naive(&small).model;
        let m_big = program.eval_semi_naive(&big).model;
        prop_assert!(m_small.is_subset_of(&m_big));
    }

    /// Parallel semi-naive evaluation reaches exactly the sequential
    /// least model: same model, same derived count, for any rule set and
    /// EDB. (Iteration counts may differ; the fixpoint may not.)
    #[test]
    fn parallel_fixpoint_matches_sequential(rules in proptest::collection::vec(arule(), 0..4), facts in afacts()) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &facts);
        let sequential = program.eval_semi_naive(&edb);
        let parallel = program.eval_semi_naive_on(&edb, &magik_exec::Executor::with_threads(4));
        prop_assert_eq!(&sequential.model, &parallel.model);
        prop_assert_eq!(sequential.derived, parallel.derived);
    }

    /// An incrementally maintained model driven by a pooled executor
    /// agrees with the sequential from-scratch fixpoint across random
    /// insert/retract interleavings.
    #[test]
    fn parallel_materialized_matches_scratch(
        rules in proptest::collection::vec(arule(), 0..4),
        initial in afacts(),
        updates in proptest::collection::vec((afacts(), 0..4usize), 0..3),
    ) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &initial);
        let exec = magik_exec::Executor::with_threads(4);
        let mut m =
            magik_datalog::Materialized::with_executor(program.clone(), edb, exec).unwrap();
        prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
        for (batch, retract_ix) in updates {
            let facts = materialize_edb(&mut v, &batch);
            m.insert_all(facts.iter_facts());
            prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
            let victim = m.edb().iter_facts().nth(retract_ix);
            if let Some(victim) = victim {
                m.retract(&victim);
                prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
            }
        }
    }

    /// DRed retraction agrees with the retired full-recomputation
    /// strategy (`retract_all_recompute`, the oracle) across random
    /// positive programs and random assert/retract interleavings —
    /// batches that retract several facts at once, duplicate retracts
    /// within a batch, and (with the small constant domain forcing dense
    /// overlap) facts that stay derivable through surviving rules.
    #[test]
    fn dred_retraction_matches_recompute_oracle(
        rules in proptest::collection::vec(arule(), 0..4),
        initial in afacts(),
        rounds in proptest::collection::vec(
            (afacts(), proptest::collection::vec(0..8usize, 0..3), 0..2u8),
            0..4,
        ),
    ) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &initial);
        let mut dred = magik_datalog::Materialized::new(program.clone(), edb.clone()).unwrap();
        let mut oracle = magik_datalog::Materialized::new(program, edb).unwrap();
        for (batch, retract_ixs, dup) in rounds {
            let facts = materialize_edb(&mut v, &batch);
            dred.insert_all(facts.iter_facts());
            oracle.insert_all(facts.iter_facts());
            let mut victims: Vec<Fact> = retract_ixs
                .iter()
                .filter_map(|&i| dred.edb().iter_facts().nth(i))
                .collect();
            if dup == 1 {
                let again = victims.clone();
                victims.extend(again);
            }
            let stats = dred.retract_all(victims.clone());
            let removed = oracle.retract_all_recompute(victims);
            prop_assert_eq!(stats.removed, removed);
            prop_assert_eq!(dred.model(), oracle.model());
            prop_assert_eq!(dred.edb(), oracle.edb());
        }
    }

    /// The incrementally maintained model always equals the from-scratch
    /// fixpoint, across random interleavings of assertions and
    /// retractions (the `magik-server` assert-fact/retract hot path).
    #[test]
    fn materialized_model_matches_scratch(
        rules in proptest::collection::vec(arule(), 0..4),
        initial in afacts(),
        updates in proptest::collection::vec((afacts(), 0..4usize), 0..4),
    ) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &initial);
        let mut m = magik_datalog::Materialized::new(program.clone(), edb).unwrap();
        prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
        for (batch, retract_ix) in updates {
            let facts = materialize_edb(&mut v, &batch);
            m.insert_all(facts.iter_facts());
            prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
            // Retract an arbitrary existing EDB fact, if any.
            let victim = m.edb().iter_facts().nth(retract_ix);
            if let Some(victim) = victim {
                m.retract(&victim);
                prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
            }
        }
    }

    /// [`materialized_model_matches_scratch`] with a snapshot of the
    /// model held across every write, as the server holds its published
    /// one: delta propagation and DRed then write into shared relations.
    /// The model must still equal the from-scratch fixpoint, and the held
    /// snapshot the model it was taken from.
    #[test]
    fn materialized_model_matches_scratch_under_a_held_snapshot(
        rules in proptest::collection::vec(arule(), 0..4),
        initial in afacts(),
        updates in proptest::collection::vec((afacts(), 0..4usize), 0..4),
    ) {
        let mut v = Vocabulary::new();
        let program = materialize(&mut v, &rules);
        let edb = materialize_edb(&mut v, &initial);
        let mut m = magik_datalog::Materialized::new(program.clone(), edb).unwrap();
        let mut held = m.model().clone();
        let mut was: BTreeSet<Fact> = m.model().iter_facts().collect();
        let mut writes = Vec::new();
        for (batch, retract_ix) in updates {
            writes.extend(materialize_edb(&mut v, &batch).iter_facts().map(Ok));
            writes.push(Err(retract_ix));
        }
        for write in writes {
            match write {
                Ok(fact) => {
                    m.insert(fact);
                }
                Err(retract_ix) => {
                    // Retract an arbitrary existing EDB fact, if any.
                    let Some(victim) = m.edb().iter_facts().nth(retract_ix) else {
                        continue;
                    };
                    m.retract(&victim);
                }
            }
            prop_assert_eq!(m.model(), &program.eval_semi_naive(m.edb()).model);
            prop_assert_eq!(held.len(), was.len());
            prop_assert_eq!(held.iter_facts().collect::<BTreeSet<Fact>>(), was);
            held = m.model().clone();
            was = m.model().iter_facts().collect();
        }
    }
}
