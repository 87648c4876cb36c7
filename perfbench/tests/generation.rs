//! The workload generator: seeded, byte-identical streams; a
//! `cold_reasoning` working set larger than the verdict cache; a
//! `durable_churn` instance that stays within its band.

use std::collections::HashSet;

use magik_completeness::CanonicalQuery;
use magik_perfbench::gen::{
    Request, Spec, Verb, Workload, DURABLE_MAX_OUTSTANDING, VERDICT_CACHE_CAP,
};
use magik_relalg::Vocabulary;

fn stream(spec: &Spec, lane: usize, n: usize) -> Vec<Request> {
    let mut s = spec.lane(lane);
    (0..n).map(|_| s.next()).collect()
}

#[test]
fn the_same_seed_gives_a_byte_identical_stream() {
    for w in Workload::ALL {
        let (a, b) = (Spec::generate(w, 7), Spec::generate(w, 7));
        assert_eq!(a.warmup, b.warmup, "{}", w.name());
        for lane in 0..2 {
            let (x, y) = (stream(&a, lane, 3000), stream(&b, lane, 3000));
            let bytes = |v: &[Request]| {
                v.iter()
                    .map(|r| r.line.clone())
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(bytes(&x), bytes(&y), "{} lane {lane}", w.name());
        }
    }
}

#[test]
fn different_seeds_give_different_streams() {
    for w in Workload::ALL {
        let (a, b) = (Spec::generate(w, 7), Spec::generate(w, 8));
        for lane in 0..2 {
            assert_ne!(
                stream(&a, lane, 200),
                stream(&b, lane, 200),
                "{} lane {lane}",
                w.name()
            );
        }
    }
}

#[test]
fn lanes_carry_the_workload_mix() {
    let verbs = |w, lane| -> HashSet<Verb> {
        stream(&Spec::generate(w, 1), lane, 2000)
            .iter()
            .map(|r| r.verb)
            .collect()
    };
    use Verb::*;
    assert_eq!(
        verbs(Workload::HotReads, 0),
        HashSet::from([Check, Why, Eval, Guaranteed, Assert, Retract])
    );
    assert_eq!(
        verbs(Workload::ColdReasoning, 1),
        HashSet::from([Check, Why, Generalize, Specialize, Assert, Retract])
    );
    assert_eq!(
        verbs(Workload::DurableChurn, 0),
        HashSet::from([Eval, Guaranteed, Assert, Retract])
    );
    // Lane 1 of `durable_churn` carries only replies no write can change.
    assert_eq!(
        verbs(Workload::DurableChurn, 1),
        HashSet::from([Check, Guaranteed])
    );
}

#[test]
fn the_cold_pool_exceeds_the_verdict_cache() {
    let spec = Spec::generate(Workload::ColdReasoning, 3);
    assert!(spec.distinct_queries() > VERDICT_CACHE_CAP);
    // What the server actually sees: the distinct canonical forms of the
    // checked queries outnumber the verdict cache's entries.
    let mut vocab = Vocabulary::new();
    let forms: HashSet<CanonicalQuery> = stream(&spec, 0, 20_000)
        .iter()
        .filter(|r| r.verb == Verb::Check)
        .map(|r| {
            let q =
                magik_parser::parse_query(r.rest(), &mut vocab).expect("generated queries parse");
            CanonicalQuery::of(&q)
        })
        .collect();
    assert!(
        forms.len() > VERDICT_CACHE_CAP,
        "{} distinct checks",
        forms.len()
    );
}

#[test]
fn durable_churn_keeps_the_instance_within_its_band() {
    let spec = Spec::generate(Workload::DurableChurn, 5);
    let base = spec.session.db.len();
    let mut churned: HashSet<String> = HashSet::new();
    let (mut asserts, mut retracts) = (0, 0);
    for r in stream(&spec, 0, 50_000) {
        let fact = r.rest().trim_end_matches('.').to_string();
        match r.verb {
            Verb::Assert => {
                assert!(
                    churned.insert(fact),
                    "assert of a fact already present: {}",
                    r.line
                );
                asserts += 1;
            }
            Verb::Retract => {
                assert!(
                    churned.remove(&fact),
                    "retract of an absent fact: {}",
                    r.line
                );
                retracts += 1;
            }
            _ => {}
        }
        let size = base + churned.len();
        assert!(
            size <= base + DURABLE_MAX_OUTSTANDING,
            "instance grew to {size}"
        );
    }
    assert!(
        base > 12_000,
        "the durable instance has ~13k facts, got {base}"
    );
    assert!(
        asserts > 10_000 && retracts > 10_000,
        "{asserts} asserts, {retracts} retracts"
    );
}
