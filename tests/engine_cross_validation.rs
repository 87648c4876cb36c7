//! Cross-validation of the two `T_C` engines.
//!
//! The paper ran generalization on a Datalog (ASP) engine; this
//! repository implements that substrate next to a direct relational
//! engine, and the test below checks that both compute the same `T_C`
//! operator on generated data. The other engine-level agreements are
//! property tests in their own crates: the Theorem 3 check against the
//! Datalog encoding and against model semantics in
//! `crates/completeness/tests/properties.rs` (`datalog_check_agrees`,
//! `completeness_claims_are_sound`, `incompleteness_claims_have_witnesses`),
//! and conjunctive-query evaluation against the reference evaluator in
//! `crates/exec/tests/equivalence.rs` (`planned_answers_match_reference`).

use magik::workload::paper::school;
use magik::workload::synth::{school_instance, SchoolDataConfig};
use magik::{tc_apply, tc_apply_datalog};

#[test]
fn tc_operator_agrees_across_engines_on_synthetic_data() {
    let w = school();
    let mut vocab = w.vocab.clone();
    for seed in [1u64, 2, 3] {
        let db = school_instance(
            &w,
            &mut vocab,
            SchoolDataConfig {
                schools: 6,
                pupils_per_school: 8,
                learn_prob: 0.4,
                seed,
            },
        );
        let direct = tc_apply(&w.tcs, &db);
        let datalog = tc_apply_datalog(&w.tcs, &db, &mut vocab);
        assert_eq!(direct, datalog, "seed {seed}");
    }
}
