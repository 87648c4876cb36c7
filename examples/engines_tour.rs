//! A tour of the inference substrate the paper's implementation
//! delegated to an external system — here implemented from scratch.
//!
//! **Forward chaining** (the dlv role): the Datalog engine runs the
//! Section 5 `Rⁱ`/`Rᵃ` encoding of the statements, plus a stratified
//! negation query computing which parts of the frozen query are *not*
//! guaranteed. Its diagnosis agrees with the relational implementation
//! of Theorem 3.
//!
//! Run with: `cargo run --example engines_tour`

use magik::datalog::{Program, Rule};
use magik::workload::paper::school;
use magik::{
    canonical_database, is_complete, tc_encoding, Atom, DisplayWith, Fact, Instance, Term,
};

fn main() {
    let w = school();
    let mut vocab = w.vocab.clone();
    let q = w.q_pbl.clone();
    println!("Query: {}", q.display(&vocab));
    println!(
        "Relational Theorem 3 check: {}\n",
        if is_complete(&q, &w.tcs) {
            "COMPLETE"
        } else {
            "INCOMPLETE"
        }
    );

    // ---------- Forward chaining on the Datalog engine ----------
    let frozen = canonical_database(&q);
    let (program, ideal_preds, avail_preds) = tc_encoding(&w.tcs, &mut vocab);
    println!("Section 5 encoding as Datalog rules:");
    for rule in program.rules() {
        println!("  {}", rule.display(&vocab));
    }
    // Load D_Q as R^i facts and add a stratified-negation rule per
    // relation: missing@R(args) :- R^i(args), not R^a(args).
    let mut edb = Instance::new();
    for fact in frozen.iter_facts() {
        edb.insert(Fact::new(ideal_preds[&fact.pred], fact.args));
    }
    let mut rules = program.rules().to_vec();
    let mut missing_preds = Vec::new();
    for (&orig, &pi) in &ideal_preds {
        let pa = avail_preds[&orig];
        let arity = vocab.arity(orig);
        let missing = vocab.pred(&format!("missing@{}", vocab.pred_name(orig)), arity);
        missing_preds.push(missing);
        let args: Vec<Term> = (0..arity)
            .map(|i| Term::Var(vocab.var(&format!("M{i}"))))
            .collect();
        rules.push(Rule::with_negation(
            Atom::new(missing, args.clone()),
            vec![Atom::new(pi, args.clone())],
            vec![Atom::new(pa, args)],
        ));
    }
    let program = Program::new(rules).expect("encoding plus negation is stratified");
    println!(
        "\nStratified program: {} strata, {} rules",
        program.num_strata(),
        program.rules().len()
    );
    let model = program.eval_semi_naive(&edb).model;
    println!("Frozen atoms NOT guaranteed by the statements (forward chaining):");
    for &mp in &missing_preds {
        if let Some(rel) = model.relation(mp) {
            for tuple in rel.iter() {
                println!(
                    "  {}{}",
                    vocab.pred_name(mp),
                    tuple.to_vec().display(&vocab)
                );
            }
        }
    }
}
