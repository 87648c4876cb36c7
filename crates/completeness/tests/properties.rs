//! Property-based tests for the completeness reasoner.
//!
//! The central property is **soundness against the semantics**: whenever
//! the symbolic reasoner claims `C ⊨ Compl(Q)`, the claim is checked on
//! randomly generated incomplete databases satisfying `C` (built as
//! minimal completions, which are the hardest case by Proposition 2).

use proptest::prelude::*;

use magik_cert::{check_certificate, check_repair, Certificate};
use magik_completeness::semantics::IncompleteDatabase;
use magik_completeness::{
    cert_statements, certify, certify_explained, complete_unifiers, explain_check, g_op,
    is_complete, is_complete_under, is_complete_via_datalog, is_instantiation_of, k_mcs, k_mcs_on,
    mcg, mcg_under, mcis, repair_suggestions, tc_apply, tc_apply_datalog, ConstraintSet,
    FiniteDomain, KMcsEngine, KMcsOptions, TcSet, TcStatement,
};
use magik_exec::Executor;
use magik_relalg::{
    are_equivalent, is_contained_in, Atom, Fact, Instance, Query, Term, Vocabulary,
};
use magik_workload::random::{
    acyclic_tcs, cyclic_tcs, query, QueryShape, RandomQueryConfig, RandomTcsConfig,
};

const NUM_PREDS: u8 = 3;
const NUM_VARS: u8 = 4;
const NUM_CSTS: u8 = 3;

fn pred_arity(p: u8) -> usize {
    [1, 2, 2][p as usize % 3]
}

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
struct ATcs {
    head: AAtom,
    condition: Vec<AAtom>,
}

fn aterm() -> impl Strategy<Value = ATerm> {
    prop_oneof![
        3 => (0..NUM_VARS).prop_map(ATerm::Var),
        1 => (0..NUM_CSTS).prop_map(ATerm::Cst),
    ]
}

fn aatom() -> impl Strategy<Value = AAtom> {
    (0..NUM_PREDS).prop_flat_map(|p| {
        proptest::collection::vec(aterm(), pred_arity(p))
            .prop_map(move |args| AAtom { pred: p, args })
    })
}

fn atcs() -> impl Strategy<Value = ATcs> {
    (aatom(), proptest::collection::vec(aatom(), 0..2))
        .prop_map(|(head, condition)| ATcs { head, condition })
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

    fn tcs(&mut self, specs: &[ATcs]) -> TcSet {
        specs
            .iter()
            .map(|s| {
                let head = self.atom(&s.head);
                let condition = s.condition.iter().map(|a| self.atom(a)).collect();
                TcStatement::new(head, condition)
            })
            .collect()
    }

    /// A safe query from abstract atoms: head is the variable tuple of the
    /// first atom (or empty → Boolean).
    fn query(&mut self, body: &[AAtom]) -> Query {
        let body: Vec<Atom> = body.iter().map(|a| self.atom(a)).collect();
        let head: Vec<Term> = body
            .first()
            .map(|a| a.vars().map(Term::Var).collect())
            .unwrap_or_default();
        Query::new(self.vocab.sym("q"), head, body)
    }

    /// A ground instance from abstract atoms, grounding variables to
    /// constants by index.
    fn instance(&mut self, atoms: &[AAtom]) -> Instance {
        atoms
            .iter()
            .map(|a| {
                let pred = self.vocab.pred(&format!("p{}", a.pred), pred_arity(a.pred));
                let args = a
                    .args
                    .iter()
                    .map(|&t| match t {
                        ATerm::Var(i) => self.vocab.cst(&format!("c{}", i % NUM_CSTS)),
                        ATerm::Cst(i) => self.vocab.cst(&format!("c{i}")),
                    })
                    .collect();
                Fact::new(pred, args)
            })
            .collect()
    }
}

/// The certificate emitter, repair search and explainer as they were
/// before they read one witnessed `T_C` pass: each repair candidate and
/// minimality witness recomputes `T_C(D_Q)` over an extended statement
/// set, each derivation re-enumerates every statement's homomorphisms,
/// and the explainer runs its own `T_C` loop. The equivalence properties
/// compare the engine with these.
mod oracle {
    use std::collections::HashMap;

    use magik_cert::{
        Binding, Certificate, CompleteCert, FactDerivation, IncompleteCert, RepairCert,
    };
    use magik_completeness::semantics::IncompleteDatabase;
    use magik_completeness::{
        is_complete, tc_apply, CheckExplanation, GuaranteeWitness, TcSet, TcStatement,
    };
    use magik_relalg::{
        canonical_database, freeze_atom, freeze_term, has_answer, has_answer_witness,
        homomorphisms, unfreeze_atom, Atom, Cst, Fact, Instance, Query, Substitution, Term, Var,
    };

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

    fn derive_fact(fact: &Fact, tcs: &TcSet, db: &Instance) -> Option<(usize, Binding)> {
        for (si, stmt) in tcs.statements().iter().enumerate() {
            let assoc = stmt.associated_query();
            for hom in homomorphisms(&assoc.body, db) {
                if hom.apply_atom(&stmt.head).to_fact().as_ref() == Some(fact) {
                    return Some((si, binding_of(&hom)));
                }
            }
        }
        None
    }

    fn complete_cert(q: &Query, tcs: &TcSet) -> Option<CompleteCert> {
        let db = canonical_database(q);
        let guaranteed = tc_apply(tcs, &db);
        let target: Vec<Cst> = q.head.iter().map(|&t| freeze_term(t)).collect();
        let witness = has_answer_witness(q, &guaranteed, &target)?;
        let theta = witness.binding;
        let sub = subst_of(&theta);
        let mut derivations = Vec::with_capacity(q.body.len());
        for atom in &q.body {
            let fact = sub
                .apply_atom(atom)
                .to_fact()
                .expect("θ grounds every body atom");
            let (statement, binding) =
                derive_fact(&fact, tcs, &db).expect("θ-images of body atoms are in T_C(D_Q)");
            derivations.push(FactDerivation {
                fact,
                statement,
                binding,
            });
        }
        Some(CompleteCert { theta, derivations })
    }

    fn incomplete_cert(q: &Query, tcs: &TcSet) -> IncompleteCert {
        let db = canonical_database(q);
        let guaranteed = tc_apply(tcs, &db);
        IncompleteCert {
            available: guaranteed.iter_facts().collect(),
            target: q.head.iter().map(|&t| freeze_term(t)).collect(),
        }
    }

    fn with_statements(tcs: &TcSet, extra: &[Atom]) -> TcSet {
        let mut statements: Vec<TcStatement> = tcs.statements().to_vec();
        statements.extend(
            extra
                .iter()
                .map(|a| TcStatement::new(a.clone(), Vec::new())),
        );
        TcSet::new(statements)
    }

    pub fn repair_suggestions(q: &Query, tcs: &TcSet) -> Vec<TcStatement> {
        let mut candidates: Vec<Atom> = Vec::new();
        for a in &q.body {
            if !candidates.contains(a) {
                candidates.push(a.clone());
            }
        }
        let mut kept = candidates.clone();
        let mut i = 0;
        while i < kept.len() {
            let mut reduced = kept.clone();
            reduced.remove(i);
            if is_complete(q, &with_statements(tcs, &reduced)) {
                kept = reduced;
            } else {
                i += 1;
            }
        }
        kept.into_iter()
            .map(|a| TcStatement::new(a, Vec::new()))
            .collect()
    }

    fn repair_cert(q: &Query, tcs: &TcSet) -> Option<RepairCert> {
        let additions: Vec<Atom> = repair_suggestions(q, tcs)
            .into_iter()
            .map(|s| s.head)
            .collect();
        if additions.is_empty() {
            return None;
        }
        let complete = complete_cert(q, &with_statements(tcs, &additions))
            .expect("the un-minimized repair set restores completeness");
        let minimality = additions
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let mut reduced = additions.clone();
                reduced.remove(i);
                incomplete_cert(q, &with_statements(tcs, &reduced))
            })
            .collect();
        Some(RepairCert {
            additions,
            complete,
            minimality,
        })
    }

    pub fn certify(q: &Query, tcs: &TcSet) -> Certificate {
        match complete_cert(q, tcs) {
            Some(c) => Certificate::Complete(c),
            None => Certificate::Incomplete {
                counterexample: incomplete_cert(q, tcs),
                repair: repair_cert(q, tcs),
            },
        }
    }

    pub fn explain_check(q: &Query, tcs: &TcSet) -> CheckExplanation {
        let frozen = canonical_database(q);
        let mut witnesses: HashMap<Fact, GuaranteeWitness> = HashMap::new();
        let mut guaranteed = Instance::new();
        for (si, c) in tcs.statements().iter().enumerate() {
            let assoc = c.associated_query();
            for hom in homomorphisms(&assoc.body, &frozen) {
                let head = hom.apply_atom(&c.head);
                let Some(fact) = head.to_fact() else {
                    continue;
                };
                guaranteed.insert(fact.clone());
                witnesses.entry(fact).or_insert_with(|| GuaranteeWitness {
                    statement: si,
                    condition: c
                        .condition
                        .iter()
                        .map(|g| unfreeze_atom(&hom.apply_atom(g)))
                        .collect(),
                });
            }
        }
        let target: Vec<Cst> = q.head.iter().map(|&t| freeze_term(t)).collect();
        let complete = has_answer(q, &guaranteed, &target);
        let atoms = q
            .body
            .iter()
            .map(|a| (a.clone(), witnesses.get(&freeze_atom(a)).cloned()))
            .collect();
        // What the retired `counterexample()` returned: the minimal
        // completion of D_Q, when it loses the frozen head.
        let counterexample =
            (!complete).then(|| IncompleteDatabase::minimal_completion(frozen, tcs));
        CheckExplanation {
            complete,
            atoms,
            counterexample,
        }
    }
}

/// `certify`, `repair_suggestions` and `explain_check` return exactly
/// what the oracle returns, the certificate passes `magik-cert`, and
/// `certify_explained` returns what the two return apart.
fn assert_matches_oracle(q: &Query, tcs: &TcSet) {
    let cert = certify(q, tcs);
    prop_assert_eq!(&cert, &oracle::certify(q, tcs));
    prop_assert_eq!(check_certificate(q, &cert_statements(tcs), &cert), Ok(()));
    prop_assert_eq!(
        repair_suggestions(q, tcs),
        oracle::repair_suggestions(q, tcs)
    );
    let expected = oracle::explain_check(q, tcs);
    let (together, explained_together) = certify_explained(q, tcs);
    prop_assert_eq!(&together, &cert);
    for explained in [explain_check(q, tcs), explained_together] {
        prop_assert_eq!(explained.complete, expected.complete);
        prop_assert_eq!(&explained.atoms, &expected.atoms);
        prop_assert_eq!(&explained.counterexample, &expected.counterexample);
    }
}

/// A `magik-workload` query and statement set: a random body of the
/// given shape (the `Random` shape draws constants), optionally with one
/// of its atoms repeated, against an acyclic or a cyclic statement set.
#[derive(Debug, Clone)]
struct WorkloadCase {
    shape: QueryShape,
    atoms: usize,
    relations: usize,
    constant_prob: f64,
    repeat: Option<usize>,
    cyclic: bool,
    statements: usize,
    max_condition: usize,
    seed: u64,
}

fn workload_case() -> impl Strategy<Value = WorkloadCase> {
    (
        (0..4u8, 1..5usize, 2..5usize, 0..3u8, 0..6usize),
        (0..2u8, 0..6usize, 0..3usize, 0..1_000_000u64),
    )
        .prop_map(
            |(
                (shape, atoms, relations, prob, repeat),
                (cyclic, statements, max_condition, seed),
            )| {
                WorkloadCase {
                    shape: [
                        QueryShape::Chain,
                        QueryShape::Star,
                        QueryShape::Cycle,
                        QueryShape::Random,
                    ][shape as usize],
                    atoms,
                    relations,
                    constant_prob: [0.0, 0.3, 0.6][prob as usize],
                    repeat: (repeat < atoms).then_some(repeat),
                    cyclic: cyclic == 1,
                    statements,
                    max_condition,
                    seed,
                }
            },
        )
}

impl WorkloadCase {
    fn build(&self) -> (Query, TcSet) {
        let mut vocab = Vocabulary::new();
        let mut q = query(
            RandomQueryConfig {
                shape: self.shape,
                atoms: self.atoms,
                relations: self.relations,
                constant_prob: self.constant_prob,
                seed: self.seed,
            },
            &mut vocab,
        );
        if let Some(i) = self.repeat {
            let again = q.body[i].clone();
            q.body.push(again);
        }
        let config = RandomTcsConfig {
            statements: self.statements,
            relations: self.relations,
            max_condition: self.max_condition,
            seed: self.seed.wrapping_add(1),
        };
        let tcs = if self.cyclic {
            cyclic_tcs(config, &mut vocab)
        } else {
            acyclic_tcs(config, &mut vocab)
        };
        (q, tcs)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Certificates, repairs and explanations from the one witnessed
    /// `T_C` pass equal the oracle's on `magik-workload` queries (with
    /// constants and repeated atoms) against acyclic and cyclic sets.
    #[test]
    fn certificates_repairs_and_explanations_match_the_oracle(case in workload_case()) {
        let (q, tcs) = case.build();
        assert_matches_oracle(&q, &tcs);
    }

    /// The same equivalence on statements with constants and
    /// conditions over unary and binary relations.
    #[test]
    fn certificates_match_the_oracle_on_abstract_statements(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        assert_matches_oracle(&q, &tcs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Proposition 2: T_C(D) ⊆ D; monotone; (D, T_C(D)) ⊨ C; and T_C(D)
    /// is the smallest available state satisfying C.
    #[test]
    fn tc_operator_laws(specs in proptest::collection::vec(atcs(), 0..4), d in proptest::collection::vec(aatom(), 0..8), extra in proptest::collection::vec(aatom(), 0..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let db = ctx.instance(&d);
        let applied = tc_apply(&tcs, &db);
        prop_assert!(applied.is_subset_of(&db));
        let mut bigger = db.clone();
        bigger.extend_from(&ctx.instance(&extra));
        prop_assert!(applied.is_subset_of(&tc_apply(&tcs, &bigger)));
        let pair = IncompleteDatabase::new(db.clone(), applied.clone()).unwrap();
        prop_assert!(pair.satisfies_all(&tcs));
    }

    /// The direct and the Datalog-encoded T_C agree.
    #[test]
    fn tc_direct_equals_tc_datalog(specs in proptest::collection::vec(atcs(), 0..4), d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let db = ctx.instance(&d);
        let direct = tc_apply(&tcs, &db);
        let datalog = tc_apply_datalog(&tcs, &db, &mut ctx.vocab);
        prop_assert_eq!(direct, datalog);
    }

    /// Theorem 3 soundness: if the reasoner claims completeness, the query
    /// loses no answers on random minimal completions (which satisfy C).
    #[test]
    fn completeness_claims_are_sound(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4), d in proptest::collection::vec(aatom(), 0..8)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        if is_complete(&q, &tcs) {
            let ideal = ctx.instance(&d);
            let pair = IncompleteDatabase::minimal_completion(ideal, &tcs);
            prop_assert!(pair.satisfies_all(&tcs));
            prop_assert!(
                pair.query_complete(&q).unwrap(),
                "reasoner claimed complete but an answer was lost"
            );
        }
    }

    /// Theorem 3 completeness (of the check): if the reasoner claims
    /// incompleteness, the canonical database paired with T_C of it is a
    /// concrete counterexample.
    #[test]
    fn incompleteness_claims_have_witnesses(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        if !is_complete(&q, &tcs) {
            let ideal = magik_relalg::canonical_database(&q);
            let pair = IncompleteDatabase::minimal_completion(ideal, &tcs);
            prop_assert!(pair.satisfies_all(&tcs));
            prop_assert!(
                !pair.query_complete(&q).unwrap(),
                "reasoner claimed incomplete but the canonical witness shows no loss"
            );
        }
    }

    /// Every verdict carries a certificate, of the matching polarity,
    /// that the independent `magik-cert` checker accepts: a complete
    /// verdict's witness derivations check out, an incomplete verdict's
    /// counterexample checks out, and the attached repair is validated
    /// as sound *and* 1-minimal.
    #[test]
    fn certificates_always_validate(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let cert = certify(&q, &tcs);
        let statements = cert_statements(&tcs);
        prop_assert!(
            check_certificate(&q, &statements, &cert).is_ok(),
            "engine emitted a certificate magik-cert rejects"
        );
        match &cert {
            Certificate::Complete(_) => prop_assert!(is_complete(&q, &tcs)),
            Certificate::Incomplete { repair, .. } => {
                prop_assert!(!is_complete(&q, &tcs));
                let r = repair.as_ref().expect("an all-atoms repair always exists");
                prop_assert!(check_repair(&q, &statements, r).is_ok());
            }
        }
    }

    /// `repair_suggestions` returns exactly the incomplete case's repair:
    /// empty iff the query is already complete, and asserting the
    /// suggestions (as unconditional statements) makes it complete.
    #[test]
    fn repair_suggestions_repair(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let repair = repair_suggestions(&q, &tcs);
        prop_assert_eq!(repair.is_empty(), is_complete(&q, &tcs));
        let repaired: TcSet = tcs
            .statements()
            .iter()
            .cloned()
            .chain(repair.iter().cloned())
            .collect();
        prop_assert!(is_complete(&q, &repaired));
    }

    /// The two completeness checkers agree.
    #[test]
    fn datalog_check_agrees(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        prop_assert_eq!(
            is_complete(&q, &tcs),
            is_complete_via_datalog(&q, &tcs, &mut ctx.vocab)
        );
    }

    /// G_C produces a subquery, is monotone (Prop. 10.1), and fixed points
    /// coincide with completeness (Prop. 10.2).
    #[test]
    fn g_op_laws(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let g = g_op(&q, &tcs);
        prop_assert!(g.size() <= q.size());
        for a in &g.body {
            prop_assert!(q.body.contains(a));
        }
        prop_assert!(is_contained_in(&q, &g));
        prop_assert_eq!(is_complete(&q, &tcs), are_equivalent(&g, &q));
    }

    /// MCG (when it exists) is a complete generalization containing Q and
    /// contained in every complete subquery (Prop. 12).
    #[test]
    fn mcg_laws(specs in proptest::collection::vec(atcs(), 0..4), qb in proptest::collection::vec(aatom(), 1..4)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        match mcg(&q, &tcs) {
            Some(m) => {
                prop_assert!(m.is_safe());
                prop_assert!(is_complete(&m, &tcs));
                prop_assert!(is_contained_in(&q, &m));
                // Least fixed point: contained in every complete subquery.
                for mask in 0u32..(1 << q.size().min(5)) {
                    let mut idx = 0;
                    let sub = q.subquery(|_| {
                        let keep = mask & (1 << idx) != 0;
                        idx += 1;
                        keep
                    });
                    if sub.is_safe() && is_complete(&sub, &tcs) {
                        prop_assert!(is_contained_in(&m, &sub));
                    }
                }
            }
            None => {
                // No safe complete subquery may exist.
                for mask in 0u32..(1 << q.size().min(5)) {
                    let mut idx = 0;
                    let sub = q.subquery(|_| {
                        let keep = mask & (1 << idx) != 0;
                        idx += 1;
                        keep
                    });
                    prop_assert!(!(sub.is_safe() && is_complete(&sub, &tcs)));
                }
            }
        }
    }

    /// Every complete unifier yields a complete instantiation
    /// (Proposition 21).
    #[test]
    fn complete_unifiers_yield_complete_queries(specs in proptest::collection::vec(atcs(), 0..3), qb in proptest::collection::vec(aatom(), 1..3)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        for gamma in complete_unifiers(&q, &tcs, &mut ctx.vocab).into_iter().take(32) {
            let qi = gamma.apply_query(&q);
            prop_assert!(is_complete(&qi, &tcs));
            prop_assert!(is_contained_in(&qi, &q));
        }
    }

    /// Every MCI is a complete instantiation of (the minimized) Q, and
    /// MCIs are pairwise incomparable.
    #[test]
    fn mci_laws(specs in proptest::collection::vec(atcs(), 0..3), qb in proptest::collection::vec(aatom(), 1..3)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let result = mcis(&q, &tcs, &mut ctx.vocab);
        for m in &result {
            prop_assert!(is_complete(m, &tcs));
            prop_assert!(is_contained_in(m, &q));
            prop_assert!(is_instantiation_of(m, &q));
        }
        for (i, a) in result.iter().enumerate() {
            for (j, b) in result.iter().enumerate() {
                if i != j {
                    prop_assert!(!is_contained_in(a, b));
                }
            }
        }
    }

    /// Lemma 9 claim 2: any instantiation of a complete **minimal** query
    /// is complete.
    #[test]
    fn lemma_9_instantiations_of_minimal_complete_queries(
        specs in proptest::collection::vec(atcs(), 0..4),
        qb in proptest::collection::vec(aatom(), 1..4),
        bindings in proptest::collection::vec((0..NUM_VARS, aterm()), 0..4),
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = magik_relalg::minimize(&ctx.query(&qb));
        if is_complete(&q, &tcs) {
            let alpha = magik_relalg::Substitution::from_pairs(
                bindings
                    .iter()
                    .map(|&(v, img)| {
                        let var = ctx.vocab.var(&format!("X{v}"));
                        let image = ctx.term(img);
                        (var, image)
                    })
                    .collect::<Vec<_>>(),
            );
            prop_assert!(
                is_complete(&alpha.apply_query(&q), &tcs),
                "Lemma 9 claim 2 violated"
            );
        }
    }

    /// Proposition 8 corollary: the complete subqueries of Q form the
    /// search space for complete generalizations — every complete
    /// generalization of Q contains a complete subquery of Q. We check the
    /// fixed-point form: when an MCG exists, it is equivalent to a
    /// complete subquery.
    #[test]
    fn proposition_8_mcg_is_a_subquery(
        specs in proptest::collection::vec(atcs(), 0..4),
        qb in proptest::collection::vec(aatom(), 1..4),
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        if let Some(m) = mcg(&q, &tcs) {
            // Body of m is a subset of body of q.
            for atom in &m.body {
                prop_assert!(q.body.contains(atom));
            }
        }
    }

    /// Completeness is monotone in constraints: adding finite-domain
    /// constraints only shrinks the space of ideal instances, so a
    /// classically complete query stays complete under any constraints.
    #[test]
    fn constraints_only_strengthen_completeness(
        specs in proptest::collection::vec(atcs(), 0..4),
        qb in proptest::collection::vec(aatom(), 1..3),
        dom_cols in proptest::collection::vec((0..NUM_PREDS, 0..3usize, 1..3usize), 0..3),
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let constraints: ConstraintSet = dom_cols
            .iter()
            .map(|&(p, col, size)| {
                let pred = ctx.vocab.pred(&format!("p{p}"), pred_arity(p));
                let column = col % pred_arity(p);
                FiniteDomain {
                    pred,
                    column,
                    values: (0..size)
                        .map(|i| ctx.vocab.cst(&format!("c{i}")))
                        .collect(),
                }
            })
            .collect();
        if is_complete(&q, &tcs) {
            prop_assert!(is_complete_under(&q, &tcs, &constraints));
        }
        // And the constrained MCG exists whenever the classic one does,
        // and is at least as specific (keeps at least as many atoms).
        if let Some(classic) = mcg(&q, &tcs) {
            let constrained = mcg_under(&q, &tcs, &constraints)
                .expect("constraints cannot destroy an MCG");
            prop_assert!(constrained.size() >= classic.size());
        }
    }

    /// Soundness of the constrained check: a query judged complete under
    /// the constraints loses no answer on any domain-valid minimal
    /// completion.
    #[test]
    fn constrained_completeness_is_sound(
        specs in proptest::collection::vec(atcs(), 0..4),
        qb in proptest::collection::vec(aatom(), 1..3),
        d in proptest::collection::vec(aatom(), 0..8),
        dom_size in 1..3usize,
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        // Constrain column 0 of p1 (binary) to a small domain.
        let pred = ctx.vocab.pred("p1", pred_arity(1));
        let values: std::collections::BTreeSet<_> = (0..dom_size)
            .map(|i| ctx.vocab.cst(&format!("c{i}")))
            .collect();
        let constraints = ConstraintSet::new(vec![FiniteDomain {
            pred,
            column: 0,
            values: values.clone(),
        }]);
        if is_complete_under(&q, &tcs, &constraints) {
            // Build a domain-valid ideal instance: clamp the constrained
            // column to an allowed value.
            let mut ideal = magik_relalg::Instance::new();
            for fact in ctx.instance(&d).iter_facts() {
                let mut fact = fact;
                if fact.pred == pred && !values.contains(&fact.args[0]) {
                    fact.args[0] = *values.iter().next().expect("non-empty domain");
                }
                ideal.insert(fact);
            }
            prop_assert!(constraints.check_instance(&ideal).is_ok());
            let pair = IncompleteDatabase::minimal_completion(ideal, &tcs);
            prop_assert!(
                pair.query_complete(&q).unwrap(),
                "constrained completeness claim violated on a domain-valid instance"
            );
        }
    }

    /// Key soundness: if the key-aware check claims completeness, no
    /// key-consistent minimal completion loses an answer.
    #[test]
    fn key_completeness_is_sound(
        specs in proptest::collection::vec(atcs(), 0..4),
        qb in proptest::collection::vec(aatom(), 1..4),
        d in proptest::collection::vec(aatom(), 0..8),
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        // Key on column 0 of the binary relation p1.
        let pred = ctx.vocab.pred("p1", pred_arity(1));
        let key = magik_completeness::Key { pred, columns: vec![0] };
        let constraints = ConstraintSet::with_keys(vec![], vec![key.clone()]);
        if is_complete_under(&q, &tcs, &constraints) && !is_complete(&q, &tcs) {
            // The keys did real work; validate on key-consistent data:
            // drop facts that would violate the key (keep first per key).
            let mut ideal = magik_relalg::Instance::new();
            for fact in ctx.instance(&d).iter_facts() {
                let mut probe = ideal.clone();
                probe.insert(fact.clone());
                if key.check_instance(&probe).is_ok() {
                    ideal = probe;
                }
            }
            prop_assert!(key.check_instance(&ideal).is_ok());
            let pair = IncompleteDatabase::minimal_completion(ideal, &tcs);
            prop_assert!(
                pair.query_complete(&q).unwrap(),
                "key-aware completeness claim violated on key-consistent data"
            );
        }
    }

    /// Naive and optimized k-MCS engines agree up to equivalence (k = 1 to
    /// keep the naive engine affordable inside a property test).
    #[test]
    fn k_mcs_engines_agree(specs in proptest::collection::vec(atcs(), 0..3), qb in proptest::collection::vec(aatom(), 1..2)) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let naive = k_mcs(
            &q,
            &tcs,
            &mut ctx.vocab,
            KMcsOptions {
                engine: KMcsEngine::Naive,
                ..KMcsOptions::new(1)
            },
        );
        let optimized = k_mcs(&q, &tcs, &mut ctx.vocab, KMcsOptions::new(1));
        prop_assert!(naive.complete_search && optimized.complete_search);
        prop_assert_eq!(naive.queries.len(), optimized.queries.len());
        for nq in &naive.queries {
            prop_assert!(optimized.queries.iter().any(|oq| are_equivalent(nq, oq)));
        }
        // And every result is a bounded complete specialization.
        for m in &optimized.queries {
            prop_assert!(is_complete(m, &tcs));
            prop_assert!(is_contained_in(m, &q));
            prop_assert!(m.size() <= magik_relalg::minimize(&q).size() + 1);
        }
    }

    /// Parallel k-MCS is indistinguishable from the sequential engine:
    /// identical search statistics and identical result queries, down to
    /// the names of their scratch variables.
    #[test]
    fn parallel_k_mcs_matches_sequential(
        specs in proptest::collection::vec(atcs(), 0..3),
        qb in proptest::collection::vec(aatom(), 1..3),
        k in 0..2u32,
    ) {
        let mut ctx = Ctx::new();
        let tcs = ctx.tcs(&specs);
        let q = ctx.query(&qb);
        let seq = k_mcs(&q, &tcs, &mut ctx.vocab.clone(), KMcsOptions::new(k as usize));
        let par = k_mcs_on(
            &q,
            &tcs,
            &mut ctx.vocab,
            KMcsOptions::new(k as usize),
            &Executor::with_threads(4),
        );
        prop_assert!(seq.complete_search && par.complete_search);
        prop_assert_eq!(seq.stats, par.stats);
        prop_assert_eq!(seq.queries, par.queries);
    }
}
