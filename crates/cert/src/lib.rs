//! Trusted certificate checker for completeness verdicts.
//!
//! The reasoning engine (`magik-completeness`) is a few thousand lines of
//! compiled query plans, operator caches and incremental maintenance. This
//! crate is the other half of the untrusted-engine/trusted-checker split:
//! it validates the engine's verdicts **by direct definition-checking**,
//! sharing only the data model (`magik-relalg` atoms, facts, freezing)
//! with the engine and none of its reasoning code. Where the engine runs
//! compiled register plans, the checker runs a ~30-line naive backtracking
//! matcher over a `BTreeSet<Fact>` — slow, obvious, and auditable.
//!
//! A [`Certificate`] witnesses one verdict of Theorem 3 of [Corman, Nutt,
//! Savković]: `C ⊨ Compl(Q)` iff `θū ∈ Q(T_C(D_Q))`, where `D_Q` is the
//! canonical (frozen) database of `Q` and `T_C` keeps exactly the facts
//! guaranteed by some statement of `C`.
//!
//! * [`CompleteCert`] carries the witnessing assignment θ together with,
//!   for every body atom, the statement and grounding that put its frozen
//!   image into `T_C(D_Q)` — checked by [`check_complete`].
//! * [`IncompleteCert`] carries the counterexample pair: the canonical
//!   database as ideal state and the guaranteed subset as available state,
//!   plus the lost answer — checked by [`check_incomplete`], which
//!   re-derives `T_C(D_Q)` naively to confirm the available state is not
//!   undersold.
//! * [`RepairCert`] carries a minimal repair: statement additions that
//!   flip the verdict to complete, with a per-element incompleteness
//!   certificate proving that dropping any one addition flips it back.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::BTreeSet;
use std::fmt;

use magik_relalg::{freeze_atom, freeze_term, Atom, Cst, Fact, Query, Term, Var};

/// A ground assignment, one `(variable, constant)` pair per bound
/// variable. Order is irrelevant to checking; producers sort by variable
/// for determinism.
pub type Binding = Vec<(Var, Cst)>;

/// The checker's own view of a TC statement `Compl(R(s̄); G)`: a head atom
/// and a condition. Mirrors the engine's `TcStatement` structurally so
/// certificates can be checked without importing the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertStatement {
    /// The statement head `R(s̄)` — the pattern of facts it guarantees.
    pub head: Atom,
    /// The condition `G` (empty means unconditional).
    pub condition: Vec<Atom>,
}

/// Why one frozen body atom is in `T_C(D_Q)`: the statement that
/// guarantees it and the grounding that matches statement head and
/// condition inside the canonical database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FactDerivation {
    /// The guaranteed fact (the θ-image of the body atom).
    pub fact: Fact,
    /// Index of the guaranteeing statement.
    pub statement: usize,
    /// The grounding σ of the statement's variables.
    pub binding: Binding,
}

/// Witness for a *complete* verdict: `θū ∈ Q(T_C(D_Q))`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompleteCert {
    /// The satisfying assignment θ of the query's variables.
    pub theta: Binding,
    /// One derivation per body atom, in body order.
    pub derivations: Vec<FactDerivation>,
}

/// Witness for an *incomplete* verdict: a concrete incomplete database
/// (ideal = `D_Q`, available = the certified superset of `T_C(D_Q)`)
/// that satisfies all statements yet loses `target` as an answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncompleteCert {
    /// The available state — must contain every fact of `T_C(D_Q)` while
    /// staying inside the ideal state `D_Q`.
    pub available: Vec<Fact>,
    /// The lost answer: in `Q(D_Q)` but not in `Q(available)`.
    pub target: Vec<Cst>,
}

/// A minimal repair for an incomplete verdict: unconditional statement
/// heads whose addition makes the TCS complete for the query, minimal in
/// the sense that dropping any one element flips the verdict back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairCert {
    /// The added statement heads (each read as `Compl(a; true)`).
    pub additions: Vec<Atom>,
    /// Completeness witness for statements ∪ additions.
    pub complete: CompleteCert,
    /// For each addition, an incompleteness witness for statements ∪
    /// (additions minus that element) — the 1-minimality proof.
    pub minimality: Vec<IncompleteCert>,
}

/// A checkable witness for one completeness verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The TCS entails completeness of the query.
    Complete(CompleteCert),
    /// It does not; here is a counterexample, and optionally a repair.
    Incomplete {
        /// The canonical counterexample.
        counterexample: IncompleteCert,
        /// A minimal repair suggestion, when one was computed.
        repair: Option<RepairCert>,
    },
}

/// Why a certificate failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertError {
    /// θ maps a head variable somewhere other than its frozen image.
    ThetaHeadMismatch(Var),
    /// A variable needed by the check is unbound in the given binding.
    Unbound(Var),
    /// The number of derivations differs from the number of body atoms.
    DerivationCount {
        /// Body atoms in the query.
        expected: usize,
        /// Derivations in the certificate.
        got: usize,
    },
    /// A derivation's fact is not the θ-image of its body atom.
    DerivationFactMismatch(usize),
    /// A derivation names a statement index out of range.
    StatementIndex(usize),
    /// σ applied to the statement head does not give the derived fact.
    StatementHeadMismatch(usize),
    /// The σ-image of the statement head is not in the ideal state.
    HeadNotInIdeal(usize),
    /// A σ-image of a condition atom is not in the ideal state.
    ConditionNotInIdeal(usize),
    /// The available state contains a fact outside the ideal state.
    AvailableNotInIdeal(Fact),
    /// A fact guaranteed by some statement is missing from the available
    /// state — the counterexample undersells `T_C(D_Q)`.
    GuaranteedFactMissing(Fact),
    /// The lost answer is not an answer over the ideal state.
    TargetNotIdealAnswer,
    /// The lost answer is still an answer over the available state.
    TargetStillAnswered,
    /// A repair certificate with no additions.
    EmptyRepair,
    /// The minimality list length differs from the additions length.
    MinimalityCount {
        /// Number of additions.
        expected: usize,
        /// Number of minimality witnesses.
        got: usize,
    },
    /// The repair's completeness witness failed.
    RepairNotComplete(Box<CertError>),
    /// The minimality witness for one addition failed: the repair is not
    /// minimal (or the witness is wrong).
    RepairNotMinimal(usize, Box<CertError>),
}

impl fmt::Display for CertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertError::ThetaHeadMismatch(v) => {
                write!(
                    f,
                    "θ maps head variable #{} off its frozen image",
                    v.index()
                )
            }
            CertError::Unbound(v) => write!(f, "variable #{} unbound", v.index()),
            CertError::DerivationCount { expected, got } => {
                write!(f, "expected {expected} derivations, got {got}")
            }
            CertError::DerivationFactMismatch(i) => {
                write!(f, "derivation {i} does not match θ(body atom {i})")
            }
            CertError::StatementIndex(i) => write!(f, "statement index {i} out of range"),
            CertError::StatementHeadMismatch(i) => {
                write!(
                    f,
                    "derivation {i}: σ(statement head) is not the derived fact"
                )
            }
            CertError::HeadNotInIdeal(i) => {
                write!(
                    f,
                    "derivation {i}: σ(statement head) not in the ideal state"
                )
            }
            CertError::ConditionNotInIdeal(i) => {
                write!(f, "derivation {i}: σ(condition) not in the ideal state")
            }
            CertError::AvailableNotInIdeal(_) => {
                write!(f, "available state is not a subset of the ideal state")
            }
            CertError::GuaranteedFactMissing(_) => {
                write!(
                    f,
                    "available state misses a fact guaranteed by the statements"
                )
            }
            CertError::TargetNotIdealAnswer => {
                write!(f, "lost answer is not an answer over the ideal state")
            }
            CertError::TargetStillAnswered => {
                write!(f, "lost answer is still answered over the available state")
            }
            CertError::EmptyRepair => write!(f, "repair has no additions"),
            CertError::MinimalityCount { expected, got } => {
                write!(f, "expected {expected} minimality witnesses, got {got}")
            }
            CertError::RepairNotComplete(e) => write!(f, "repair incomplete: {e}"),
            CertError::RepairNotMinimal(i, e) => {
                write!(f, "dropping addition {i} did not flip the verdict: {e}")
            }
        }
    }
}

impl std::error::Error for CertError {}

fn lookup(b: &Binding, v: Var) -> Option<Cst> {
    b.iter().find(|&&(bv, _)| bv == v).map(|&(_, c)| c)
}

fn apply_term(b: &Binding, t: Term) -> Result<Cst, CertError> {
    match t {
        Term::Cst(c) => Ok(c),
        Term::Var(v) => lookup(b, v).ok_or(CertError::Unbound(v)),
    }
}

fn apply_atom(b: &Binding, a: &Atom) -> Result<Fact, CertError> {
    let args = a
        .args
        .iter()
        .map(|&t| apply_term(b, t))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Fact::new(a.pred, args))
}

/// The canonical database `D_Q` of a query, as a plain fact set.
fn ideal_state(q: &Query) -> BTreeSet<Fact> {
    q.body.iter().map(freeze_atom).collect()
}

/// Tries to match `atom` against `fact` under the partial binding,
/// extending it on success. Returns how many pairs were pushed, or `None`
/// (with the binding restored) on mismatch.
fn try_match(atom: &Atom, fact: &Fact, binding: &mut Binding) -> Option<usize> {
    if atom.pred != fact.pred || atom.arity() != fact.arity() {
        return None;
    }
    let mut pushed = 0;
    for (&t, &c) in atom.args.iter().zip(&fact.args) {
        let ok = match t {
            Term::Cst(tc) => tc == c,
            Term::Var(v) => match lookup(binding, v) {
                Some(bound) => bound == c,
                None => {
                    binding.push((v, c));
                    pushed += 1;
                    true
                }
            },
        };
        if !ok {
            binding.truncate(binding.len() - pushed);
            return None;
        }
    }
    Some(pushed)
}

/// Naive backtracking search: calls `visit` for every homomorphism of
/// `pattern` into `db` extending `binding`; stops early (returning `true`)
/// when `visit` returns `true`.
fn for_each_hom(
    pattern: &[Atom],
    db: &BTreeSet<Fact>,
    binding: &mut Binding,
    visit: &mut dyn FnMut(&Binding) -> bool,
) -> bool {
    match pattern.split_first() {
        None => visit(binding),
        Some((atom, rest)) => {
            for fact in db.iter().filter(|f| f.pred == atom.pred) {
                if let Some(pushed) = try_match(atom, fact, binding) {
                    let stop = for_each_hom(rest, db, binding, visit);
                    binding.truncate(binding.len() - pushed);
                    if stop {
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// Seeds a binding from a head/target correspondence, exactly like the
/// engine's `has_answer`: head constants must equal the target, repeated
/// head variables must agree. `None` means the target cannot match.
fn seed_from_target(head: &[Term], target: &[Cst]) -> Option<Binding> {
    if head.len() != target.len() {
        return None;
    }
    let mut seed = Binding::new();
    for (&t, &c) in head.iter().zip(target) {
        match t {
            Term::Cst(tc) => {
                if tc != c {
                    return None;
                }
            }
            Term::Var(v) => match lookup(&seed, v) {
                Some(bound) => {
                    if bound != c {
                        return None;
                    }
                }
                None => seed.push((v, c)),
            },
        }
    }
    Some(seed)
}

/// Decides `target ∈ Q(db)` by naive search (generalized queries: head
/// variables missing from the body are bound by the target).
fn is_answer(q: &Query, db: &BTreeSet<Fact>, target: &[Cst]) -> bool {
    match seed_from_target(&q.head, target) {
        None => false,
        Some(mut seed) => for_each_hom(&q.body, db, &mut seed, &mut |_| true),
    }
}

/// Validates a completeness witness against the definition: θ maps the
/// query head onto its frozen image, and every θ-image of a body atom is
/// guaranteed — via its recorded statement and grounding — to be in
/// `T_C(D_Q)`.
pub fn check_complete(
    q: &Query,
    statements: &[CertStatement],
    cert: &CompleteCert,
) -> Result<(), CertError> {
    let ideal = ideal_state(q);
    // θ(ū) must be the frozen head tuple.
    for &t in &q.head {
        if let Term::Var(v) = t {
            match lookup(&cert.theta, v) {
                None => return Err(CertError::Unbound(v)),
                Some(c) if c != freeze_term(t) => return Err(CertError::ThetaHeadMismatch(v)),
                Some(_) => {}
            }
        }
    }
    if cert.derivations.len() != q.body.len() {
        return Err(CertError::DerivationCount {
            expected: q.body.len(),
            got: cert.derivations.len(),
        });
    }
    for (i, (atom, d)) in q.body.iter().zip(&cert.derivations).enumerate() {
        // The derived fact is the θ-image of the body atom…
        if apply_atom(&cert.theta, atom)? != d.fact {
            return Err(CertError::DerivationFactMismatch(i));
        }
        // …and the named statement, under the recorded grounding σ,
        // guarantees it: σ(head) = fact, σ(head) ∈ D_Q, σ(G) ⊆ D_Q.
        let stmt = statements
            .get(d.statement)
            .ok_or(CertError::StatementIndex(d.statement))?;
        let head = apply_atom(&d.binding, &stmt.head)?;
        if head != d.fact {
            return Err(CertError::StatementHeadMismatch(i));
        }
        if !ideal.contains(&head) {
            return Err(CertError::HeadNotInIdeal(i));
        }
        for c in &stmt.condition {
            if !ideal.contains(&apply_atom(&d.binding, c)?) {
                return Err(CertError::ConditionNotInIdeal(i));
            }
        }
    }
    Ok(())
}

/// Validates an incompleteness witness against the definition: the
/// available state sits between `T_C(D_Q)` and `D_Q` (so it is a legal
/// state of a partial database satisfying all statements), yet the target
/// answer of the ideal state is lost over it.
pub fn check_incomplete(
    q: &Query,
    statements: &[CertStatement],
    cert: &IncompleteCert,
) -> Result<(), CertError> {
    let ideal = ideal_state(q);
    let available: BTreeSet<Fact> = cert.available.iter().cloned().collect();
    for f in &available {
        if !ideal.contains(f) {
            return Err(CertError::AvailableNotInIdeal(f.clone()));
        }
    }
    // available ⊇ T_C(D_Q): every guaranteed fact must be present. This
    // re-derives T_C naively — for each statement, enumerate all
    // homomorphisms of `head :: condition` into the ideal state.
    for stmt in statements {
        let mut pattern = Vec::with_capacity(1 + stmt.condition.len());
        pattern.push(stmt.head.clone());
        pattern.extend(stmt.condition.iter().cloned());
        let mut missing: Option<Fact> = None;
        for_each_hom(&pattern, &ideal, &mut Binding::new(), &mut |b| {
            match apply_atom(b, &stmt.head) {
                Ok(head) if available.contains(&head) => false,
                Ok(head) => {
                    missing = Some(head);
                    true
                }
                Err(_) => false, // unreachable: the hom grounds the head
            }
        });
        if let Some(fact) = missing {
            return Err(CertError::GuaranteedFactMissing(fact));
        }
    }
    if !is_answer(q, &ideal, &cert.target) {
        return Err(CertError::TargetNotIdealAnswer);
    }
    if is_answer(q, &available, &cert.target) {
        return Err(CertError::TargetStillAnswered);
    }
    Ok(())
}

fn with_additions(statements: &[CertStatement], additions: &[Atom]) -> Vec<CertStatement> {
    let mut out = statements.to_vec();
    out.extend(additions.iter().map(|a| CertStatement {
        head: a.clone(),
        condition: Vec::new(),
    }));
    out
}

/// Validates a repair: the additions flip the verdict to complete, and
/// dropping any single addition flips it back (1-minimality).
pub fn check_repair(
    q: &Query,
    statements: &[CertStatement],
    repair: &RepairCert,
) -> Result<(), CertError> {
    if repair.additions.is_empty() {
        return Err(CertError::EmptyRepair);
    }
    check_complete(
        q,
        &with_additions(statements, &repair.additions),
        &repair.complete,
    )
    .map_err(|e| CertError::RepairNotComplete(Box::new(e)))?;
    if repair.minimality.len() != repair.additions.len() {
        return Err(CertError::MinimalityCount {
            expected: repair.additions.len(),
            got: repair.minimality.len(),
        });
    }
    for (i, witness) in repair.minimality.iter().enumerate() {
        let mut reduced = repair.additions.clone();
        reduced.remove(i);
        check_incomplete(q, &with_additions(statements, &reduced), witness)
            .map_err(|e| CertError::RepairNotMinimal(i, Box::new(e)))?;
    }
    Ok(())
}

/// Validates a certificate of either polarity (including the attached
/// repair, when present).
pub fn check_certificate(
    q: &Query,
    statements: &[CertStatement],
    cert: &Certificate,
) -> Result<(), CertError> {
    match cert {
        Certificate::Complete(c) => check_complete(q, statements, c),
        Certificate::Incomplete {
            counterexample,
            repair,
        } => {
            check_incomplete(q, statements, counterexample)?;
            match repair {
                Some(r) => check_repair(q, statements, r),
                None => Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::Vocabulary;

    /// The paper's running example, hand-reduced: `Compl(pupil(N,C,S);
    /// school(S,T,merano))` over `q(N) ← pupil(N,C,S), school(S,primary,merano)`
    /// plus an unconditional school statement.
    fn setup(v: &mut Vocabulary) -> (Query, Vec<CertStatement>) {
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let (n, c, s, t, d) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"), v.var("D"));
        let (primary, merano) = (v.cst("primary"), v.cst("merano"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(n)],
            vec![
                Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                Atom::new(
                    school,
                    vec![Term::Var(s), Term::Cst(primary), Term::Cst(merano)],
                ),
            ],
        );
        let stmts = vec![
            CertStatement {
                head: Atom::new(school, vec![Term::Var(s), Term::Var(t), Term::Var(d)]),
                condition: vec![],
            },
            CertStatement {
                head: Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                condition: vec![Atom::new(
                    school,
                    vec![Term::Var(s), Term::Var(t), Term::Cst(merano)],
                )],
            },
        ];
        (q, stmts)
    }

    fn identity_theta(q: &Query) -> Binding {
        let mut theta = Binding::new();
        for a in &q.body {
            for var in a.vars() {
                if lookup(&theta, var).is_none() {
                    theta.push((var, Cst::Frozen(var)));
                }
            }
        }
        theta
    }

    #[test]
    fn hand_built_complete_cert_validates() {
        let mut v = Vocabulary::new();
        let (q, stmts) = setup(&mut v);
        let theta = identity_theta(&q);
        // Atom 0 (pupil) is guaranteed by statement 1; its condition
        // school(S,T,merano) matches the frozen body atom with T ↦ primary.
        // Atom 1 (school) is guaranteed by statement 0.
        let s = v.var("S");
        let t = v.var("T");
        let d = v.var("D");
        let derivations = vec![
            FactDerivation {
                fact: freeze_atom(&q.body[0]),
                statement: 1,
                binding: {
                    let mut b = identity_theta(&q);
                    b.push((t, v.cst("primary")));
                    b
                },
            },
            FactDerivation {
                fact: freeze_atom(&q.body[1]),
                statement: 0,
                binding: vec![
                    (s, Cst::Frozen(s)),
                    (t, v.cst("primary")),
                    (d, v.cst("merano")),
                ],
            },
        ];
        let cert = CompleteCert { theta, derivations };
        assert_eq!(check_complete(&q, &stmts, &cert), Ok(()));
        // Corrupting θ breaks it.
        let mut bad = cert.clone();
        bad.theta[0].1 = v.cst("primary");
        assert!(check_complete(&q, &stmts, &bad).is_err());
        // Pointing a derivation at the wrong statement breaks it.
        let mut bad = cert.clone();
        bad.derivations[0].statement = 0;
        assert!(check_complete(&q, &stmts, &bad).is_err());
        // Dropping the pupil statement breaks it.
        assert!(check_complete(&q, &stmts[..1], &cert).is_err());
    }

    #[test]
    fn hand_built_incomplete_cert_validates() {
        let mut v = Vocabulary::new();
        let (q, stmts) = setup(&mut v);
        // Without the school statement, only the pupil fact is guaranteed
        // (its condition matches inside D_Q); the school fact is lost.
        let weak = vec![stmts[1].clone()];
        let n = v.var("N");
        let cert = IncompleteCert {
            available: vec![freeze_atom(&q.body[0])],
            target: vec![Cst::Frozen(n)],
        };
        assert_eq!(check_incomplete(&q, &weak, &cert), Ok(()));
        // Against the full statement set the same witness is rejected:
        // the available state undersells T_C.
        assert!(matches!(
            check_incomplete(&q, &stmts, &cert),
            Err(CertError::GuaranteedFactMissing(_))
        ));
        // An available state equal to D_Q still answers the target.
        let full = IncompleteCert {
            available: q.body.iter().map(freeze_atom).collect(),
            target: vec![Cst::Frozen(n)],
        };
        assert_eq!(
            check_incomplete(&q, &weak, &full),
            Err(CertError::TargetStillAnswered)
        );
        // Facts outside D_Q are rejected.
        let alien = IncompleteCert {
            available: vec![Fact::new(
                v.pred("pupil", 3),
                vec![v.cst("x"), v.cst("y"), v.cst("z")],
            )],
            target: vec![Cst::Frozen(n)],
        };
        assert!(matches!(
            check_incomplete(&q, &weak, &alien),
            Err(CertError::AvailableNotInIdeal(_))
        ));
    }

    #[test]
    fn repair_certs_enforce_minimality() {
        let mut v = Vocabulary::new();
        let (q, stmts) = setup(&mut v);
        let weak = vec![stmts[1].clone()]; // incomplete: school not guaranteed
        let n = v.var("N");
        // Repair: add Compl(school-atom; true). Complete witness uses the
        // added statement (index 1 in weak ++ additions) for atom 1.
        let theta = identity_theta(&q);
        let t = v.var("T");
        let complete = CompleteCert {
            theta: theta.clone(),
            derivations: vec![
                FactDerivation {
                    fact: freeze_atom(&q.body[0]),
                    statement: 0,
                    binding: {
                        let mut b = identity_theta(&q);
                        b.push((t, v.cst("primary")));
                        b
                    },
                },
                FactDerivation {
                    fact: freeze_atom(&q.body[1]),
                    statement: 1,
                    binding: identity_theta(&q),
                },
            ],
        };
        let repair = RepairCert {
            additions: vec![q.body[1].clone()],
            complete,
            minimality: vec![IncompleteCert {
                available: vec![freeze_atom(&q.body[0])],
                target: vec![Cst::Frozen(n)],
            }],
        };
        assert_eq!(check_repair(&q, &weak, &repair), Ok(()));
        // A non-minimal repair (redundant extra addition) is rejected:
        // dropping the redundant element leaves the set complete, so its
        // minimality witness cannot validate.
        let mut padded = repair.clone();
        padded.additions.push(q.body[0].clone());
        padded.minimality.push(IncompleteCert {
            available: vec![freeze_atom(&q.body[0])],
            target: vec![Cst::Frozen(n)],
        });
        assert!(matches!(
            check_repair(&q, &weak, &padded),
            Err(CertError::RepairNotMinimal(..))
        ));
        // Empty repairs are rejected outright.
        let empty = RepairCert {
            additions: vec![],
            complete: repair.complete.clone(),
            minimality: vec![],
        };
        assert_eq!(check_repair(&q, &weak, &empty), Err(CertError::EmptyRepair));
    }
}
