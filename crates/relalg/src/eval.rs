//! Conjunctive-query evaluation over compiled plans.
//!
//! Evaluation searches for assignments α of the query's variables to
//! constants of the instance such that αB ⊆ D. The search itself lives in
//! [`crate::exec`]: each entry point compiles the body into a [`Plan`]
//! (atom order and index access paths fixed up front from the instance's
//! statistics) and runs it in the appropriate mode — enumerate-all for
//! [`answers`] and [`homomorphisms`], first-match for [`has_answer`].

use std::collections::BTreeSet;
use std::fmt;

use crate::atom::{Atom, Pred};
use crate::display::DisplayWith;
use crate::exec::{match_ground, ExecStats, Plan, Projection};
use crate::instance::Instance;
use crate::query::Query;
use crate::subst::Substitution;
use crate::term::{Cst, Term, Var};
use crate::vocab::Vocabulary;

/// One answer tuple: the image of the head terms under a satisfying
/// assignment.
pub type Answer = Vec<Cst>;

/// The answer set of a query over an instance, ordered for deterministic
/// iteration.
pub type AnswerSet = BTreeSet<Answer>;

/// Errors raised by query evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The query has a head variable that does not occur in the body, so
    /// its answer set would be infinite (see the paper's discussion of
    /// generalized conjunctive queries in Section 3).
    UnsafeQuery(Var),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnsafeQuery(v) => write!(
                f,
                "unsafe query: head variable #{} does not occur in the body",
                v.index()
            ),
        }
    }
}

/// Names the variable, where [`fmt::Display`] can give only its id.
impl DisplayWith for EvalError {
    fn fmt_with(&self, vocab: &Vocabulary, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnsafeQuery(v) => write!(
                f,
                "unsafe query: head variable {} does not occur in the body",
                v.display(vocab)
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Evaluates a query over an instance: the set of answers
/// `{αū | αB ⊆ D}`.
///
/// Compiles a [`Plan`] for the body (ordered by the instance's statistics)
/// and enumerates all rows; see [`crate::exec`] for the plan IR. Returns
/// [`EvalError::UnsafeQuery`] if a head variable does not occur in the
/// body (the answer set would be infinite).
pub fn answers(q: &Query, db: &Instance) -> Result<AnswerSet, EvalError> {
    let body_vars = q.body_vars();
    if let Some(v) = q.head_vars().into_iter().find(|v| !body_vars.contains(v)) {
        return Err(EvalError::UnsafeQuery(v));
    }
    let plan = Plan::compile(&q.body, &BTreeSet::new(), Some(db));
    let head = Projection::compile(&q.head, &plan).map_err(EvalError::UnsafeQuery)?;
    let mut out = AnswerSet::new();
    let mut stats = ExecStats::default();
    plan.run(db, &[], &mut stats, &mut |row| {
        out.insert(head.emit(row));
        true
    });
    Ok(out)
}

/// Decides whether `target` is an answer of `q` over `db`, i.e. whether
/// there is an assignment α with αB ⊆ D and αū = target.
///
/// Unlike [`answers`], this works for **generalized** (unsafe) queries: head
/// variables missing from the body are simply bound by the target tuple.
/// Returns `false` if the arities of `target` and the head differ.
///
/// Runs the compiled plan in first-match mode: the head variables are
/// declared bound, seeded from `target`, and the search stops at the first
/// witness.
pub fn has_answer(q: &Query, db: &Instance, target: &[Cst]) -> bool {
    let Some(seed) = match_ground(&q.head, target) else {
        return false;
    };
    let bound: BTreeSet<Var> = seed.iter().map(|&(v, _)| v).collect();
    let plan = Plan::compile(&q.body, &bound, Some(db));
    plan.first_match(db, &seed, &mut ExecStats::default())
}

/// One step of the plan that produced a [`Witness`]: which body atom the
/// op matched and on which predicate, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessStep {
    /// Index of the matched atom in the source body.
    pub atom: usize,
    /// The predicate the op matched against.
    pub pred: Pred,
    /// Whether the op probed an index (`true`) or scanned (`false`).
    pub probed: bool,
}

/// A witness for a positive [`has_answer`] verdict: the satisfying
/// assignment together with the plan ops that found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// The satisfying assignment, one `(variable, constant)` pair per
    /// body/head variable, sorted by variable for determinism.
    pub binding: Vec<(Var, Cst)>,
    /// The plan steps (atom order and access path) that produced it.
    pub ops: Vec<WitnessStep>,
}

/// Like [`has_answer`], but on success returns the witnessing binding and
/// the plan ops that produced it instead of a bare `true`.
///
/// Uses the same seeded first-match search as [`has_answer`]; the extra
/// cost is one row capture on the (single) accepted match, so callers that
/// only need the boolean should keep using [`has_answer`].
pub fn has_answer_witness(q: &Query, db: &Instance, target: &[Cst]) -> Option<Witness> {
    let seed = match_ground(&q.head, target)?;
    let bound: BTreeSet<Var> = seed.iter().map(|&(v, _)| v).collect();
    let plan = Plan::compile(&q.body, &bound, Some(db));
    let mut binding: Option<Vec<(Var, Cst)>> = None;
    plan.run(db, &seed, &mut ExecStats::default(), &mut |row| {
        let mut pairs: Vec<(Var, Cst)> = seed.clone();
        for (v, c) in row.iter() {
            if !pairs.iter().any(|&(pv, _)| pv == v) {
                pairs.push((v, c));
            }
        }
        pairs.sort_by_key(|&(v, _)| v);
        binding = Some(pairs);
        false // stop at the first witness
    });
    let binding = binding?;
    let ops = plan
        .ops()
        .iter()
        .map(|op| WitnessStep {
            atom: op.atom,
            pred: op.pred,
            probed: matches!(op.access, crate::exec::Access::Probe { .. }),
        })
        .collect();
    Some(Witness { binding, ops })
}

/// Enumerates all homomorphisms from `body` into `db`, as ground
/// substitutions over the variables of `body`.
///
/// Mostly useful for tests and for the Datalog engine; prefer [`answers`]
/// when only head images are needed.
pub fn homomorphisms(body: &[Atom], db: &Instance) -> Vec<Substitution> {
    let plan = Plan::compile(body, &BTreeSet::new(), Some(db));
    let mut out = Vec::new();
    plan.run(db, &[], &mut ExecStats::default(), &mut |row| {
        out.push(Substitution::from_pairs(
            row.iter().map(|(v, c)| (v, Term::Cst(c))),
        ));
        true
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;

    /// The running-example database of the paper (Example 1).
    fn school_db(v: &mut Vocabulary) -> Instance {
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let learns = v.pred("learns", 2);
        let mut db = Instance::new();
        let f = |v: &mut Vocabulary, p, args: &[&str]| {
            Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
        };
        db.insert(f(v, school, &["goethe", "primary", "merano"]));
        db.insert(f(v, school, &["dante", "middle", "bolzano"]));
        db.insert(f(v, pupil, &["john", "c1", "goethe"]));
        db.insert(f(v, pupil, &["mary", "c1", "goethe"]));
        db.insert(f(v, pupil, &["luca", "c2", "dante"]));
        db.insert(f(v, learns, &["john", "english"]));
        db.insert(f(v, learns, &["luca", "german"]));
        db
    }

    #[test]
    fn join_two_atoms() {
        let mut v = Vocabulary::new();
        let db = school_db(&mut v);
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let (n, c, s, t) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"));
        // Pupils of schools in merano.
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(n)],
            vec![
                Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                Atom::new(
                    school,
                    vec![Term::Var(s), Term::Var(t), Term::Cst(v.cst("merano"))],
                ),
            ],
        );
        let ans = answers(&q, &db).unwrap();
        let names: Vec<_> = ans.iter().map(|a| a[0]).collect();
        assert_eq!(names, vec![v.cst("john"), v.cst("mary")]);
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a"), v.cst("a")]));
        db.insert(Fact::new(p, vec![v.cst("a"), v.cst("b")]));
        let x = v.var("X");
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(x)])],
        );
        let ans = answers(&q, &db).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&vec![v.cst("a")]));
    }

    #[test]
    fn empty_body_boolean_query_is_true() {
        let mut v = Vocabulary::new();
        let q = Query::boolean(v.sym("q"), vec![]);
        let db = Instance::new();
        let ans = answers(&q, &db).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&Vec::new()));
        assert!(has_answer(&q, &db, &[]));
    }

    #[test]
    fn missing_relation_yields_no_answers() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let x = v.var("X");
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        let ans = answers(&q, &Instance::new()).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn unsafe_query_is_rejected_by_answers() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(y)],
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        let err = answers(&q, &Instance::new()).unwrap_err();
        assert_eq!(err, EvalError::UnsafeQuery(y));
        assert_eq!(
            err.display(&v).to_string(),
            "unsafe query: head variable Y does not occur in the body"
        );
    }

    #[test]
    fn has_answer_handles_unsafe_queries() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a")]));
        // q(Y) ← p(X): any target works as long as the body is satisfiable.
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(y)],
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        assert!(has_answer(&q, &db, &[v.cst("zzz")]));
        assert!(!has_answer(&q, &Instance::new(), &[v.cst("zzz")]));
    }

    #[test]
    fn has_answer_respects_constants_and_repeats_in_head() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a"), v.cst("b")]));
        let (x, y) = (v.var("X"), v.var("Y"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x), Term::Var(y), Term::Cst(v.cst("k"))],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
        );
        let (a, b, k) = (v.cst("a"), v.cst("b"), v.cst("k"));
        assert!(has_answer(&q, &db, &[a, b, k]));
        assert!(!has_answer(&q, &db, &[a, b, a])); // wrong constant
        assert!(!has_answer(&q, &db, &[b, a, k])); // wrong order
        assert!(!has_answer(&q, &db, &[a, b])); // wrong arity

        // Repeated head variable forces equal target positions.
        let q2 = Query::new(
            v.sym("q2"),
            vec![Term::Var(x), Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
        );
        assert!(!has_answer(&q2, &db, &[a, b]));
        assert!(has_answer(&q2, &db, &[a, a]));
    }

    #[test]
    fn homomorphisms_enumerates_all_models() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a"), v.cst("b")]));
        db.insert(Fact::new(p, vec![v.cst("b"), v.cst("c")]));
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        // Path of length 2: only a->b->c.
        let body = vec![
            Atom::new(p, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(p, vec![Term::Var(y), Term::Var(z)]),
        ];
        let homs = homomorphisms(&body, &db);
        assert_eq!(homs.len(), 1);
        let h = &homs[0];
        assert_eq!(h.get(x), Some(Term::Cst(v.cst("a"))));
        assert_eq!(h.get(z), Some(Term::Cst(v.cst("c"))));
    }

    #[test]
    fn answers_with_constant_head_terms() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(Fact::new(p, vec![v.cst("a")]));
        let x = v.var("X");
        let q = Query::new(
            v.sym("q"),
            vec![Term::Cst(v.cst("tag")), Term::Var(x)],
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        let ans = answers(&q, &db).unwrap();
        assert!(ans.contains(&vec![v.cst("tag"), v.cst("a")]));
    }

    #[test]
    fn witness_binding_satisfies_the_body() {
        let mut v = Vocabulary::new();
        let db = school_db(&mut v);
        let pupil = v.pred("pupil", 3);
        let school = v.pred("school", 3);
        let (n, c, s, t) = (v.var("N"), v.var("C"), v.var("S"), v.var("T"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(n)],
            vec![
                Atom::new(pupil, vec![Term::Var(n), Term::Var(c), Term::Var(s)]),
                Atom::new(
                    school,
                    vec![Term::Var(s), Term::Var(t), Term::Cst(v.cst("merano"))],
                ),
            ],
        );
        let w = has_answer_witness(&q, &db, &[v.cst("john")]).expect("john is an answer");
        assert!(has_answer(&q, &db, &[v.cst("john")]));
        // Binding covers every body variable and substitutes into facts
        // present in the database.
        let get = |var: Var| {
            w.binding
                .iter()
                .find(|&&(bv, _)| bv == var)
                .map(|&(_, bc)| bc)
                .expect("bound")
        };
        assert_eq!(get(n), v.cst("john"));
        assert_eq!(get(s), v.cst("goethe"));
        // One witness step per body atom, covering both atoms.
        let mut atoms: Vec<usize> = w.ops.iter().map(|o| o.atom).collect();
        atoms.sort_unstable();
        assert_eq!(atoms, vec![0, 1]);
        // Negative targets yield no witness, mirroring has_answer.
        assert!(has_answer_witness(&q, &db, &[v.cst("luca")]).is_none());
        assert!(has_answer_witness(&q, &db, &[v.cst("john"), v.cst("x")]).is_none());
    }

    #[test]
    fn cartesian_product_counts() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let r = v.pred("r", 1);
        let mut db = Instance::new();
        for name in ["a", "b", "c"] {
            db.insert(Fact::new(p, vec![v.cst(name)]));
        }
        for name in ["x", "y"] {
            db.insert(Fact::new(r, vec![v.cst(name)]));
        }
        let (xv, yv) = (v.var("X"), v.var("Y"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(xv), Term::Var(yv)],
            vec![
                Atom::new(p, vec![Term::Var(xv)]),
                Atom::new(r, vec![Term::Var(yv)]),
            ],
        );
        assert_eq!(answers(&q, &db).unwrap().len(), 6);
    }
}
