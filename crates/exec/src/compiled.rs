//! Compiled queries and rule bodies: the execution units shared by the
//! evaluation, containment, Datalog, and server layers.

use std::collections::BTreeSet;

use magik_relalg::batch::{Batch, BatchPlan, JoinStrategy};
use magik_relalg::exec::{ExecStats, Plan, Projection};
use magik_relalg::{AnswerSet, Atom, Cst, EvalError, Fact, Instance, Pred, Query, Term, Var};

/// A safety-checked conjunctive query compiled to a [`Plan`] plus a head
/// [`Projection`].
///
/// Compilation fixes the atom order and access paths against the supplied
/// statistics instance; the compiled form can then be executed any number
/// of times, against the same instance or later versions of it (statistics
/// drift affects only speed, never results). This is what the server's
/// plan cache stores.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    query: Query,
    plan: Plan,
    batch: BatchPlan,
    head: Projection,
}

impl CompiledQuery {
    /// Compiles `q` using the statistics of `stats` for atom ordering.
    ///
    /// Returns [`EvalError::UnsafeQuery`] if a head variable does not
    /// occur in the body, exactly like
    /// [`answers`](magik_relalg::answers).
    pub fn compile(q: &Query, stats: Option<&Instance>) -> Result<CompiledQuery, EvalError> {
        let body_vars = q.body_vars();
        if let Some(v) = q.head_vars().into_iter().find(|v| !body_vars.contains(v)) {
            return Err(EvalError::UnsafeQuery(v));
        }
        let plan = Plan::compile(&q.body, &BTreeSet::new(), stats);
        let batch = BatchPlan::compile(&plan, stats, 1);
        let head = Projection::compile(&q.head, &plan).map_err(EvalError::UnsafeQuery)?;
        Ok(CompiledQuery {
            query: q.clone(),
            plan,
            batch,
            head,
        })
    }

    /// Evaluates the compiled query over `db` in batch mode, accumulating
    /// execution counters into `stats`.
    pub fn answers(&self, db: &Instance, stats: &mut ExecStats) -> AnswerSet {
        let out = self
            .batch
            .run(db, Batch::from_seeds(&self.plan, &[Vec::new()]), stats);
        let mut ans = AnswerSet::new();
        for r in 0..out.len() {
            ans.insert(self.head.emit_with(&mut |s| out.value(s, r)));
        }
        ans
    }

    /// The source query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The batch recompilation of [`CompiledQuery::plan`] (join-strategy
    /// choices live here).
    pub fn batch_plan(&self) -> &BatchPlan {
        &self.batch
    }

    /// The join strategies of the plan's join ops, in op order — what the
    /// server's plan cache records per entry. Ops without join keys
    /// (scans, pure filters) are skipped.
    pub fn join_strategies(&self) -> Vec<JoinStrategy> {
        self.batch
            .ops()
            .iter()
            .filter(|op| !op.join_keys().is_empty())
            .map(|op| op.strategy)
            .collect()
    }
}

/// A rule-shaped body compiled for full or delta-mode execution: positive
/// atoms as a [`Plan`], a head template as a [`Projection`], and ground
/// templates for stratified negated atoms.
///
/// For **full** execution compile with an empty `bound` set and run with an
/// empty seed. For **delta** execution compile the body *minus* the pivot
/// atom with the pivot's variables declared `bound`, then seed each run
/// from a delta fact via [`match_ground`](magik_relalg::match_ground).
/// Either way the plan is compiled once and reused across fixpoint rounds
/// and increments.
#[derive(Debug, Clone)]
pub struct CompiledBody {
    plan: Plan,
    batch: BatchPlan,
    head: Projection,
    /// Negated atoms as `(pred, ground template)`: a derivation survives
    /// iff none of the grounded facts is present in the instance.
    neg: Vec<(Pred, Projection)>,
}

/// Nominal delta-batch size assumed when choosing join strategies for
/// delta-mode bodies: a round's (rule, pivot) group is seeded with all the
/// round's matching delta facts at once, so the planner should not assume
/// single-row batches.
const NOMINAL_DELTA_BATCH: usize = 64;

impl CompiledBody {
    /// Compiles a rule body.
    ///
    /// `head_args` is the head template (any term list over the rule's
    /// variables), `body` the positive atoms, `negative` the negated atoms
    /// (their variables must be covered by `body` ∪ `bound` —
    /// range-restriction, which the Datalog layer validates), and `bound`
    /// the variables that will be seeded at run time. Fails with the first
    /// variable that no slot covers.
    pub fn compile(
        head_args: &[Term],
        body: &[Atom],
        negative: &[Atom],
        bound: &BTreeSet<Var>,
        stats: Option<&Instance>,
    ) -> Result<CompiledBody, Var> {
        let plan = Plan::compile(body, bound, stats);
        let expected = if bound.is_empty() {
            1
        } else {
            NOMINAL_DELTA_BATCH
        };
        let batch = BatchPlan::compile(&plan, stats, expected);
        let head = Projection::compile(head_args, &plan)?;
        let neg = negative
            .iter()
            .map(|a| Ok((a.pred, Projection::compile(&a.args, &plan)?)))
            .collect::<Result<_, _>>()?;
        Ok(CompiledBody {
            plan,
            batch,
            head,
            neg,
        })
    }

    /// Enumerates the head tuples derivable over `db` from assignments
    /// extending `seed`, skipping rows blocked by a negated atom. Head
    /// tuples are handed to `emit` (duplicates are possible; callers
    /// dedupe on insertion).
    pub fn for_each_derivation(
        &self,
        db: &Instance,
        seed: &[(Var, Cst)],
        stats: &mut ExecStats,
        emit: &mut dyn FnMut(Vec<Cst>),
    ) {
        self.plan.run(db, seed, stats, &mut |row| {
            let blocked = self
                .neg
                .iter()
                .any(|(pred, proj)| db.contains(&Fact::new(*pred, proj.emit(row))));
            if !blocked {
                emit(self.head.emit(row));
            }
            true
        });
    }

    /// `true` iff at least one derivation extends `seed` over `db`
    /// (first-match mode: stops at the first row no negated atom blocks).
    ///
    /// This is the *support check* of DRed re-derivation: with the rule's
    /// head variables declared bound and seeded from an over-deleted
    /// fact, it answers "does some surviving rule instantiation still
    /// derive this fact?" without enumerating the instantiations.
    pub fn has_derivation(
        &self,
        db: &Instance,
        seed: &[(Var, Cst)],
        stats: &mut ExecStats,
    ) -> bool {
        let mut found = false;
        self.plan.run(db, seed, stats, &mut |row| {
            let blocked = self
                .neg
                .iter()
                .any(|(pred, proj)| db.contains(&Fact::new(*pred, proj.emit(row))));
            if blocked {
                return true; // keep searching past a blocked row
            }
            found = true;
            false
        });
        found
    }

    /// Batched [`CompiledBody::for_each_derivation`]: runs the whole
    /// `seeds` batch through the plan in one pass — one seed row per
    /// delta fact of a (rule, pivot) group — and emits every surviving
    /// head tuple. Derives exactly the tuples that per-seed calls to
    /// `for_each_derivation` would (order within the batch unspecified;
    /// callers dedupe on insertion).
    pub fn derive_batch(
        &self,
        db: &Instance,
        seeds: &[Vec<(Var, Cst)>],
        stats: &mut ExecStats,
        emit: &mut dyn FnMut(Vec<Cst>),
    ) {
        if seeds.is_empty() {
            return;
        }
        let out = self
            .batch
            .run(db, Batch::from_seeds(&self.plan, seeds), stats);
        for r in 0..out.len() {
            let mut get = |s: usize| out.value(s, r);
            let blocked = self
                .neg
                .iter()
                .any(|(pred, proj)| db.contains(&Fact::new(*pred, proj.emit_with(&mut get))));
            if !blocked {
                emit(self.head.emit_with(&mut get));
            }
        }
    }

    /// The compiled plan over the positive atoms.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The batch recompilation of the plan (join-strategy choices).
    pub fn batch_plan(&self) -> &BatchPlan {
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use magik_relalg::{match_ground, Vocabulary};

    fn fact(v: &mut Vocabulary, p: Pred, args: &[&str]) -> Fact {
        Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
    }

    #[test]
    fn compiled_query_matches_answers() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c")] {
            db.insert(fact(&mut v, e, &[a, b]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(x), Term::Var(z)],
            vec![
                Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
                Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
            ],
        );
        let cq = CompiledQuery::compile(&q, Some(&db)).unwrap();
        let mut stats = ExecStats::default();
        let ans = cq.answers(&db, &mut stats);
        assert_eq!(ans, magik_relalg::answers(&q, &db).unwrap());
        assert!(stats.rows >= 1);

        // Same compiled plan, later instance version: still correct.
        db.insert(fact(&mut v, e, &["c", "d"]));
        let ans2 = cq.answers(&db, &mut ExecStats::default());
        assert_eq!(ans2, magik_relalg::answers(&q, &db).unwrap());
        assert_eq!(ans2.len(), 2);
    }

    #[test]
    fn compiled_query_rejects_unsafe_heads() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let q = Query::new(
            v.sym("q"),
            vec![Term::Var(y)],
            vec![Atom::new(p, vec![Term::Var(x)])],
        );
        assert_eq!(
            CompiledQuery::compile(&q, None).err(),
            Some(EvalError::UnsafeQuery(y))
        );
    }

    #[test]
    fn delta_body_derives_only_from_the_seed() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["x", "y"]));
        db.insert(fact(&mut v, e, &["b", "c"]));
        let (xv, yv, zv) = (v.var("X"), v.var("Y"), v.var("Z"));
        // p(X,Z) ← p(X,Y), e(Y,Z), with p(X,Y) as the pivot.
        let pivot = Atom::new(p, vec![Term::Var(xv), Term::Var(yv)]);
        let rest = vec![Atom::new(e, vec![Term::Var(yv), Term::Var(zv)])];
        let bound: BTreeSet<Var> = [xv, yv].into_iter().collect();
        let body = CompiledBody::compile(
            &[Term::Var(xv), Term::Var(zv)],
            &rest,
            &[],
            &bound,
            Some(&db),
        )
        .unwrap();
        let seed = match_ground(&pivot.args, &[v.cst("a"), v.cst("b")]).unwrap();
        let mut derived = Vec::new();
        body.for_each_derivation(&db, &seed, &mut ExecStats::default(), &mut |t| {
            derived.push(t);
        });
        assert_eq!(derived, vec![vec![v.cst("a"), v.cst("c")]]);
        // A delta fact that matches nothing downstream derives nothing.
        let seed = match_ground(&pivot.args, &[v.cst("x"), v.cst("y")]).unwrap();
        let mut none = Vec::new();
        body.for_each_derivation(&db, &seed, &mut ExecStats::default(), &mut |t| {
            none.push(t);
        });
        assert!(none.is_empty());
    }

    #[test]
    fn derive_batch_matches_per_seed_derivations() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let p = v.pred("p", 2);
        let blocked = v.pred("blocked", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("b", "d"), ("c", "c")] {
            db.insert(fact(&mut v, e, &[a, b]));
        }
        db.insert(fact(&mut v, blocked, &["a", "d"]));
        let (xv, yv, zv) = (v.var("X"), v.var("Y"), v.var("Z"));
        // p(X,Z) ← p(X,Y), e(Y,Z), ¬blocked(X,Z), pivot p(X,Y).
        let pivot = Atom::new(p, vec![Term::Var(xv), Term::Var(yv)]);
        let rest = vec![Atom::new(e, vec![Term::Var(yv), Term::Var(zv)])];
        let neg = vec![Atom::new(blocked, vec![Term::Var(xv), Term::Var(zv)])];
        let bound: BTreeSet<Var> = [xv, yv].into_iter().collect();
        let body = CompiledBody::compile(
            &[Term::Var(xv), Term::Var(zv)],
            &rest,
            &neg,
            &bound,
            Some(&db),
        )
        .unwrap();
        let deltas = [
            [v.cst("a"), v.cst("b")],
            [v.cst("q"), v.cst("b")],
            [v.cst("z"), v.cst("nope")],
        ];
        let seeds: Vec<Vec<(Var, Cst)>> = deltas
            .iter()
            .filter_map(|d| match_ground(&pivot.args, d))
            .collect();
        // Oracle: one for_each_derivation call per seed.
        let mut expect = Vec::new();
        for seed in &seeds {
            body.for_each_derivation(&db, seed, &mut ExecStats::default(), &mut |t| {
                expect.push(t);
            });
        }
        expect.sort();
        // (a,b) reaches c but not the blocked d; (q,b) reaches both.
        assert_eq!(
            expect,
            vec![
                vec![v.cst("a"), v.cst("c")],
                vec![v.cst("q"), v.cst("c")],
                vec![v.cst("q"), v.cst("d")],
            ]
        );
        let mut stats = ExecStats::default();
        let mut got = Vec::new();
        body.derive_batch(&db, &seeds, &mut stats, &mut |t| got.push(t));
        got.sort();
        assert_eq!(got, expect);
        assert_eq!(stats.batches, 1, "one batch for the whole seed group");
        body.derive_batch(&db, &[], &mut stats, &mut |_| panic!("no seeds"));
    }

    #[test]
    fn negated_atoms_block_derivations() {
        let mut v = Vocabulary::new();
        let node = v.pred("node", 1);
        let reach = v.pred("reach", 1);
        let mut db = Instance::new();
        for n in ["a", "b"] {
            db.insert(fact(&mut v, node, &[n]));
        }
        db.insert(fact(&mut v, reach, &["a"]));
        let x = v.var("X");
        // unreach(X) ← node(X), ¬reach(X).
        let body = CompiledBody::compile(
            &[Term::Var(x)],
            &[Atom::new(node, vec![Term::Var(x)])],
            &[Atom::new(reach, vec![Term::Var(x)])],
            &BTreeSet::new(),
            Some(&db),
        )
        .unwrap();
        let mut out = Vec::new();
        body.for_each_derivation(&db, &[], &mut ExecStats::default(), &mut |t| {
            out.push(t);
        });
        assert_eq!(out, vec![vec![v.cst("b")]]);
    }

    #[test]
    fn has_derivation_checks_support_under_bound_heads() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let p = v.pred("p", 2);
        let blocked = v.pred("blocked", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, e, &["b", "c"]));
        let (xv, yv, zv) = (v.var("X"), v.var("Y"), v.var("Z"));
        // p(X,Z) ← p(X,Y), e(Y,Z): is a given p-fact one-step derivable?
        let head = Atom::new(p, vec![Term::Var(xv), Term::Var(zv)]);
        let body = vec![
            Atom::new(p, vec![Term::Var(xv), Term::Var(yv)]),
            Atom::new(e, vec![Term::Var(yv), Term::Var(zv)]),
        ];
        let bound: BTreeSet<Var> = [xv, zv].into_iter().collect();
        let support = CompiledBody::compile(&head.args, &body, &[], &bound, Some(&db)).unwrap();
        let mut stats = ExecStats::default();
        let seed = match_ground(&head.args, &[v.cst("a"), v.cst("c")]).unwrap();
        assert!(support.has_derivation(&db, &seed, &mut stats));
        let seed = match_ground(&head.args, &[v.cst("a"), v.cst("z")]).unwrap();
        assert!(!support.has_derivation(&db, &seed, &mut stats));
        // A negated atom blocks the only supporting row.
        let neg = vec![Atom::new(blocked, vec![Term::Var(xv), Term::Var(zv)])];
        let guarded = CompiledBody::compile(&head.args, &body, &neg, &bound, Some(&db)).unwrap();
        let seed = match_ground(&head.args, &[v.cst("a"), v.cst("c")]).unwrap();
        assert!(guarded.has_derivation(&db, &seed, &mut stats));
        db.insert(fact(&mut v, blocked, &["a", "c"]));
        assert!(!guarded.has_derivation(&db, &seed, &mut stats));
    }
}
