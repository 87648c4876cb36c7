//! Bottom-up fixpoint evaluation: naive and semi-naive, over compiled
//! execution plans.
//!
//! Every rule is compiled **once** per fixpoint (and once per
//! [`Materialized`](crate::Materialized) lifetime) into
//! [`CompiledBody`] plans from `magik-exec`: one *full* plan evaluating
//! the whole body, and — for semi-naive evaluation — one *delta* plan per
//! body-atom pivot, with the pivot's variables declared bound so each
//! delta fact seeds the run via [`match_ground`]. The plans fix atom order
//! and index access paths up front and are reused across all fixpoint
//! rounds and increments.
//!
//! Semi-naive evaluation, incremental insertion and both DRed passes run
//! through one round function, [`round`]: it evaluates a batch of work
//! items (rules, delta facts or re-derivation candidates) against a clone
//! of the model frozen at round start, split across an [`Executor`] — one
//! chunk on `Executor::Sequential` — and returns the derived facts in
//! chunk order. The caller drops the clone with the round and then
//! inserts, so the insertions never copy shared storage.
//! The naive fixpoint keeps its eager in-place loop: it is the oracle for
//! stratified negation.

use std::collections::BTreeSet;
use std::sync::Arc;

use magik_exec::{partition, CompiledBody, ExecStats, Executor};
use magik_relalg::{match_ground, Atom, Cst, Fact, Instance, Pred, Var};

use crate::program::{Program, Rule};

/// The result of a fixpoint computation.
#[derive(Debug, Clone)]
pub struct FixpointResult {
    /// The least model: the EDB plus all derived facts.
    pub model: Instance,
    /// Number of iterations until the fixpoint was reached (an iteration
    /// applies every rule once).
    pub iterations: usize,
    /// Number of facts derived that were not in the EDB.
    pub derived: usize,
}

/// One rule's delta plan for one body-atom pivot: the rest of the body,
/// compiled with the pivot's variables declared bound.
#[derive(Debug, Clone)]
struct PivotPlan {
    /// The pivot atom pattern, matched against delta facts.
    atom: Atom,
    /// The remaining body (and the rule's negated atoms), seeded by the
    /// pivot match.
    body: CompiledBody,
}

impl PivotPlan {
    /// The seed rows of one delta round for this pivot: every delta fact
    /// of the pivot's predicate that matches its pattern, as one batch.
    fn seeds(&self, delta: &[Fact]) -> Vec<Vec<(Var, Cst)>> {
        delta
            .iter()
            .filter(|f| f.pred == self.atom.pred)
            .filter_map(|f| match_ground(&self.atom.args, &f.args))
            .collect()
    }
}

/// A rule compiled for fixpoint execution.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRule {
    head_pred: Pred,
    /// The head atom pattern, matched against facts by the DRed support
    /// check (see [`CompiledRule::support`]).
    head: Atom,
    /// Full-body plan (naive rounds, round 0 of semi-naive).
    full: CompiledBody,
    /// One delta plan per body-atom position (semi-naive rounds); empty
    /// when compiled with `with_pivots = false`.
    pivots: Vec<PivotPlan>,
    /// The body compiled with the head's variables declared bound: the
    /// DRed re-derivation *support plan*, answering "does some rule
    /// instantiation with this ground head survive?" in first-match mode.
    /// `None` when compiled with `with_pivots = false`.
    support: Option<CompiledBody>,
}

impl CompiledRule {
    fn compile(rule: &Rule, stats: Option<&Instance>, with_pivots: bool) -> CompiledRule {
        let full = CompiledBody::compile(
            &rule.head.args,
            &rule.body,
            &rule.negative,
            &BTreeSet::new(),
            stats,
        )
        .expect("range-restricted rules compile");
        let mut pivots = Vec::new();
        let mut support = None;
        if with_pivots {
            for (i, pivot) in rule.body.iter().enumerate() {
                let rest: Vec<Atom> = rule
                    .body
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, a)| a.clone())
                    .collect();
                let bound: BTreeSet<Var> = pivot.vars().collect();
                let body =
                    CompiledBody::compile(&rule.head.args, &rest, &rule.negative, &bound, stats)
                        .expect("pivot-bound rule bodies compile");
                pivots.push(PivotPlan {
                    atom: pivot.clone(),
                    body,
                });
            }
            let head_bound: BTreeSet<Var> = rule.head.vars().collect();
            support = Some(
                CompiledBody::compile(
                    &rule.head.args,
                    &rule.body,
                    &rule.negative,
                    &head_bound,
                    stats,
                )
                .expect("head-bound rule bodies compile"),
            );
        }
        CompiledRule {
            head_pred: rule.head.pred,
            head: rule.head.clone(),
            full,
            pivots,
            support,
        }
    }

    /// `true` iff this rule derives `fact` in one step from `store`
    /// (first-match over the support plan; requires `with_pivots`).
    fn supports(&self, store: &Instance, fact: &Fact, stats: &mut ExecStats) -> bool {
        if self.head_pred != fact.pred {
            return false;
        }
        let Some(seed) = match_ground(&self.head.args, &fact.args) else {
            return false;
        };
        self.support
            .as_ref()
            .expect("support plans are compiled alongside pivots")
            .has_derivation(store, &seed, stats)
    }

    /// Evaluates the full body over `model` and appends the derivable
    /// head facts to `out`.
    fn apply_full(&self, model: &Instance, stats: &mut ExecStats, out: &mut Vec<Fact>) {
        // Batch execution with the unit seed: one all-unbound row.
        self.full
            .derive_batch(model, &[Vec::new()], stats, &mut |args| {
                out.push(Fact::new(self.head_pred, args));
            });
    }
}

/// A program compiled for fixpoint execution: rules grouped by stratum,
/// each carrying its reusable plans.
///
/// Each stratum's rules sit behind an `Arc` so a round's tasks can share
/// them without cloning any plans.
#[derive(Debug, Clone)]
pub(crate) struct CompiledProgram {
    strata: Vec<Arc<Vec<CompiledRule>>>,
}

impl CompiledProgram {
    /// Compiles every rule of `program`, ordering plans by the statistics
    /// of `stats`. `with_pivots` additionally compiles the per-pivot delta
    /// plans (needed by semi-naive evaluation and incremental insertion).
    pub(crate) fn compile(
        program: &Program,
        stats: Option<&Instance>,
        with_pivots: bool,
    ) -> CompiledProgram {
        let mut strata: Vec<Vec<CompiledRule>> = vec![Vec::new(); program.num_strata()];
        for rule in program.rules() {
            strata[program.stratum(rule.head.pred)].push(CompiledRule::compile(
                rule,
                stats,
                with_pivots,
            ));
        }
        CompiledProgram {
            strata: strata.into_iter().map(Arc::new).collect(),
        }
    }

    /// Compiles `program`'s **maintenance plans** — the plans a
    /// [`Materialized`](crate::Materialized) model keeps for its whole
    /// lifetime — and materializes the least model, in one step.
    ///
    /// This is the single code path through which every maintenance plan
    /// is compiled, and it guarantees the plans see **materialized-model
    /// statistics**: a first compile against the EDB only bootstraps the
    /// initial fixpoint; the plans actually kept are then recompiled
    /// against the resulting model. Compiling maintenance plans from EDB
    /// statistics alone is subtly catastrophic — IDB relations have no
    /// EDB facts, so the planner sees them as empty (estimate 0) and
    /// happily scans or probes the large materialized relations last-ditch
    /// at run time; the DRed support checks, which probe the model
    /// per-fact, degrade worst. The batch join-strategy choices inherit
    /// the same statistics, so they too are sized to the model.
    ///
    /// Returns the compiled program and the model it was compiled against.
    pub(crate) fn compile_maintenance(
        program: &Program,
        edb: &Instance,
        exec: &Executor,
    ) -> (CompiledProgram, Instance) {
        let bootstrap = CompiledProgram::compile(program, Some(edb), true);
        let model = bootstrap.eval_semi_naive_on(edb, exec).model;
        let compiled = CompiledProgram::compile(program, Some(&model), true);
        (compiled, model)
    }

    /// Naive stratified fixpoint over `edb`.
    pub(crate) fn eval_naive(&self, edb: &Instance) -> FixpointResult {
        let mut model = edb.clone();
        let mut iterations = 0;
        let mut derived = 0;
        let mut stats = ExecStats::default();
        for stratum in &self.strata {
            let (i, d) = fixpoint_naive(stratum, &mut model, &mut stats);
            iterations += i;
            derived += d;
        }
        FixpointResult {
            model,
            iterations,
            derived,
        }
    }

    /// Semi-naive stratified fixpoint over `edb`, each round run by
    /// [`round`] on `exec`. The least model does not depend on `exec`.
    pub(crate) fn eval_semi_naive_on(&self, edb: &Instance, exec: &Executor) -> FixpointResult {
        let mut model = edb.clone();
        let mut iterations = 0;
        let mut derived = 0;
        for stratum in &self.strata {
            // Round 0: every rule's full plan.
            let candidates = full_round(stratum, model.clone(), exec);
            let delta = insert_new(&mut model, candidates);
            let seeded = delta.len();
            let (rounds, propagated) = propagate(stratum, &mut model, delta, exec);
            iterations += 1 + rounds;
            derived += seeded + propagated;
        }
        FixpointResult {
            model,
            iterations,
            derived,
        }
    }

    /// Propagates `delta` — facts already inserted into `model` — through
    /// every rule to a fixpoint, reusing the compiled delta plans. Returns
    /// `(rounds, derived)`. Used by [`crate::Materialized`] (positive
    /// programs, so stratification is immaterial).
    pub(crate) fn propagate_delta_on(
        &self,
        model: &mut Instance,
        delta: Vec<Fact>,
        exec: &Executor,
    ) -> (usize, usize) {
        propagate(&self.all_rules(), model, delta, exec)
    }

    /// All rules of every stratum behind one `Arc` (shared, not cloned,
    /// when the program has a single stratum — the common positive case).
    fn all_rules(&self) -> Arc<Vec<CompiledRule>> {
        match self.strata.as_slice() {
            [single] => Arc::clone(single),
            strata => Arc::new(strata.iter().flat_map(|s| s.iter()).cloned().collect()),
        }
    }

    /// The DRed **over-deletion** pass: every fact of `model` with at
    /// least one derivation that (transitively) consumes a fact of
    /// `seeds`, computed semi-naively with the per-(rule, pivot) delta
    /// plans. Each round matches the current deletion delta against every
    /// pivot and evaluates the rest of the body over the model **frozen
    /// before any deletion** — the over-approximation that makes the pass
    /// a fixed number of plan runs instead of a model recomputation; the
    /// re-derivation pass rescues facts with surviving alternative
    /// derivations. The returned set includes the seeds themselves.
    ///
    /// Because the store never changes during the pass, every round reads
    /// the same model.
    pub(crate) fn overdelete_on(
        &self,
        model: &Instance,
        seeds: Vec<Fact>,
        exec: &Executor,
    ) -> Vec<Fact> {
        let rules = self.all_rules();
        let mut marked = Instance::new();
        let mut delta = insert_new(&mut marked, seeds);
        let mut all = delta.clone();
        while !delta.is_empty() {
            // Heads derived from model facts are model facts (the model
            // is closed), so membership needs no re-check.
            let candidates = delta_round(&rules, model.clone(), delta, exec);
            delta = insert_new(&mut marked, candidates);
            all.extend(delta.iter().cloned());
        }
        all
    }

    /// The seeding step of DRed **re-derivation**: the subset of `facts`
    /// that some rule derives in one step from `store` (the model with
    /// the over-deleted facts already removed). Each fact costs one
    /// first-match run of the matching rules' support plans.
    pub(crate) fn supported_on(
        &self,
        store: &Instance,
        facts: Vec<Fact>,
        exec: &Executor,
    ) -> Vec<Fact> {
        let rules = self.all_rules();
        round(
            exec,
            store.clone(),
            facts,
            move |store, facts, stats, out| {
                out.extend(
                    facts
                        .iter()
                        .filter(|f| rules.iter().any(|r| r.supports(store, f, stats)))
                        .cloned(),
                );
            },
        )
    }
}

/// Naive fixpoint of one stratum's rules over `model` (in place).
fn fixpoint_naive(
    rules: &[CompiledRule],
    model: &mut Instance,
    stats: &mut ExecStats,
) -> (usize, usize) {
    let mut iterations = 0;
    let mut derived = 0;
    let mut buffer = Vec::new();
    loop {
        iterations += 1;
        let mut new_facts = 0;
        for rule in rules {
            buffer.clear();
            rule.apply_full(model, stats, &mut buffer);
            for fact in buffer.drain(..) {
                if model.insert(fact) {
                    new_facts += 1;
                }
            }
        }
        derived += new_facts;
        if new_facts == 0 {
            return (iterations, derived);
        }
    }
}

/// The fewest items a round splits across a pooled executor; a smaller
/// round runs as one chunk, since splitting it costs more than it saves.
const PARALLEL_DELTA_THRESHOLD: usize = 16;

/// One round over a frozen store: `work` runs on contiguous chunks of
/// `items` (rules, delta facts or re-derivation candidates) against
/// `store`, and the facts it derives come back concatenated in chunk
/// order.
///
/// `Executor::Sequential`, and any round of fewer than
/// [`PARALLEL_DELTA_THRESHOLD`] items, runs one chunk on the calling
/// thread; a pooled executor gets `threads * 2` chunks. The output is not
/// deduplicated: every caller dedups on insertion. `store` is released
/// before `round` returns, so a caller that inserts afterwards writes to
/// an unshared model.
fn round<T, W>(exec: &Executor, store: Instance, items: Vec<T>, work: W) -> Vec<Fact>
where
    T: Send + Sync + 'static,
    W: Fn(&Instance, &[T], &mut ExecStats, &mut Vec<Fact>) + Send + Sync + 'static,
{
    let chunks = match exec {
        Executor::Pooled(pool) if items.len() >= PARALLEL_DELTA_THRESHOLD => pool.threads() * 2,
        _ => 1,
    };
    let ranges = partition(items.len(), chunks);
    let items = Arc::new(items);
    let mut results = exec
        .map(ranges, move |range| {
            let mut out = Vec::new();
            work(&store, &items[range], &mut ExecStats::default(), &mut out);
            out
        })
        .into_iter();
    // Append to the first chunk's buffer: a one-chunk round copies nothing.
    let mut out = results.next().unwrap_or_default();
    results.for_each(|chunk| out.extend(chunk));
    out
}

/// Round 0 of a stratum: every rule's full plan, one item per rule.
fn full_round(rules: &Arc<Vec<CompiledRule>>, store: Instance, exec: &Executor) -> Vec<Fact> {
    let rules = Arc::clone(rules);
    let ids = (0..rules.len()).collect();
    round(exec, store, ids, move |store, ids, stats, out| {
        for &ri in ids {
            rules[ri].apply_full(store, stats, out);
        }
    })
}

/// One delta round: the delta facts of each chunk are grouped into one
/// seed batch per (rule, pivot), and each group runs through the pivot's
/// batch plan in a single pass.
fn delta_round(
    rules: &Arc<Vec<CompiledRule>>,
    store: Instance,
    delta: Vec<Fact>,
    exec: &Executor,
) -> Vec<Fact> {
    let rules = Arc::clone(rules);
    round(exec, store, delta, move |store, delta, stats, out| {
        for rule in rules.iter() {
            for pp in &rule.pivots {
                pp.body
                    .derive_batch(store, &pp.seeds(delta), stats, &mut |args| {
                        out.push(Fact::new(rule.head_pred, args));
                    });
            }
        }
    })
}

/// Inserts `facts` into `model`; returns the ones it did not hold yet.
/// A round's candidates repeat one another and the model, so a
/// membership probe first spares the copy an insertion takes.
fn insert_new(model: &mut Instance, facts: Vec<Fact>) -> Vec<Fact> {
    facts
        .into_iter()
        .filter(|f| !model.contains(f) && model.insert(f.clone()))
        .collect()
}

/// Propagates `delta` through the compiled delta plans to a fixpoint:
/// each round matches every delta fact against every rule's pivot atoms
/// over a clone of `model`, inserts what the round derived, and makes
/// the new facts the next round's delta. Returns `(rounds, derived)`.
fn propagate(
    rules: &Arc<Vec<CompiledRule>>,
    model: &mut Instance,
    mut delta: Vec<Fact>,
    exec: &Executor,
) -> (usize, usize) {
    let mut rounds = 0;
    let mut derived = 0;
    while !delta.is_empty() {
        rounds += 1;
        let candidates = delta_round(rules, model.clone(), delta, exec);
        delta = insert_new(model, candidates);
        derived += delta.len();
    }
    (rounds, derived)
}

impl Program {
    /// Computes the (stratified) least model by **naive** iteration within
    /// each stratum: apply every rule of the stratum to the full instance
    /// until no new fact is derived, then move to the next stratum. Rule
    /// bodies are compiled to plans once, up front.
    pub fn eval_naive(&self, edb: &Instance) -> FixpointResult {
        CompiledProgram::compile(self, Some(edb), false).eval_naive(edb)
    }

    /// Computes the (stratified) least model by **semi-naive** iteration
    /// within each stratum: after the first round, a rule is only
    /// re-evaluated with at least one positive body atom bound to a fact
    /// derived in the previous round — via delta plans compiled once per
    /// (rule, pivot) and reused across all rounds.
    ///
    /// Produces exactly the same model as [`Program::eval_naive`]; property
    /// tests in this crate assert the agreement on random programs.
    pub fn eval_semi_naive(&self, edb: &Instance) -> FixpointResult {
        CompiledProgram::compile(self, Some(edb), true)
            .eval_semi_naive_on(edb, &Executor::Sequential)
    }

    /// [`Program::eval_semi_naive`] with each fixpoint round's delta
    /// split across `exec`.
    ///
    /// Every round runs against a clone of the model frozen at round
    /// start, whatever the executor, so each round derives the same set
    /// of facts on every executor: the model, the derived count and
    /// [`FixpointResult::iterations`] do not depend on `exec`. Property
    /// tests assert model equality on random programs.
    pub fn eval_semi_naive_on(&self, edb: &Instance, exec: &Executor) -> FixpointResult {
        CompiledProgram::compile(self, Some(edb), true).eval_semi_naive_on(edb, exec)
    }

    /// Evaluates a conjunctive query over the least model of the program
    /// on `edb` — the standard "Datalog query" operation.
    ///
    /// ```
    /// # use magik_relalg::{Vocabulary, Atom, Fact, Instance, Term, Query};
    /// # use magik_datalog::{Program, Rule};
    /// # let mut v = Vocabulary::new();
    /// # let edge = v.pred("edge", 2);
    /// # let path = v.pred("path", 2);
    /// # let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
    /// # let program = Program::new(vec![
    /// #     Rule::new(Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
    /// #               vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])]),
    /// #     Rule::new(Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
    /// #               vec![Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
    /// #                    Atom::new(edge, vec![Term::Var(y), Term::Var(z)])]),
    /// # ]).unwrap();
    /// # let mut edb = Instance::new();
    /// # edb.insert(Fact::new(edge, vec![v.cst("a"), v.cst("b")]));
    /// # edb.insert(Fact::new(edge, vec![v.cst("b"), v.cst("c")]));
    /// let q = Query::new(v.sym("q"), vec![Term::Var(y)],
    ///                    vec![Atom::new(path, vec![Term::Cst(v.cst("a")), Term::Var(y)])]);
    /// let ans = program.query(&q, &edb).unwrap();
    /// assert_eq!(ans.len(), 2); // b and c
    /// ```
    pub fn query(
        &self,
        q: &magik_relalg::Query,
        edb: &Instance,
    ) -> Result<magik_relalg::AnswerSet, magik_relalg::EvalError> {
        let model = self.eval_semi_naive(edb).model;
        magik_relalg::answers(q, &model)
    }

    /// Applies every rule **once** to `db` and returns only the derived
    /// head facts (not the input). This is the single-step immediate
    /// consequence operator `T_P(db)`, used by the completeness crate to
    /// implement the paper's `T_C` operator via the Section 5 encoding.
    pub fn immediate_consequences(&self, db: &Instance) -> Instance {
        let compiled = CompiledProgram::compile(self, Some(db), false);
        let mut out = Instance::new();
        for stratum in &compiled.strata {
            for fact in full_round(stratum, db.clone(), &Executor::Sequential) {
                out.insert(fact);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Rule;
    use magik_relalg::{Term, Vocabulary};

    fn chain_edb(v: &mut Vocabulary, n: usize) -> (magik_relalg::Pred, Instance) {
        let edge = v.pred("edge", 2);
        let mut edb = Instance::new();
        for i in 0..n {
            edb.insert(Fact::new(
                edge,
                vec![v.cst(&format!("n{i}")), v.cst(&format!("n{}", i + 1))],
            ));
        }
        (edge, edb)
    }

    fn tc_program(v: &mut Vocabulary) -> (magik_relalg::Pred, Program) {
        let edge = v.pred("edge", 2);
        let path = v.pred("path", 2);
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let program = Program::new(vec![
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
            ),
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
                vec![
                    Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                    Atom::new(path, vec![Term::Var(y), Term::Var(z)]),
                ],
            ),
        ])
        .unwrap();
        (path, program)
    }

    #[test]
    fn transitive_closure_of_chain() {
        let mut v = Vocabulary::new();
        let (_, edb) = chain_edb(&mut v, 5);
        let (path, program) = tc_program(&mut v);
        let naive = program.eval_naive(&edb);
        let semi = program.eval_semi_naive(&edb);
        // 5 nodes chain: path holds for all i < j: C(6,2) = 15 pairs.
        let count = |m: &Instance| m.relation(path).map_or(0, magik_relalg::Relation::len);
        assert_eq!(count(&naive.model), 15);
        assert_eq!(count(&semi.model), 15);
        assert_eq!(naive.model, semi.model);
        assert_eq!(naive.derived, 15);
        assert_eq!(semi.derived, 15);
    }

    #[test]
    fn pooled_rounds_copy_no_cells() {
        // Each round releases its clone of the model before inserting, on
        // every executor, so a round's insertions never copy shared
        // storage.
        let mut v = Vocabulary::new();
        let (edge, edb) = chain_edb(&mut v, 300);
        let path = v.pred("path", 2);
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let program = Program::new(vec![
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(edge, vec![Term::Var(x), Term::Var(y)])],
            ),
            Rule::new(
                Atom::new(path, vec![Term::Var(x), Term::Var(z)]),
                vec![
                    Atom::new(path, vec![Term::Var(x), Term::Var(y)]),
                    Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
                ],
            ),
        ])
        .unwrap();
        for exec in [Executor::Sequential, Executor::with_threads(4)] {
            let before = magik_relalg::cow_cells_copied();
            let result = program.eval_semi_naive_on(&edb, &exec);
            let copied = magik_relalg::cow_cells_copied() - before;
            assert_eq!(copied, 0, "{} threads", exec.threads());
            assert_eq!(result.model.relation(path).unwrap().len(), 300 * 301 / 2);
        }
    }

    #[test]
    fn cycle_closure_terminates() {
        let mut v = Vocabulary::new();
        let edge = v.pred("edge", 2);
        let mut edb = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "a")] {
            edb.insert(Fact::new(edge, vec![v.cst(a), v.cst(b)]));
        }
        let (path, program) = tc_program(&mut v);
        let result = program.eval_semi_naive(&edb);
        // Full 3x3 closure.
        assert_eq!(result.model.relation(path).unwrap().len(), 9);
    }

    #[test]
    fn facts_rules_derive_ground_heads() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let program =
            Program::new(vec![Rule::fact(Atom::new(p, vec![Term::Cst(v.cst("a"))]))]).unwrap();
        let result = program.eval_naive(&Instance::new());
        assert!(result.model.contains(&Fact::new(p, vec![v.cst("a")])));
        assert_eq!(result.derived, 1);
    }

    #[test]
    fn nonrecursive_projection() {
        let mut v = Vocabulary::new();
        let r = v.pred("r", 2);
        let proj = v.pred("proj", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let program = Program::new(vec![Rule::new(
            Atom::new(proj, vec![Term::Var(x)]),
            vec![Atom::new(r, vec![Term::Var(x), Term::Var(y)])],
        )])
        .unwrap();
        let mut edb = Instance::new();
        edb.insert(Fact::new(r, vec![v.cst("a"), v.cst("b")]));
        edb.insert(Fact::new(r, vec![v.cst("a"), v.cst("c")]));
        let result = program.eval_semi_naive(&edb);
        assert_eq!(result.model.relation(proj).unwrap().len(), 1);
        assert_eq!(result.derived, 1);
    }

    #[test]
    fn immediate_consequences_is_single_step() {
        let mut v = Vocabulary::new();
        let (_, edb) = chain_edb(&mut v, 3);
        let (path, program) = tc_program(&mut v);
        let step1 = program.immediate_consequences(&edb);
        // One step only copies edges into path (the recursive rule needs
        // path facts, which do not exist yet).
        assert_eq!(step1.relation(path).unwrap().len(), 3);
        assert_eq!(step1.preds().count(), 1);
    }

    #[test]
    fn empty_program_returns_edb() {
        let mut v = Vocabulary::new();
        let (_, edb) = chain_edb(&mut v, 2);
        let program = Program::new(vec![]).unwrap();
        let result = program.eval_semi_naive(&edb);
        assert_eq!(result.model, edb);
        assert_eq!(result.derived, 0);
    }

    #[test]
    fn constants_in_rule_bodies_filter() {
        let mut v = Vocabulary::new();
        let edge = v.pred("edge", 2);
        let from_a = v.pred("from_a", 1);
        let y = v.var("Y");
        let a = v.cst("a");
        let program = Program::new(vec![Rule::new(
            Atom::new(from_a, vec![Term::Var(y)]),
            vec![Atom::new(edge, vec![Term::Cst(a), Term::Var(y)])],
        )])
        .unwrap();
        let mut edb = Instance::new();
        edb.insert(Fact::new(edge, vec![v.cst("a"), v.cst("b")]));
        edb.insert(Fact::new(edge, vec![v.cst("c"), v.cst("d")]));
        let result = program.eval_semi_naive(&edb);
        let rel = result.model.relation(from_a).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[v.cst("b")]));
    }

    #[test]
    fn stratified_negation_computes_unreachable_nodes() {
        let mut v = Vocabulary::new();
        let node = v.pred("node", 1);
        let edge = v.pred("edge", 2);
        let reach = v.pred("reach", 1);
        let unreach = v.pred("unreach", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let root = v.cst("a");
        let program = Program::new(vec![
            Rule::new(
                Atom::new(reach, vec![Term::Cst(root)]),
                vec![Atom::new(node, vec![Term::Cst(root)])],
            ),
            Rule::new(
                Atom::new(reach, vec![Term::Var(y)]),
                vec![
                    Atom::new(reach, vec![Term::Var(x)]),
                    Atom::new(edge, vec![Term::Var(x), Term::Var(y)]),
                ],
            ),
            Rule::with_negation(
                Atom::new(unreach, vec![Term::Var(x)]),
                vec![Atom::new(node, vec![Term::Var(x)])],
                vec![Atom::new(reach, vec![Term::Var(x)])],
            ),
        ])
        .unwrap();
        let mut edb = Instance::new();
        for n in ["a", "b", "c", "d"] {
            edb.insert(Fact::new(node, vec![v.cst(n)]));
        }
        edb.insert(Fact::new(edge, vec![v.cst("a"), v.cst("b")]));
        edb.insert(Fact::new(edge, vec![v.cst("c"), v.cst("d")]));
        let naive = program.eval_naive(&edb);
        let semi = program.eval_semi_naive(&edb);
        assert_eq!(naive.model, semi.model);
        let un = naive.model.relation(unreach).unwrap();
        assert_eq!(un.len(), 2);
        assert!(un.contains(&[v.cst("c")]));
        assert!(un.contains(&[v.cst("d")]));
        // Crucially, NOT b: stratification evaluates reach to completion
        // before negating it.
        assert!(!un.contains(&[v.cst("b")]));
    }

    #[test]
    fn negation_with_pivot_rest_bindings() {
        // Exercise the semi-naive pivot path through a negated rule whose
        // remaining body shares variables with the pivot.
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let q = v.pred("q", 2);
        let blocked = v.pred("blocked", 2);
        let out = v.pred("out", 2);
        let (x, y) = (v.var("X"), v.var("Y"));
        let program = Program::new(vec![
            // q is derived, so out's body gets delta pivots.
            Rule::new(
                Atom::new(q, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(p, vec![Term::Var(x), Term::Var(y)])],
            ),
            Rule::with_negation(
                Atom::new(out, vec![Term::Var(x), Term::Var(y)]),
                vec![Atom::new(q, vec![Term::Var(x), Term::Var(y)])],
                vec![Atom::new(blocked, vec![Term::Var(x), Term::Var(y)])],
            ),
        ])
        .unwrap();
        let mut edb = Instance::new();
        edb.insert(Fact::new(p, vec![v.cst("1"), v.cst("2")]));
        edb.insert(Fact::new(p, vec![v.cst("3"), v.cst("4")]));
        edb.insert(Fact::new(blocked, vec![v.cst("3"), v.cst("4")]));
        let naive = program.eval_naive(&edb);
        let semi = program.eval_semi_naive(&edb);
        assert_eq!(naive.model, semi.model);
        let rel = semi.model.relation(out).unwrap();
        assert_eq!(rel.len(), 1);
        assert!(rel.contains(&[v.cst("1"), v.cst("2")]));
    }

    #[test]
    fn maintenance_plans_see_materialized_idb_statistics() {
        // Regression: maintenance plans (delta pivots, DRed support) must
        // be compiled against the materialized model, not the EDB — IDB
        // relations are EDB-empty, so EDB statistics make the planner
        // treat them as free (estimate 0) and mis-order every body that
        // mentions one. All construction paths go through
        // `compile_maintenance`, which this test pins down.
        let mut v = Vocabulary::new();
        let (_, edb) = chain_edb(&mut v, 6);
        let (path, program) = tc_program(&mut v);
        let (compiled, model) =
            CompiledProgram::compile_maintenance(&program, &edb, &Executor::Sequential);
        let path_facts = model.relation(path).unwrap().len();
        assert_eq!(path_facts, 21);
        // The recursive rule path(X,Z) ← path(X,Y), path(Y,Z).
        let recursive = compiled
            .strata
            .iter()
            .flat_map(|s| s.iter())
            .find(|r| r.full.plan().ops().len() == 2)
            .expect("the recursive rule has a two-atom body");
        // Its support plan (head vars bound) starts at the path atom: the
        // estimate must reflect the 21 materialized path facts, not the
        // empty EDB relation.
        let support = recursive.support.as_ref().unwrap();
        let first = &support.plan().ops()[0];
        assert_eq!(first.pred, path);
        assert!(
            first.est > 0,
            "support plan must see materialized path statistics, got est=0"
        );
        // Contrast: compiling the same program against the EDB alone
        // reports the IDB relation as empty.
        let edb_only = CompiledProgram::compile(&program, Some(&edb), true);
        let naive_rule = edb_only
            .strata
            .iter()
            .flat_map(|s| s.iter())
            .find(|r| r.full.plan().ops().len() == 2)
            .unwrap();
        let naive_first = &naive_rule.support.as_ref().unwrap().plan().ops()[0];
        assert_eq!(naive_first.est, 0, "EDB-only stats see path as empty");
    }

    #[test]
    fn same_generation_program() {
        // Classic same-generation: sg(X,X) needs person(X); sg via parents.
        let mut v = Vocabulary::new();
        let parent = v.pred("parent", 2);
        let person = v.pred("person", 1);
        let sg = v.pred("sg", 2);
        let (x, y, xp, yp) = (v.var("X"), v.var("Y"), v.var("XP"), v.var("YP"));
        let program = Program::new(vec![
            Rule::new(
                Atom::new(sg, vec![Term::Var(x), Term::Var(x)]),
                vec![Atom::new(person, vec![Term::Var(x)])],
            ),
            Rule::new(
                Atom::new(sg, vec![Term::Var(x), Term::Var(y)]),
                vec![
                    Atom::new(parent, vec![Term::Var(x), Term::Var(xp)]),
                    Atom::new(sg, vec![Term::Var(xp), Term::Var(yp)]),
                    Atom::new(parent, vec![Term::Var(y), Term::Var(yp)]),
                ],
            ),
        ])
        .unwrap();
        let mut edb = Instance::new();
        for name in ["ann", "bob", "carl", "root"] {
            edb.insert(Fact::new(person, vec![v.cst(name)]));
        }
        // ann and bob are children of root; carl is a child of ann.
        edb.insert(Fact::new(parent, vec![v.cst("ann"), v.cst("root")]));
        edb.insert(Fact::new(parent, vec![v.cst("bob"), v.cst("root")]));
        edb.insert(Fact::new(parent, vec![v.cst("carl"), v.cst("ann")]));
        let naive = program.eval_naive(&edb);
        let semi = program.eval_semi_naive(&edb);
        assert_eq!(naive.model, semi.model);
        let rel = naive.model.relation(sg).unwrap();
        assert!(rel.contains(&[v.cst("ann"), v.cst("bob")]));
        assert!(rel.contains(&[v.cst("bob"), v.cst("ann")]));
        assert!(!rel.contains(&[v.cst("carl"), v.cst("ann")]));
    }
}
