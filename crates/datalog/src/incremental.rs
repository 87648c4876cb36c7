//! Incrementally maintained least models.
//!
//! A long-running service (see `magik-server`) asserts and retracts facts
//! against a slowly evolving rule set. Recomputing the fixpoint from
//! scratch on every change wastes the work of all previous rounds, so
//! **both** mutation directions are maintained incrementally:
//!
//! * *Insertion*: positive Datalog is monotone, so new consequences are
//!   propagated from the inserted facts alone with the same per-(rule,
//!   pivot) delta plans that power semi-naive evaluation.
//! * *Retraction*: deletion is not monotone — removing one base fact can
//!   invalidate any number of derivations — so it runs **DRed**
//!   (delete/re-derive; Gupta, Mumick & Subrahmanian, *Maintaining Views
//!   Incrementally*, SIGMOD 1993), the deletion twin of the semi-naive
//!   machinery:
//!
//!   1. **Over-deletion.** Starting from the retracted EDB facts, compute
//!      every fact with at least one derivation that transitively
//!      consumes a retracted fact. Each round seeds the per-(rule, pivot)
//!      delta plans with the current deletion delta and evaluates the
//!      rest of the body over the model **frozen before any deletion** (a
//!      sound over-approximation), so the whole pass runs on one clone of
//!      the model and parallelizes under the pooled executor exactly like
//!      insertion rounds. All marked facts leave the model.
//!   2. **Re-derivation.** Over-deletion may remove facts that still have
//!      derivations avoiding every retracted fact. Each marked fact is
//!      rescued if it survives in the retained EDB or some rule derives
//!      it in one step from the surviving model (a first-match run of the
//!      rule's head-bound *support plan*); the rescued facts are then
//!      propagated back with the ordinary insertion delta machinery,
//!      which re-derives everything downstream of them.
//!
//! Retraction cost is thus proportional to the derivations touching the
//! retracted facts — not to the model — matching the insertion side. The
//! retired full-recomputation strategy survives as
//! [`Materialized::retract_all_recompute`], the oracle the DRed path is
//! property-tested and benchmarked against.

use magik_exec::Executor;
use magik_relalg::{Fact, Instance};

use crate::eval::CompiledProgram;
use crate::program::Program;

/// Errors constructing a [`Materialized`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaterializeError {
    /// The program uses negation: incremental insertion is only sound for
    /// positive (monotone) programs.
    NegationNotSupported,
}

impl std::fmt::Display for MaterializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaterializeError::NegationNotSupported => {
                write!(f, "incremental materialization requires a positive program")
            }
        }
    }
}

impl std::error::Error for MaterializeError {}

/// What one [`Materialized::retract_all`] call did, fact-counted per DRed
/// phase. `overdeleted - rederived` is the net shrinkage of the model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetractStats {
    /// EDB facts actually removed (absent and duplicate facts in the
    /// batch do not count). `0` means the call was a no-op: the model,
    /// the EDB, and every derived result are unchanged.
    pub removed: usize,
    /// Facts the over-deletion pass removed from the model — the
    /// retracted facts themselves plus everything transitively derivable
    /// through them.
    pub overdeleted: usize,
    /// Over-deleted facts the re-derivation pass put back because an
    /// alternative derivation (or the retained EDB) still supports them.
    pub rederived: usize,
}

/// A positive Datalog program together with its continuously maintained
/// least model.
///
/// * [`Materialized::insert`] / [`Materialized::insert_all`] extend the
///   EDB and propagate consequences by **delta semi-naive re-evaluation**
///   — cost proportional to the affected derivations, not the model.
/// * [`Materialized::retract`] / [`Materialized::retract_all`] remove EDB
///   facts and repair the model with **DRed** (over-delete, then
///   re-derive; see the module docs) — the same cost profile, on the
///   deletion side.
///
/// The rules are compiled to execution plans **once**, at construction:
/// insertions, retractions, and every fixpoint round they trigger all
/// reuse the same [`CompiledProgram`] instead of re-planning each rule
/// per operation.
///
/// The model always equals `program.eval_semi_naive(edb).model`; property
/// tests in this crate assert that invariant over random programs and
/// random interleavings of assertions and retractions.
#[derive(Debug, Clone)]
pub struct Materialized {
    program: Program,
    compiled: CompiledProgram,
    edb: Instance,
    model: Instance,
    exec: Executor,
}

impl Materialized {
    /// Materializes `program` over `edb`. Fails if the program uses
    /// negation (incremental insertion would be unsound).
    pub fn new(program: Program, edb: Instance) -> Result<Self, MaterializeError> {
        Materialized::with_executor(program, edb, Executor::Sequential)
    }

    /// [`Materialized::new`] with fixpoint rounds partitioned across
    /// `exec` — the initial materialization, every insertion's delta
    /// propagation, and both DRed passes of every retraction all fan out
    /// on it. The maintained model is identical to the sequential one.
    pub fn with_executor(
        program: Program,
        edb: Instance,
        exec: Executor,
    ) -> Result<Self, MaterializeError> {
        if program.rules().iter().any(|r| !r.negative.is_empty()) {
            return Err(MaterializeError::NegationNotSupported);
        }
        // All maintenance plans come from the one code path that
        // guarantees materialized-model statistics for IDB relations (see
        // [`CompiledProgram::compile_maintenance`]).
        let (compiled, model) = CompiledProgram::compile_maintenance(&program, &edb, &exec);
        Ok(Materialized {
            program,
            compiled,
            edb,
            model,
            exec,
        })
    }

    /// The maintained least model (EDB plus all derived facts).
    pub fn model(&self) -> &Instance {
        &self.model
    }

    /// The base facts.
    pub fn edb(&self) -> &Instance {
        &self.edb
    }

    /// The rules.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Asserts one fact; returns the number of facts the model gained
    /// (the fact itself plus everything newly derivable from it).
    ///
    /// A return of `0` means the model is unchanged — the fact was
    /// already present (or already derived), so callers maintaining
    /// derived state (caches, epochs, published snapshots) can skip
    /// invalidation. The EDB still remembers an already-derived fact as a
    /// base fact, which matters to later retractions: an EDB fact
    /// survives DRed even when every rule deriving it dies.
    pub fn insert(&mut self, fact: Fact) -> usize {
        self.insert_all(std::iter::once(fact))
    }

    /// Asserts a batch of facts; returns the number of facts the model
    /// gained (`0` iff the model is unchanged — see
    /// [`Materialized::insert`]). One delta propagation covers the whole
    /// batch.
    pub fn insert_all(&mut self, facts: impl IntoIterator<Item = Fact>) -> usize {
        let mut delta = Vec::new();
        for fact in facts {
            self.edb.insert(fact.clone());
            if self.model.insert(fact.clone()) {
                delta.push(fact);
            }
        }
        let seeds = delta.len();
        let (_, derived) = self
            .compiled
            .propagate_delta_on(&mut self.model, delta, &self.exec);
        seeds + derived
    }

    /// Retracts one EDB fact by DRed; returns `true` if it was present
    /// (`false` means the call was a no-op — derived facts are not EDB
    /// facts and cannot be retracted).
    pub fn retract(&mut self, fact: &Fact) -> bool {
        self.retract_all(std::iter::once(fact.clone())).removed > 0
    }

    /// Retracts a batch of EDB facts and repairs the model with one DRed
    /// pass (see the module docs): over-delete everything transitively
    /// derivable through the batch against the pre-retraction model, then
    /// rescue the over-deleted facts that the retained EDB or a surviving
    /// derivation still supports. Absent facts (and duplicates within the
    /// batch) are ignored; cost scales with the affected derivations, not
    /// the model.
    pub fn retract_all(&mut self, facts: impl IntoIterator<Item = Fact>) -> RetractStats {
        let mut seeds = Vec::new();
        for fact in facts {
            if self.edb.remove(&fact) {
                seeds.push(fact);
            }
        }
        if seeds.is_empty() {
            return RetractStats::default();
        }
        let removed = seeds.len();

        // Phase 1 — over-deletion, against the model before any removal.
        // Everything marked leaves the model. The pass's rounds release
        // their clones of the model when it returns, so a model nothing
        // else shares takes its removals in place. One that is still
        // shared (a server's published snapshot) is no costlier to
        // mutate: a write to a shared relation copies only the relation's
        // small delta, never the relation (see `magik_relalg::Relation`).
        let marked = self.compiled.overdelete_on(&self.model, seeds, &self.exec);
        let mut overdeleted = 0;
        for fact in &marked {
            if self.model.remove(fact) {
                overdeleted += 1;
            }
        }

        // Phase 2 — re-derivation. Retained EDB facts are self-supported;
        // the rest need one surviving rule derivation over the pruned
        // model. The rescued facts then re-enter through the ordinary
        // insertion delta machinery, which restores their consequences.
        let (kept_edb, candidates): (Vec<Fact>, Vec<Fact>) =
            marked.into_iter().partition(|f| self.edb.contains(f));
        let mut rescue = kept_edb;
        rescue.extend(
            self.compiled
                .supported_on(&self.model, candidates, &self.exec),
        );
        let mut rederived = 0;
        let mut delta = Vec::new();
        for fact in rescue {
            if self.model.insert(fact.clone()) {
                delta.push(fact);
                rederived += 1;
            }
        }
        let (_, propagated) = self
            .compiled
            .propagate_delta_on(&mut self.model, delta, &self.exec);
        rederived += propagated;

        RetractStats {
            removed,
            overdeleted,
            rederived,
        }
    }

    /// Retracts a batch with the retired **full-recomputation** strategy:
    /// remove the facts from the EDB and re-run the whole semi-naive
    /// fixpoint (with the construction-time plans). Returns the number of
    /// EDB facts removed.
    ///
    /// Kept as the oracle the DRed path is property-tested and
    /// benchmarked against — production callers want
    /// [`Materialized::retract_all`].
    pub fn retract_all_recompute(&mut self, facts: impl IntoIterator<Item = Fact>) -> usize {
        let mut removed = 0;
        for fact in facts {
            removed += usize::from(self.edb.remove(&fact));
        }
        if removed > 0 {
            self.model = self
                .compiled
                .eval_semi_naive_on(&self.edb, &self.exec)
                .model;
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Rule;
    use magik_relalg::{Atom, Term, Vocabulary};

    fn tc_setup(v: &mut Vocabulary) -> (magik_relalg::Pred, magik_relalg::Pred, Program) {
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
                    Atom::new(edge, vec![Term::Var(y), Term::Var(z)]),
                ],
            ),
        ])
        .unwrap();
        (edge, path, program)
    }

    fn edge_fact(v: &mut Vocabulary, e: magik_relalg::Pred, a: &str, b: &str) -> Fact {
        Fact::new(e, vec![v.cst(a), v.cst(b)])
    }

    /// The invariant every operation must preserve.
    fn assert_matches_scratch(m: &Materialized) {
        let scratch = m.program().eval_semi_naive(m.edb()).model;
        assert_eq!(m.model(), &scratch);
    }

    #[test]
    fn insert_extends_closure_incrementally() {
        let mut v = Vocabulary::new();
        let (edge, path, program) = tc_setup(&mut v);
        let mut m = Materialized::new(program, Instance::new()).unwrap();
        assert!(m.model().is_empty());

        // Grow a chain one edge at a time; each insertion derives exactly
        // the paths ending at the new node.
        for i in 0..6 {
            let gained = m.insert(edge_fact(
                &mut v,
                edge,
                &format!("n{i}"),
                &format!("n{}", i + 1),
            ));
            // 1 edge fact + paths from each of the i+1 earlier nodes.
            assert_eq!(gained, 1 + (i + 1));
            assert_matches_scratch(&m);
        }
        assert_eq!(m.model().relation(path).unwrap().len(), 21);
    }

    #[test]
    fn batch_insert_equals_separate_inserts() {
        let mut v = Vocabulary::new();
        let (edge, _, program) = tc_setup(&mut v);
        let facts = vec![
            edge_fact(&mut v, edge, "a", "b"),
            edge_fact(&mut v, edge, "b", "c"),
            edge_fact(&mut v, edge, "c", "a"),
            edge_fact(&mut v, edge, "c", "a"), // duplicate in one batch
        ];
        let mut batched = Materialized::new(program.clone(), Instance::new()).unwrap();
        let gained = batched.insert_all(facts.clone());
        let mut one_by_one = Materialized::new(program, Instance::new()).unwrap();
        let singles: usize = facts.into_iter().map(|f| one_by_one.insert(f)).sum();
        assert_eq!(gained, singles);
        assert_eq!(batched.model(), one_by_one.model());
        assert_matches_scratch(&batched);
        // 3 edges + full 3x3 cycle closure.
        assert_eq!(batched.model().len(), 3 + 9);
    }

    #[test]
    fn retract_deletes_consequences() {
        let mut v = Vocabulary::new();
        let (edge, path, program) = tc_setup(&mut v);
        let mut m = Materialized::new(program, Instance::new()).unwrap();
        m.insert_all([
            edge_fact(&mut v, edge, "a", "b"),
            edge_fact(&mut v, edge, "b", "c"),
        ]);
        assert!(m
            .model()
            .contains(&Fact::new(path, vec![v.cst("a"), v.cst("c")])));
        assert!(m.retract(&edge_fact(&mut v, edge, "b", "c")));
        assert!(!m
            .model()
            .contains(&Fact::new(path, vec![v.cst("a"), v.cst("c")])));
        assert_matches_scratch(&m);
        // Retracting an absent fact is a no-op.
        assert!(!m.retract(&edge_fact(&mut v, edge, "b", "c")));
        // A derived fact is not an EDB fact and cannot be retracted.
        assert!(!m.retract(&Fact::new(path, vec![v.cst("a"), v.cst("b")])));
        assert_matches_scratch(&m);
    }

    #[test]
    fn rederivation_rescues_alternative_derivations() {
        let mut v = Vocabulary::new();
        let (edge, path, program) = tc_setup(&mut v);
        let mut m = Materialized::new(program, Instance::new()).unwrap();
        // path(a,c) holds both via the direct edge and via the chain
        // through b; DRed over-deletes it when the direct edge dies, and
        // the re-derivation pass must bring it back.
        m.insert_all([
            edge_fact(&mut v, edge, "a", "b"),
            edge_fact(&mut v, edge, "b", "c"),
            edge_fact(&mut v, edge, "a", "c"),
        ]);
        let stats = m.retract_all([edge_fact(&mut v, edge, "a", "c")]);
        assert_eq!(stats.removed, 1);
        assert!(stats.overdeleted >= 2); // edge(a,c) and path(a,c) at least
        assert!(stats.rederived >= 1); // path(a,c) survives via the chain
        assert!(m
            .model()
            .contains(&Fact::new(path, vec![v.cst("a"), v.cst("c")])));
        assert_matches_scratch(&m);
    }

    #[test]
    fn retained_edb_fact_survives_overdeletion() {
        let mut v = Vocabulary::new();
        let (edge, path, program) = tc_setup(&mut v);
        let mut m = Materialized::new(program, Instance::new()).unwrap();
        // path(a,c) is asserted as a *base* fact in addition to being
        // derived; retracting the edge that derived it must not delete it.
        m.insert_all([
            edge_fact(&mut v, edge, "a", "b"),
            edge_fact(&mut v, edge, "b", "c"),
        ]);
        m.insert(Fact::new(path, vec![v.cst("a"), v.cst("c")]));
        assert!(m.retract(&edge_fact(&mut v, edge, "b", "c")));
        assert!(m
            .model()
            .contains(&Fact::new(path, vec![v.cst("a"), v.cst("c")])));
        assert_matches_scratch(&m);
    }

    #[test]
    fn batch_retract_equals_separate_retracts() {
        let mut v = Vocabulary::new();
        let (edge, _, program) = tc_setup(&mut v);
        let facts = vec![
            edge_fact(&mut v, edge, "a", "b"),
            edge_fact(&mut v, edge, "b", "c"),
            edge_fact(&mut v, edge, "c", "d"),
            edge_fact(&mut v, edge, "d", "a"),
        ];
        let gone = vec![
            edge_fact(&mut v, edge, "b", "c"),
            edge_fact(&mut v, edge, "d", "a"),
            edge_fact(&mut v, edge, "d", "a"), // duplicate in one batch
            edge_fact(&mut v, edge, "x", "y"), // never present
        ];
        let mut batched = Materialized::new(program.clone(), Instance::new()).unwrap();
        batched.insert_all(facts.clone());
        let stats = batched.retract_all(gone.clone());
        assert_eq!(stats.removed, 2);

        let mut one_by_one = Materialized::new(program, Instance::new()).unwrap();
        one_by_one.insert_all(facts);
        let singles = gone.iter().filter(|f| one_by_one.retract(f)).count();
        assert_eq!(stats.removed, singles);
        assert_eq!(batched.model(), one_by_one.model());
        assert_matches_scratch(&batched);
    }

    #[test]
    fn dred_matches_recompute_oracle() {
        let mut v = Vocabulary::new();
        let (edge, _, program) = tc_setup(&mut v);
        // A dense cycle: most paths have many derivations, stressing the
        // re-derivation pass.
        let nodes = ["a", "b", "c", "d", "e"];
        let mut facts = Vec::new();
        for (i, from) in nodes.iter().enumerate() {
            for to in nodes.iter().skip(i + 1) {
                facts.push(edge_fact(&mut v, edge, from, to));
            }
        }
        facts.push(edge_fact(&mut v, edge, "e", "a"));

        let mut dred = Materialized::new(program.clone(), Instance::new()).unwrap();
        dred.insert_all(facts.clone());
        let mut oracle = Materialized::new(program, Instance::new()).unwrap();
        oracle.insert_all(facts.clone());

        for gone in [
            edge_fact(&mut v, edge, "a", "c"),
            edge_fact(&mut v, edge, "e", "a"),
            edge_fact(&mut v, edge, "b", "d"),
        ] {
            let stats = dred.retract_all([gone.clone()]);
            let removed = oracle.retract_all_recompute([gone]);
            assert_eq!(stats.removed, removed);
            assert_eq!(dred.model(), oracle.model());
            assert_matches_scratch(&dred);
        }
    }

    #[test]
    fn negation_is_rejected() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let q = v.pred("q", 1);
        let r = v.pred("r", 1);
        let x = v.var("X");
        let program = Program::new(vec![Rule::with_negation(
            Atom::new(q, vec![Term::Var(x)]),
            vec![Atom::new(p, vec![Term::Var(x)])],
            vec![Atom::new(r, vec![Term::Var(x)])],
        )])
        .unwrap();
        assert_eq!(
            Materialized::new(program, Instance::new()).unwrap_err(),
            MaterializeError::NegationNotSupported
        );
    }
}
