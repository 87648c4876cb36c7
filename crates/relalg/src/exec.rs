//! Compiled execution plans for conjunctive bodies.
//!
//! Every reasoning task in the paper — evaluation, containment
//! (Chandra–Merlin), the completeness check over the frozen canonical
//! database (Theorem 3), and the semi-naive Datalog fixpoints behind the
//! Section 5 encoding — bottoms out in the same operation: find matches of
//! a conjunctive body against an [`Instance`]. This module compiles that
//! operation **once** per body into a [`Plan`] — an ordered sequence of
//! typed ops with a fixed variable-binding order — instead of re-deriving
//! atom order and index choices at every search node, the way the seed
//! backtracking evaluator did.
//!
//! # Plan shape
//!
//! A plan holds one [`PlanOp`] per body atom, in execution order. Each op
//! enumerates candidate tuples either by scanning its relation
//! ([`Access::Scan`]) or by probing a per-column hash index with a value
//! known at that point ([`Access::Probe`]), then applies its
//! [`ColAction`]s in column order: constants are checked, already-bound
//! variables are compared against their register (this is also how
//! repeated variables within one atom are filtered), and fresh variables
//! are bound into registers. Registers are a flat `Vec` indexed by *slot*;
//! the plan's slot table maps slots back to variables. Head emission is a
//! separate [`Projection`] compiled against the same slot table.
//!
//! # Planning
//!
//! [`Plan::compile`] orders atoms greedily: at each step it picks the
//! remaining atom with the smallest estimated candidate count given the
//! variables bound so far, using the statistics of an instance when one is
//! supplied — relation cardinalities, exact index-bucket sizes for
//! constants, and cardinality ÷ distinct-values selectivities for bound
//! variables. The estimate fixes both the atom order and the access path
//! at compile time, so a plan can be cached and re-run against evolving
//! instances (the order may drift from optimal as data changes, but
//! correctness never depends on the statistics).
//!
//! # Execution modes
//!
//! [`Plan::run`] enumerates satisfying assignments and calls a visitor
//! that may stop the search (`false`), which gives the three modes the
//! callers need: enumerate-all (evaluation, homomorphism listing),
//! first-match via [`Plan::first_match`] (`has_answer`, containment), and
//! delta execution — compile the body *without* the pivot atom, declare
//! the pivot's variables `bound`, and seed each run from a delta fact
//! (semi-naive Datalog; see `magik-exec`'s `CompiledBody`). Every seeded
//! mode builds its seed with [`match_ground`]: the head against a target
//! tuple, a pivot atom against a delta fact, or a rule head against a
//! fact whose support DRed checks.
//!
//! Runs fill an [`ExecStats`] with probe/scan/backtrack counters, both in
//! aggregate and per op, feeding the server's metrics endpoint and the
//! CLI's `explain-plan` output.

use std::collections::{BTreeSet, HashMap};

use crate::atom::{Atom, Pred};
use crate::instance::{Instance, RowRef};
use crate::term::{Cst, Term, Var};

/// How a [`PlanOp`] enumerates candidate tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Scan every tuple of the relation.
    Scan,
    /// Probe the per-column hash index of one column with a key that is
    /// known when the op runs.
    Probe {
        /// The probed column.
        col: usize,
        /// The probe key.
        key: Key,
    },
}

/// The lookup key of an [`Access::Probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// A constant known at plan time.
    Const(Cst),
    /// The value of a register bound by an earlier op or by the seed.
    Slot(usize),
}

/// Per-column work applied to a candidate tuple, in column order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColAction {
    /// The column must equal a plan-time constant.
    CheckConst {
        /// The checked column.
        col: usize,
        /// The required value.
        value: Cst,
    },
    /// The column must equal an already-bound register — a join on a
    /// previously bound variable, or the filter for a variable repeated
    /// within the atom (whose first occurrence is a [`ColAction::Bind`]
    /// at a smaller column).
    CheckSlot {
        /// The checked column.
        col: usize,
        /// The register holding the required value.
        slot: usize,
    },
    /// The column's value binds a fresh register.
    Bind {
        /// The bound column.
        col: usize,
        /// The register receiving the value.
        slot: usize,
    },
}

/// One step of a [`Plan`]: match one body atom and extend the current
/// partial assignment.
#[derive(Debug, Clone)]
pub struct PlanOp {
    /// Index of the atom in the source body (plans reorder atoms; explain
    /// output maps ops back to the query text through this).
    pub atom: usize,
    /// The predicate matched by this op.
    pub pred: Pred,
    /// Candidate enumeration strategy.
    pub access: Access,
    /// Checks and bindings applied to each candidate, in column order.
    pub actions: Vec<ColAction>,
    /// The planner's candidate estimate when the op was placed (explain
    /// output only; execution never consults it).
    pub est: usize,
}

/// A compiled evaluation plan for one conjunctive body.
///
/// Compile with [`Plan::compile`], execute with [`Plan::run`] /
/// [`Plan::first_match`]. A plan is immutable and self-contained: it can
/// be cached, shared across threads, and re-run against any instance.
#[derive(Debug, Clone)]
pub struct Plan {
    ops: Vec<PlanOp>,
    /// Slot table: `slots[s]` is the variable held by register `s`. The
    /// first `seed_slots` entries are the declared-bound variables.
    slots: Vec<Var>,
    seed_slots: usize,
}

/// Aggregate and per-op execution counters filled by [`Plan::run`].
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Index probes issued.
    pub probes: u64,
    /// Candidate tuples examined.
    pub scanned: u64,
    /// Candidate tuples rejected by a check (forcing a backtrack).
    pub backtracks: u64,
    /// Complete rows produced (visitor invocations).
    pub rows: u64,
    /// Batch-plan executions (see [`crate::batch::BatchPlan::run`]).
    pub batches: u64,
    /// Rows materialized into intermediate batches by batch ops.
    pub batch_rows: u64,
    /// Batch join ops executed with the nested-loop (index probe) operator.
    pub join_nested: u64,
    /// Batch join ops executed with the hash-join operator.
    pub join_hash: u64,
    /// Batch join ops executed with the merge-join operator.
    pub join_merge: u64,
    /// Per-op counters, parallel to [`Plan::ops`].
    pub per_op: Vec<OpCounters>,
}

/// Counters for one [`PlanOp`] within an [`ExecStats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCounters {
    /// Times the op was entered.
    pub entered: u64,
    /// Index probes issued by the op.
    pub probes: u64,
    /// Candidate tuples the op examined.
    pub scanned: u64,
    /// Candidates that passed every check and advanced the search.
    pub matched: u64,
}

impl ExecStats {
    pub(crate) fn ensure_ops(&mut self, n: usize) {
        if self.per_op.len() < n {
            self.per_op.resize(n, OpCounters::default());
        }
    }

    /// Adds the aggregate counters of `other` into `self` (per-op
    /// counters are merged positionally).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.probes += other.probes;
        self.scanned += other.scanned;
        self.backtracks += other.backtracks;
        self.rows += other.rows;
        self.batches += other.batches;
        self.batch_rows += other.batch_rows;
        self.join_nested += other.join_nested;
        self.join_hash += other.join_hash;
        self.join_merge += other.join_merge;
        self.ensure_ops(other.per_op.len());
        for (mine, theirs) in self.per_op.iter_mut().zip(other.per_op.iter()) {
            mine.entered += theirs.entered;
            mine.probes += theirs.probes;
            mine.scanned += theirs.scanned;
            mine.matched += theirs.matched;
        }
    }
}

/// A complete satisfying assignment, viewed through its plan's slot
/// table. Handed to the visitor of [`Plan::run`]; every slot is bound.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    slots: &'a [Var],
    regs: &'a [Option<Cst>],
}

impl Row<'_> {
    /// The value bound to `var`, or `None` if the plan has no slot for it.
    pub fn get(&self, var: Var) -> Option<Cst> {
        self.slots
            .iter()
            .position(|&v| v == var)
            .and_then(|s| self.regs[s])
    }

    /// The value in register `slot` (every slot of a complete row is
    /// bound).
    pub fn slot(&self, slot: usize) -> Cst {
        self.regs[slot].expect("complete rows bind every slot")
    }

    /// Iterates over `(variable, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, Cst)> + '_ {
        self.slots
            .iter()
            .zip(self.regs.iter())
            .filter_map(|(&v, &c)| c.map(|c| (v, c)))
    }
}

/// Cost estimate for placing `atom` next, given the variables that will
/// be bound at that point. Returns the estimated candidate count and the
/// chosen access path.
fn estimate(
    atom: &Atom,
    slot_of: &HashMap<Var, usize>,
    stats: Option<&Instance>,
) -> (usize, Access) {
    // Without statistics, fall back to a shape heuristic: constants are
    // the most selective, bound-variable probes next, scans last; the
    // magnitudes only matter relative to each other.
    let Some(db) = stats else {
        let mut cost = 1_000 + atom.args.len();
        let mut access = Access::Scan;
        for (col, &t) in atom.args.iter().enumerate() {
            let candidate = match t {
                Term::Cst(c) => Some((1, Key::Const(c))),
                Term::Var(v) => slot_of.get(&v).map(|&s| (10, Key::Slot(s))),
            };
            if let Some((est, key)) = candidate {
                if est < cost {
                    cost = est;
                    access = Access::Probe { col, key };
                }
            }
        }
        return (cost, access);
    };
    let Some(rel) = db.relation(atom.pred) else {
        // Empty relation: the cheapest possible op — it terminates the
        // whole branch immediately.
        return (0, Access::Scan);
    };
    let mut cost = rel.len();
    let mut access = Access::Scan;
    for (col, &t) in atom.args.iter().enumerate() {
        let candidate = match t {
            // Constants have exact bucket sizes at plan time.
            Term::Cst(c) => Some((rel.matches(col, c).len(), Key::Const(c))),
            // Bound variables get the uniform selectivity estimate
            // |R| / distinct(col).
            Term::Var(v) => slot_of.get(&v).map(|&s| {
                let distinct = rel.distinct_in_col(col).max(1);
                (rel.len().div_ceil(distinct), Key::Slot(s))
            }),
        };
        if let Some((est, key)) = candidate {
            if est < cost {
                cost = est;
                access = Access::Probe { col, key };
            }
        }
    }
    (cost, access)
}

impl Plan {
    /// Compiles a plan for `body`.
    ///
    /// `bound` declares variables that will already be bound when the plan
    /// runs (the seed): head variables for `has_answer`-style targeted
    /// matching, or a pivot atom's variables for delta execution. Every
    /// bound variable gets a seed slot even when the body never mentions
    /// it, so projections over seed variables always compile. `stats`
    /// supplies the instance whose cardinalities and index selectivities
    /// drive atom ordering; without it a shape heuristic is used. The
    /// statistics influence only performance, never results.
    pub fn compile(body: &[Atom], bound: &BTreeSet<Var>, stats: Option<&Instance>) -> Plan {
        let mut slots: Vec<Var> = bound.iter().copied().collect();
        let seed_slots = slots.len();
        let mut slot_of: HashMap<Var, usize> =
            slots.iter().enumerate().map(|(s, &v)| (v, s)).collect();
        let mut remaining: Vec<usize> = (0..body.len()).collect();
        let mut ops = Vec::with_capacity(body.len());
        while !remaining.is_empty() {
            // Greedy: place the cheapest remaining atom next.
            let mut best = (usize::MAX, Access::Scan, 0);
            for (pos, &ai) in remaining.iter().enumerate() {
                let (cost, access) = estimate(&body[ai], &slot_of, stats);
                if cost < best.0 {
                    best = (cost, access, pos);
                }
            }
            let (est, access, pos) = best;
            let ai = remaining.remove(pos);
            let atom = &body[ai];
            let probe_col = match access {
                Access::Probe { col, .. } => Some(col),
                Access::Scan => None,
            };
            let mut actions = Vec::with_capacity(atom.args.len());
            for (col, &t) in atom.args.iter().enumerate() {
                match t {
                    Term::Cst(value) => {
                        // The probe already guarantees the probed column.
                        if probe_col != Some(col) {
                            actions.push(ColAction::CheckConst { col, value });
                        }
                    }
                    Term::Var(v) => match slot_of.get(&v) {
                        Some(&slot) => {
                            let redundant = probe_col == Some(col)
                                && matches!(access, Access::Probe { key: Key::Slot(k), .. } if k == slot);
                            if !redundant {
                                actions.push(ColAction::CheckSlot { col, slot });
                            }
                        }
                        None => {
                            let slot = slots.len();
                            slots.push(v);
                            slot_of.insert(v, slot);
                            actions.push(ColAction::Bind { col, slot });
                        }
                    },
                }
            }
            ops.push(PlanOp {
                atom: ai,
                pred: atom.pred,
                access,
                actions,
                est,
            });
        }
        Plan {
            ops,
            slots,
            seed_slots,
        }
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// The slot table: `slots()[s]` is the variable register `s` holds.
    pub fn slots(&self) -> &[Var] {
        &self.slots
    }

    /// How many leading slots are seed (declared-bound) slots.
    pub fn seed_slots(&self) -> usize {
        self.seed_slots
    }

    /// The register holding `var`, if the plan binds it.
    pub fn slot_of(&self, var: Var) -> Option<usize> {
        self.slots.iter().position(|&v| v == var)
    }

    /// Enumerates satisfying assignments of the body over `db` extending
    /// `seed`, calling `visit` for each complete row; `visit` returns
    /// `false` to stop the search. Returns `false` iff stopped early.
    ///
    /// Every variable declared `bound` at compile time must be covered by
    /// `seed`; seed entries for variables without a slot are ignored.
    pub fn run(
        &self,
        db: &Instance,
        seed: &[(Var, Cst)],
        stats: &mut ExecStats,
        visit: &mut dyn FnMut(Row<'_>) -> bool,
    ) -> bool {
        stats.ensure_ops(self.ops.len());
        let mut regs: Vec<Option<Cst>> = vec![None; self.slots.len()];
        for &(v, c) in seed {
            if let Some(s) = self.slot_of(v) {
                regs[s] = Some(c);
            }
        }
        debug_assert!(
            regs[..self.seed_slots].iter().all(Option::is_some),
            "every declared-bound variable must be seeded"
        );
        self.step(0, db, &mut regs, stats, visit)
    }

    /// `true` iff the body has at least one satisfying assignment over
    /// `db` extending `seed` (first-match mode: stops at the first row).
    pub fn first_match(&self, db: &Instance, seed: &[(Var, Cst)], stats: &mut ExecStats) -> bool {
        let mut found = false;
        self.run(db, seed, stats, &mut |_| {
            found = true;
            false
        });
        found
    }

    fn step(
        &self,
        i: usize,
        db: &Instance,
        regs: &mut Vec<Option<Cst>>,
        stats: &mut ExecStats,
        visit: &mut dyn FnMut(Row<'_>) -> bool,
    ) -> bool {
        let Some(op) = self.ops.get(i) else {
            stats.rows += 1;
            return visit(Row {
                slots: &self.slots,
                regs,
            });
        };
        stats.per_op[i].entered += 1;
        let Some(rel) = db.relation(op.pred) else {
            return true;
        };
        let mut keep_going = true;
        match op.access {
            Access::Probe { col, key } => {
                stats.probes += 1;
                stats.per_op[i].probes += 1;
                let value = match key {
                    Key::Const(c) => c,
                    Key::Slot(s) => regs[s].expect("probe slots are bound before the op runs"),
                };
                for pos in rel.matches(col, value) {
                    if !self.try_row(i, op, rel.row(pos), db, regs, stats, visit) {
                        keep_going = false;
                        break;
                    }
                }
            }
            Access::Scan => {
                for row in rel.iter() {
                    if !self.try_row(i, op, row, db, regs, stats, visit) {
                        keep_going = false;
                        break;
                    }
                }
            }
        }
        keep_going
    }

    #[allow(clippy::too_many_arguments)]
    fn try_row(
        &self,
        i: usize,
        op: &PlanOp,
        row: RowRef<'_>,
        db: &Instance,
        regs: &mut Vec<Option<Cst>>,
        stats: &mut ExecStats,
        visit: &mut dyn FnMut(Row<'_>) -> bool,
    ) -> bool {
        stats.scanned += 1;
        stats.per_op[i].scanned += 1;
        let mut ok = true;
        for &action in &op.actions {
            match action {
                ColAction::CheckConst { col, value } => {
                    if row.get(col) != value {
                        ok = false;
                        break;
                    }
                }
                ColAction::CheckSlot { col, slot } => {
                    if regs[slot] != Some(row.get(col)) {
                        ok = false;
                        break;
                    }
                }
                ColAction::Bind { col, slot } => regs[slot] = Some(row.get(col)),
            }
        }
        let keep_going = if ok {
            stats.per_op[i].matched += 1;
            self.step(i + 1, db, regs, stats, visit)
        } else {
            stats.backtracks += 1;
            true
        };
        // Every Bind slot of this op was unbound at op entry (the planner
        // allocates a fresh slot per first occurrence), so resetting them
        // restores the entry state even when a later check aborted the
        // action list early.
        for &action in &op.actions {
            if let ColAction::Bind { slot, .. } = action {
                regs[slot] = None;
            }
        }
        keep_going
    }
}

/// Matches a ground tuple against a term pattern: the seed of a plan run
/// whose pattern variables are declared bound. Returns the bindings the
/// match induces, in first-occurrence order, or `None` if the lengths
/// differ, a constant disagrees, or a repeated variable would need two
/// values.
pub fn match_ground(terms: &[Term], values: &[Cst]) -> Option<Vec<(Var, Cst)>> {
    if terms.len() != values.len() {
        return None;
    }
    let mut seed: Vec<(Var, Cst)> = Vec::with_capacity(values.len());
    for (&t, &c) in terms.iter().zip(values) {
        match t {
            Term::Cst(tc) => {
                if tc != c {
                    return None;
                }
            }
            Term::Var(v) => match seed.iter().find(|&&(sv, _)| sv == v) {
                Some(&(_, bound)) => {
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

/// A tuple template over a plan's registers: the compiled form of a head
/// (or any atom argument list) whose variables the plan binds.
#[derive(Debug, Clone)]
pub struct Projection {
    items: Vec<ProjItem>,
}

#[derive(Debug, Clone, Copy)]
enum ProjItem {
    Const(Cst),
    Slot(usize),
}

impl Projection {
    /// Compiles `terms` against the slot table of `plan`. Fails with the
    /// offending variable if one has no slot (an unsafe head).
    pub fn compile(terms: &[Term], plan: &Plan) -> Result<Projection, Var> {
        let items = terms
            .iter()
            .map(|&t| match t {
                Term::Cst(c) => Ok(ProjItem::Const(c)),
                Term::Var(v) => plan.slot_of(v).map(ProjItem::Slot).ok_or(v),
            })
            .collect::<Result<_, _>>()?;
        Ok(Projection { items })
    }

    /// The number of projected terms.
    pub fn arity(&self) -> usize {
        self.items.len()
    }

    /// Materializes the projected tuple from a complete row.
    pub fn emit(&self, row: Row<'_>) -> Vec<Cst> {
        self.items
            .iter()
            .map(|&item| match item {
                ProjItem::Const(c) => c,
                ProjItem::Slot(s) => row.slot(s),
            })
            .collect()
    }

    /// Materializes the projected tuple with slot values supplied by
    /// `get` — the batch executor's emission path, where a "row" is one
    /// index into a [`crate::batch::Batch`]'s columns.
    pub fn emit_with(&self, get: &mut dyn FnMut(usize) -> Cst) -> Vec<Cst> {
        self.items
            .iter()
            .map(|&item| match item {
                ProjItem::Const(c) => c,
                ProjItem::Slot(s) => get(s),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Fact;
    use crate::instance::Instance;
    use crate::Vocabulary;

    fn fact(v: &mut Vocabulary, p: Pred, args: &[&str]) -> Fact {
        Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
    }

    fn collect_rows(plan: &Plan, db: &Instance) -> Vec<Vec<(Var, Cst)>> {
        let mut out = Vec::new();
        let mut stats = ExecStats::default();
        plan.run(db, &[], &mut stats, &mut |row| {
            out.push(row.iter().collect());
            true
        });
        out
    }

    #[test]
    fn constant_only_atom_compiles_to_probe() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["a", "c"]));
        let body = vec![Atom::new(
            p,
            vec![Term::Cst(v.cst("a")), Term::Cst(v.cst("b"))],
        )];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        assert!(matches!(
            plan.ops()[0].access,
            Access::Probe {
                key: Key::Const(_),
                ..
            }
        ));
        assert!(plan.slots().is_empty());
        assert_eq!(collect_rows(&plan, &db).len(), 1);
        // The other constant is checked, not probed twice.
        let mut stats = ExecStats::default();
        assert!(plan.first_match(&db, &[], &mut stats));
        assert_eq!(stats.probes, 1);
    }

    #[test]
    fn repeated_variable_filters_within_one_atom() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "a"]));
        db.insert(fact(&mut v, p, &["a", "b"]));
        let x = v.var("X");
        let body = vec![Atom::new(p, vec![Term::Var(x), Term::Var(x)])];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        // One Bind then one CheckSlot (the FilterRepeatedVar op).
        assert!(plan.ops()[0]
            .actions
            .iter()
            .any(|a| matches!(a, ColAction::CheckSlot { .. })));
        let rows = collect_rows(&plan, &db);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0], vec![(x, v.cst("a"))]);
    }

    #[test]
    fn cartesian_product_enumerates_all_pairs() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let r = v.pred("r", 1);
        let mut db = Instance::new();
        for n in ["a", "b", "c"] {
            db.insert(fact(&mut v, p, &[n]));
        }
        for n in ["x", "y"] {
            db.insert(fact(&mut v, r, &[n]));
        }
        let (xv, yv) = (v.var("X"), v.var("Y"));
        let body = vec![
            Atom::new(p, vec![Term::Var(xv)]),
            Atom::new(r, vec![Term::Var(yv)]),
        ];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        // No shared variables: both ops are scans.
        assert!(plan.ops().iter().all(|op| op.access == Access::Scan));
        assert_eq!(collect_rows(&plan, &db).len(), 6);
    }

    #[test]
    fn empty_relation_is_planned_first_and_kills_the_branch() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let missing = v.pred("missing", 1);
        let mut db = Instance::new();
        for i in 0..50 {
            db.insert(fact(&mut v, p, &[&format!("c{i}")]));
        }
        let x = v.var("X");
        let body = vec![
            Atom::new(p, vec![Term::Var(x)]),
            Atom::new(missing, vec![Term::Var(x)]),
        ];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        // The empty relation goes first, so nothing is ever scanned.
        assert_eq!(plan.ops()[0].pred, missing);
        let mut stats = ExecStats::default();
        assert!(!plan.first_match(&db, &[], &mut stats));
        assert_eq!(stats.scanned, 0);
    }

    #[test]
    fn empty_body_visits_exactly_once() {
        let v = Vocabulary::new();
        let plan = Plan::compile(&[], &BTreeSet::new(), None);
        let db = Instance::new();
        let mut stats = ExecStats::default();
        let mut visits = 0;
        plan.run(&db, &[], &mut stats, &mut |_| {
            visits += 1;
            true
        });
        assert_eq!(visits, 1);
        assert_eq!(stats.rows, 1);
        drop(v);
    }

    #[test]
    fn seed_variables_reach_projections_even_when_unused_in_body() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a"]));
        let (x, y) = (v.var("X"), v.var("Y"));
        // Body mentions only X; Y is a seed (pivot) variable.
        let body = vec![Atom::new(p, vec![Term::Var(x)])];
        let bound = BTreeSet::from([y]);
        let plan = Plan::compile(&body, &bound, Some(&db));
        let proj = Projection::compile(&[Term::Var(y), Term::Var(x)], &plan).unwrap();
        let b = v.cst("b");
        let mut stats = ExecStats::default();
        let mut tuples = Vec::new();
        plan.run(&db, &[(y, b)], &mut stats, &mut |row| {
            tuples.push(proj.emit(row));
            true
        });
        assert_eq!(tuples, vec![vec![b, v.cst("a")]]);
    }

    #[test]
    fn bound_variable_probe_uses_the_index() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")] {
            db.insert(fact(&mut v, e, &[a, b]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        // The second op joins on the shared variable via an index probe.
        assert!(matches!(
            plan.ops()[1].access,
            Access::Probe {
                key: Key::Slot(_),
                ..
            }
        ));
        assert_eq!(collect_rows(&plan, &db).len(), 2); // a->b->c, b->c->d
    }

    #[test]
    fn plans_run_identically_on_an_instance_and_its_clone() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a")] {
            db.insert(fact(&mut v, e, &[a, b]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let snap = db.clone();
        // Compile against either copy (the clone carries the stats).
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&snap));
        let mut on_db = Vec::new();
        plan.run(&db, &[], &mut ExecStats::default(), &mut |row| {
            on_db.push(row.iter().collect::<Vec<_>>());
            true
        });
        let mut on_snap = Vec::new();
        plan.run(&snap, &[], &mut ExecStats::default(), &mut |row| {
            on_snap.push(row.iter().collect::<Vec<_>>());
            true
        });
        assert_eq!(on_db, on_snap);
        // Writes after the clone are seen by the instance run only.
        db.insert(fact(&mut v, e, &["c", "d"]));
        let count = |s: &mut Vec<()>, _row: Row<'_>| {
            s.push(());
            true
        };
        let mut later = Vec::new();
        plan.run(&db, &[], &mut ExecStats::default(), &mut |r| {
            count(&mut later, r)
        });
        let mut frozen = Vec::new();
        plan.run(&snap, &[], &mut ExecStats::default(), &mut |r| {
            count(&mut frozen, r)
        });
        assert!(later.len() > frozen.len());
        assert_eq!(frozen.len(), on_snap.len());
    }

    #[test]
    fn match_ground_handles_constants_and_repeats() {
        let mut v = Vocabulary::new();
        let x = v.var("X");
        let (a, b) = (v.cst("a"), v.cst("b"));
        let terms = [Term::Var(x), Term::Cst(a), Term::Var(x)];
        assert_eq!(match_ground(&terms, &[b, a, b]), Some(vec![(x, b)]));
        assert_eq!(match_ground(&terms, &[b, b, b]), None); // constant mismatch
        assert_eq!(match_ground(&terms, &[a, a, b]), None); // repeat mismatch
        assert_eq!(match_ground(&terms, &[a, a]), None); // length mismatch
        assert_eq!(match_ground(&[], &[]), Some(Vec::new()));
    }

    #[test]
    fn first_match_stops_early() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        for i in 0..100 {
            db.insert(fact(&mut v, p, &[&format!("c{i}")]));
        }
        let x = v.var("X");
        let body = vec![Atom::new(p, vec![Term::Var(x)])];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        let mut stats = ExecStats::default();
        assert!(plan.first_match(&db, &[], &mut stats));
        assert_eq!(stats.scanned, 1);
        assert_eq!(stats.rows, 1);
    }

    #[test]
    fn stats_counters_are_consistent() {
        let mut v = Vocabulary::new();
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c")] {
            db.insert(fact(&mut v, e, &[a, b]));
        }
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let body = vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        let mut stats = ExecStats::default();
        plan.run(&db, &[], &mut stats, &mut |_| true);
        let per_op_scanned: u64 = stats.per_op.iter().map(|c| c.scanned).sum();
        assert_eq!(per_op_scanned, stats.scanned);
        let matched: u64 = stats.per_op.iter().map(|c| c.matched).sum();
        assert_eq!(stats.scanned - matched, stats.backtracks);
        assert_eq!(stats.rows, 1); // only a->b->c
    }
}
