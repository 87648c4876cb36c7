//! Vectorized batch execution of compiled plans.
//!
//! The tuple-at-a-time executor in [`crate::exec`] pays per-tuple dispatch
//! at every search node: one recursive call, one register write, and one
//! index probe per candidate tuple. This module recompiles the same
//! [`Plan`] IR into a [`BatchPlan`] that processes a whole **batch** of
//! partial assignments per operator:
//!
//! * A batch is column-major ([`Batch`]): one vector per plan slot, so an
//!   operator reads its join keys out of contiguous columns and output
//!   columns are built by sequential gathers.
//! * Constant filters (and repeated-variable filters, which compare two
//!   columns of the same relation) are evaluated **once per batch** into a
//!   selection vector of candidate positions — the vectorized scan.
//! * Joins against already-bound slots run under one of three operators,
//!   chosen per op at compile time by a cost model over the same
//!   statistics the planner uses (relation cardinality, exact const
//!   index-bucket sizes, distinct-value counts): [`JoinStrategy::NestedLoop`]
//!   probes the per-column hash index once per input row (the batched
//!   analogue of the tuple executor), [`JoinStrategy::HashJoin`] builds a
//!   hash table over the filtered relation once per batch and probes it
//!   per row, and [`JoinStrategy::MergeJoin`] sorts both sides and merges —
//!   cheapest for duplicate-heavy keys with large outputs.
//!
//! Batch execution enumerates **exactly** the assignments the tuple
//! executor enumerates (proptests in `magik-exec` assert equivalence
//! against both the tuple executor and the preserved seed oracle); only
//! the order of rows within a batch may differ, which no caller observes
//! because every consumer dedupes into sets or instances. The trade-off is
//! materialization: intermediate matches are held in memory per op, so
//! first-match-style early exits (`has_answer`, containment, DRed support
//! checks) stay on the tuple executor.

use crate::atom::Pred;
use crate::exec::{Access, ColAction, ExecStats, Key, Plan};
use crate::instance::{Instance, Relation};
use crate::term::{Cst, Var};

/// A column-major batch of partial assignments over a plan's slots.
///
/// `cols[s]` holds the value of slot `s` for every row — empty until some
/// op (or the seed) binds the slot. `len` is authoritative: a batch with
/// no bound slots still has a row count (the unit seed of a full
/// evaluation is one row binding nothing).
#[derive(Debug, Clone)]
pub struct Batch {
    cols: Vec<Vec<Cst>>,
    len: usize,
}

impl Batch {
    /// An empty batch (no rows) over `slots` slots.
    pub fn empty(slots: usize) -> Batch {
        Batch {
            cols: vec![Vec::new(); slots],
            len: 0,
        }
    }

    /// The seed batch for one run: one row per seed, with the plan's
    /// declared-bound slots filled from the seed pairs (entries for
    /// variables without a slot are ignored, exactly like [`Plan::run`]).
    ///
    /// For a full evaluation (no bound variables) pass one empty seed:
    /// the unit batch with a single all-unbound row.
    pub fn from_seeds(plan: &Plan, seeds: &[Vec<(Var, Cst)>]) -> Batch {
        let slots = plan.slots();
        let mut cols = vec![Vec::new(); slots.len()];
        for (s, col) in cols.iter_mut().enumerate().take(plan.seed_slots()) {
            col.reserve(seeds.len());
            let var = slots[s];
            for seed in seeds {
                let value = seed
                    .iter()
                    .find(|&&(v, _)| v == var)
                    .map(|&(_, c)| c)
                    .expect("every declared-bound variable must be seeded");
                col.push(value);
            }
        }
        Batch {
            cols,
            len: seeds.len(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of slot `slot` in row `row` (the slot must be bound).
    pub fn value(&self, slot: usize, row: usize) -> Cst {
        self.cols[slot][row]
    }

    /// The column of slot `slot` (empty if unbound).
    pub fn col(&self, slot: usize) -> &[Cst] {
        &self.cols[slot]
    }
}

/// The join operator a [`BatchPlan`] op executes with, chosen at compile
/// time by the cost model (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinStrategy {
    /// Probe the relation's per-column hash index once per input row —
    /// the batched analogue of the tuple executor's probe chain. Wins for
    /// small batches.
    NestedLoop,
    /// Build a hash table over the (const-filtered) relation once per
    /// batch, probe it per input row. Wins for large batches against
    /// selective keys.
    HashJoin,
    /// Sort both sides on the join key and merge. Wins for
    /// duplicate-heavy keys whose output is too large for per-probe
    /// bucket scans to amortize.
    MergeJoin,
}

impl JoinStrategy {
    /// Stable lower-case name (explain output, metrics).
    pub fn name(self) -> &'static str {
        match self {
            JoinStrategy::NestedLoop => "nested_loop",
            JoinStrategy::HashJoin => "hash_join",
            JoinStrategy::MergeJoin => "merge_join",
        }
    }
}

/// One batch operator: the compile-time classification of a [`Plan`] op's
/// actions plus the chosen join strategy.
#[derive(Debug, Clone)]
pub struct BatchOp {
    /// Index of the source atom in the body (same as the plan op's).
    pub atom: usize,
    /// The matched predicate.
    pub pred: Pred,
    /// The *nominal* join operator: the cost model's choice under the
    /// compile-time batch estimate (what `explain-plan` and the server's
    /// plan introspection report). Execution re-runs the same cost model
    /// against the **actual** batch size and live relation — delta
    /// batches vary round to round, so the runtime choice can differ.
    /// Meaningful only when `join_keys` is non-empty; ops without join
    /// keys enumerate the candidate selection per row (a filtered cross
    /// product).
    pub strategy: JoinStrategy,
    /// The planner's estimated input batch size when the nominal strategy
    /// was chosen (explain output only).
    pub est_rows: usize,
    /// A forced operator (`BatchPlan::with_strategy`): overrides the
    /// runtime cost-model choice on every join op.
    forced: Option<JoinStrategy>,
    /// Constant equality filters `(col, value)` — folded into the
    /// selection vector once per batch.
    const_filters: Vec<(usize, Cst)>,
    /// Repeated-variable filters `(col, col')`: both columns of a
    /// candidate tuple must agree — also folded into the selection vector.
    self_eq: Vec<(usize, usize)>,
    /// Join conditions `(col, slot)`: the candidate's column must equal
    /// the input row's already-bound slot.
    join_keys: Vec<(usize, usize)>,
    /// Fresh bindings `(col, slot)` this op adds.
    binds: Vec<(usize, usize)>,
    /// Slots bound before this op runs (seed slots + earlier binds) —
    /// the columns carried forward into the output batch.
    carry: Vec<usize>,
    /// For [`JoinStrategy::NestedLoop`]: the join column whose index is
    /// probed per input row (the one with the most distinct values).
    probe_col: usize,
}

impl BatchOp {
    /// The join-key columns and the slots they compare against.
    pub fn join_keys(&self) -> &[(usize, usize)] {
        &self.join_keys
    }
}

/// A plan recompiled for batch execution: the same op order and slot
/// table as the source [`Plan`], with each op's actions classified into
/// batch-friendly stages and a join operator chosen per op.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    ops: Vec<BatchOp>,
    slots: usize,
}

/// `n * log2(n)` with a floor of `n` (sort-cost sketch).
fn n_log_n(n: usize) -> usize {
    let bits = usize::BITS - n.leading_zeros();
    n.saturating_mul((bits as usize).max(1))
}

impl BatchPlan {
    /// Compiles `plan` for batch execution.
    ///
    /// `stats` supplies the statistics driving the per-op join-strategy
    /// choice (same source as [`Plan::compile`]); without it small-batch
    /// defaults are used. `expected_rows` is the anticipated seed batch
    /// size — `1` for full evaluation, the nominal delta-batch size for
    /// semi-naive delta plans. The choice affects only speed, never
    /// results.
    pub fn compile(plan: &Plan, stats: Option<&Instance>, expected_rows: usize) -> BatchPlan {
        Self::compile_inner(plan, stats, expected_rows, None)
    }

    /// [`BatchPlan::compile`] with every join op forced to `strategy` —
    /// the equivalence-test hook.
    pub fn with_strategy(plan: &Plan, strategy: JoinStrategy) -> BatchPlan {
        Self::compile_inner(plan, None, 1, Some(strategy))
    }

    fn compile_inner(
        plan: &Plan,
        stats: Option<&Instance>,
        expected_rows: usize,
        force: Option<JoinStrategy>,
    ) -> BatchPlan {
        let mut bound: Vec<usize> = (0..plan.seed_slots()).collect();
        let mut b_est = expected_rows.max(1);
        let mut ops = Vec::with_capacity(plan.ops().len());
        for op in plan.ops() {
            let mut const_filters = Vec::new();
            let mut self_eq = Vec::new();
            let mut join_keys = Vec::new();
            let mut binds = Vec::new();
            // The probe access is a join condition or const filter the
            // tuple planner elided from the action list; restore it.
            if let Access::Probe { col, key } = op.access {
                match key {
                    Key::Const(value) => const_filters.push((col, value)),
                    Key::Slot(slot) => join_keys.push((col, slot)),
                }
            }
            for &action in &op.actions {
                match action {
                    ColAction::CheckConst { col, value } => const_filters.push((col, value)),
                    ColAction::CheckSlot { col, slot } => {
                        if bound.contains(&slot) {
                            join_keys.push((col, slot));
                        } else {
                            // Bound within this op: a repeated variable.
                            // Its first occurrence is a Bind at an earlier
                            // column of the same atom.
                            let first = binds
                                .iter()
                                .find(|&&(_, s)| s == slot)
                                .map(|&(c, _)| c)
                                .expect("repeated variables bind before they are checked");
                            self_eq.push((col, first));
                        }
                    }
                    ColAction::Bind { col, slot } => binds.push((col, slot)),
                }
            }
            let carry = bound.clone();
            let (strategy, est_rows, out_est) =
                choose_strategy(op.pred, &const_filters, &join_keys, b_est, stats, force);
            // Nested-loop probes go through the join column with the most
            // distinct values (smallest expected bucket).
            let probe_col = join_keys
                .iter()
                .map(|&(col, _)| col)
                .max_by_key(|&col| {
                    stats
                        .and_then(|db| db.relation(op.pred))
                        .map_or(0, |r| r.distinct_in_col(col))
                })
                .unwrap_or(0);
            for &(_, slot) in &binds {
                bound.push(slot);
            }
            ops.push(BatchOp {
                atom: op.atom,
                pred: op.pred,
                strategy,
                est_rows,
                forced: force,
                const_filters,
                self_eq,
                join_keys,
                binds,
                carry,
                probe_col,
            });
            b_est = out_est;
        }
        BatchPlan {
            ops,
            slots: plan.slots().len(),
        }
    }

    /// The batch ops, parallel to the source plan's ops.
    pub fn ops(&self) -> &[BatchOp] {
        &self.ops
    }

    /// Executes the plan over `db`, starting from `seed` (see
    /// [`Batch::from_seeds`]), and returns the batch of complete rows —
    /// every plan slot bound, one row per satisfying assignment (row
    /// order is unspecified; duplicates mirror the tuple executor's).
    pub fn run(&self, db: &Instance, seed: Batch, stats: &mut ExecStats) -> Batch {
        stats.ensure_ops(self.ops.len());
        stats.batches += 1;
        let mut batch = seed;
        for (i, op) in self.ops.iter().enumerate() {
            if batch.is_empty() {
                return Batch::empty(self.slots);
            }
            stats.per_op[i].entered += batch.len() as u64;
            let Some(rel) = db.relation(op.pred) else {
                return Batch::empty(self.slots);
            };
            let matches = op.execute(rel, &batch, i, stats);
            stats.per_op[i].matched += matches.len() as u64;
            stats.batch_rows += matches.len() as u64;
            batch = op.gather(rel, &batch, &matches, self.slots);
        }
        stats.rows += batch.len() as u64;
        batch
    }
}

/// Cost-model choice of the join operator for one op. Returns the chosen
/// strategy, the input-batch estimate it was chosen under, and the
/// estimated output batch size (the next op's input estimate).
fn choose_strategy(
    pred: Pred,
    const_filters: &[(usize, Cst)],
    join_keys: &[(usize, usize)],
    b_est: usize,
    stats: Option<&Instance>,
    force: Option<JoinStrategy>,
) -> (JoinStrategy, usize, usize) {
    let rel = stats.and_then(|db| db.relation(pred));
    let Some(rel) = rel else {
        // No statistics: small batches behave like the tuple executor,
        // large ones default to hash join. Output size is unknowable;
        // assume the batch neither grows nor shrinks.
        let default = if b_est <= 8 {
            JoinStrategy::NestedLoop
        } else {
            JoinStrategy::HashJoin
        };
        let strategy = force.unwrap_or(if join_keys.is_empty() {
            JoinStrategy::NestedLoop
        } else {
            default
        });
        return (strategy, b_est, b_est);
    };
    let (strategy, out) = choice_for(rel, const_filters, join_keys, b_est);
    (force.unwrap_or(strategy), b_est, out)
}

/// The cost model proper: the operator choice and output-size estimate for
/// one join against `rel` with an input batch of `b` rows. Shared by the
/// compile-time (nominal) choice and the per-batch runtime choice —
/// integer arithmetic over the relation's exact index statistics, cheap
/// enough to re-run on every batch.
fn choice_for(
    rel: &Relation,
    const_filters: &[(usize, Cst)],
    join_keys: &[(usize, usize)],
    b: usize,
) -> (JoinStrategy, usize) {
    const OUT_CAP: usize = 1 << 30;
    let n = rel.len();
    // Candidates surviving the const filters: exact bucket size for the
    // most selective filter (the planner's trick, reused).
    let n_cand = const_filters
        .iter()
        .map(|&(col, v)| rel.matches(col, v).len())
        .min()
        .unwrap_or(n);
    if join_keys.is_empty() {
        // Filtered cross product: no operator choice to make.
        let out = b.saturating_mul(n_cand.max(1)).min(OUT_CAP);
        return (JoinStrategy::NestedLoop, out);
    }
    // Uniform-selectivity output estimate: each join column divides the
    // candidate set by its distinct-value count.
    let mut per_row = n_cand;
    for &(col, _) in join_keys {
        per_row /= rel.distinct_in_col(col).max(1);
    }
    let per_row = per_row.max(1);
    let out = b.saturating_mul(per_row).min(OUT_CAP);
    // Best single-column index bucket for nested-loop probing.
    let d_best = join_keys
        .iter()
        .map(|&(col, _)| rel.distinct_in_col(col).max(1))
        .max()
        .unwrap_or(1);
    let bucket = n.div_ceil(d_best).max(1);
    let nested = b.saturating_mul(bucket);
    let hash = 4 * (n_cand + b) + 2 * out;
    let merge = n_log_n(n_cand) + n_log_n(b) + out;
    let strategy = if nested <= hash && nested <= merge {
        JoinStrategy::NestedLoop
    } else if hash <= merge {
        JoinStrategy::HashJoin
    } else {
        JoinStrategy::MergeJoin
    };
    (strategy, out)
}

impl BatchOp {
    /// The selection vector: positions of `rel` surviving the const and
    /// repeated-variable filters, computed once per batch. Uses the most
    /// selective const filter's index bucket when one exists.
    fn candidates(&self, rel: &Relation, i: usize, stats: &mut ExecStats) -> Vec<u32> {
        let verify = |pos: u32| -> bool {
            self.const_filters
                .iter()
                .all(|&(col, v)| rel.value(col, pos) == v)
                && self
                    .self_eq
                    .iter()
                    .all(|&(col, other)| rel.value(col, pos) == rel.value(other, pos))
        };
        let best = self
            .const_filters
            .iter()
            .map(|&(col, v)| rel.matches(col, v))
            .min_by_key(ExactSizeIterator::len);
        match best {
            Some(bucket) => {
                stats.probes += 1;
                stats.per_op[i].probes += 1;
                bucket.filter(|&p| verify(p)).collect()
            }
            None => rel
                .iter()
                .map(|row| row.pos())
                .filter(|&p| verify(p))
                .collect(),
        }
    }

    /// Runs the op over one input batch, returning the matched
    /// `(input row, relation position)` pairs.
    fn execute(
        &self,
        rel: &Relation,
        batch: &Batch,
        i: usize,
        stats: &mut ExecStats,
    ) -> Vec<(u32, u32)> {
        let rows = u32::try_from(batch.len()).expect("batch overflow");
        if self.join_keys.is_empty() {
            // Filtered cross product of the batch with the selection.
            let cand = self.candidates(rel, i, stats);
            stats.scanned += (batch.len() * cand.len()) as u64;
            stats.per_op[i].scanned += (batch.len() * cand.len()) as u64;
            let mut out = Vec::with_capacity(batch.len() * cand.len());
            for r in 0..rows {
                for &p in &cand {
                    out.push((r, p));
                }
            }
            return out;
        }
        // Re-run the cost model against the actual batch size and the
        // live relation (the nominal compile-time choice assumed an
        // estimated batch; delta batches vary per round).
        let strategy = self.forced.unwrap_or_else(|| {
            choice_for(rel, &self.const_filters, &self.join_keys, batch.len()).0
        });
        match strategy {
            JoinStrategy::NestedLoop => {
                stats.join_nested += 1;
                self.nested_loop(rel, batch, i, stats)
            }
            JoinStrategy::HashJoin => {
                stats.join_hash += 1;
                let cand = self.candidates(rel, i, stats);
                self.hash_join(rel, batch, &cand, i, stats)
            }
            JoinStrategy::MergeJoin => {
                stats.join_merge += 1;
                let cand = self.candidates(rel, i, stats);
                self.merge_join(rel, batch, &cand, i, stats)
            }
        }
    }

    /// Per-row index probes, verifying the remaining filters per
    /// candidate — the batched tuple executor.
    fn nested_loop(
        &self,
        rel: &Relation,
        batch: &Batch,
        i: usize,
        stats: &mut ExecStats,
    ) -> Vec<(u32, u32)> {
        let probe_slot = self
            .join_keys
            .iter()
            .find(|&&(col, _)| col == self.probe_col)
            .map(|&(_, slot)| slot)
            .expect("probe_col is a join column");
        // Residual checks beyond the probed column. When there are none —
        // the overwhelmingly common selective-index case — every bucket
        // entry matches and the inner loop is a straight extend.
        let residual: Vec<(usize, usize)> = self
            .join_keys
            .iter()
            .copied()
            .filter(|&(col, _)| col != self.probe_col)
            .collect();
        let exact = residual.is_empty() && self.const_filters.is_empty() && self.self_eq.is_empty();
        let keys = batch.col(probe_slot);
        let mut out = Vec::with_capacity(batch.len());
        let mut scanned = 0u64;
        for (r, &key) in keys.iter().enumerate() {
            let bucket = rel.matches(self.probe_col, key);
            scanned += bucket.len() as u64;
            let r = u32::try_from(r).expect("batch overflow");
            if exact {
                out.extend(bucket.map(|pos| (r, pos)));
                continue;
            }
            for pos in bucket {
                let ok = self
                    .const_filters
                    .iter()
                    .all(|&(col, v)| rel.value(col, pos) == v)
                    && self
                        .self_eq
                        .iter()
                        .all(|&(col, other)| rel.value(col, pos) == rel.value(other, pos))
                    && residual
                        .iter()
                        .all(|&(col, slot)| rel.value(col, pos) == batch.value(slot, r as usize));
                if ok {
                    out.push((r, pos));
                }
            }
        }
        stats.probes += batch.len() as u64;
        stats.per_op[i].probes += batch.len() as u64;
        stats.scanned += scanned;
        stats.per_op[i].scanned += scanned;
        out
    }

    /// Build a hash table over the candidates keyed on all join columns,
    /// probe it once per input row.
    fn hash_join(
        &self,
        rel: &Relation,
        batch: &Batch,
        cand: &[u32],
        i: usize,
        stats: &mut ExecStats,
    ) -> Vec<(u32, u32)> {
        // A chained hash table over the candidates, built without any
        // per-key allocation: `heads` maps a table slot to the first
        // candidate index in its chain, `next` links the rest. The table
        // is keyed on a cheap mix of the combined join key; probe hits
        // verify the actual column values, so hash (or slot) collisions
        // cost a comparison, never a wrong row.
        const EMPTY: u32 = u32::MAX;
        let key_hash = |values: &mut dyn Iterator<Item = Cst>| -> u64 {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for v in values {
                h = (h ^ v.bits())
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(31);
            }
            h
        };
        let cap = (cand.len().max(1) * 2).next_power_of_two();
        let mask = (cap - 1) as u64;
        let mut heads: Vec<u32> = vec![EMPTY; cap];
        let mut next: Vec<u32> = vec![EMPTY; cand.len()];
        for (idx, &pos) in cand.iter().enumerate() {
            let h = key_hash(&mut self.join_keys.iter().map(|&(col, _)| rel.value(col, pos)));
            let slot = (h & mask) as usize;
            next[idx] = heads[slot];
            heads[slot] = u32::try_from(idx).expect("relation overflow");
        }
        let mut out = Vec::with_capacity(batch.len());
        let mut scanned = 0u64;
        for r in 0..batch.len() {
            let h = key_hash(&mut self.join_keys.iter().map(|&(_, slot)| batch.value(slot, r)));
            let r32 = u32::try_from(r).expect("batch overflow");
            let mut idx = heads[(h & mask) as usize];
            while idx != EMPTY {
                let pos = cand[idx as usize];
                scanned += 1;
                let ok = self
                    .join_keys
                    .iter()
                    .all(|&(col, slot)| rel.value(col, pos) == batch.value(slot, r));
                if ok {
                    out.push((r32, pos));
                }
                idx = next[idx as usize];
            }
        }
        stats.probes += batch.len() as u64;
        stats.per_op[i].probes += batch.len() as u64;
        stats.scanned += scanned;
        stats.per_op[i].scanned += scanned;
        out
    }

    /// Sort both sides on the join key, merge equal-key groups.
    fn merge_join(
        &self,
        rel: &Relation,
        batch: &Batch,
        cand: &[u32],
        i: usize,
        stats: &mut ExecStats,
    ) -> Vec<(u32, u32)> {
        let build_key = |pos: u32| -> Vec<Cst> {
            self.join_keys
                .iter()
                .map(|&(col, _)| rel.value(col, pos))
                .collect()
        };
        let probe_key = |r: usize| -> Vec<Cst> {
            self.join_keys
                .iter()
                .map(|&(_, slot)| batch.value(slot, r))
                .collect()
        };
        let mut left: Vec<(Vec<Cst>, u32)> = (0..batch.len())
            .map(|r| (probe_key(r), u32::try_from(r).expect("batch overflow")))
            .collect();
        let mut right: Vec<(Vec<Cst>, u32)> = cand.iter().map(|&p| (build_key(p), p)).collect();
        left.sort();
        right.sort();
        let mut out = Vec::new();
        let (mut li, mut ri) = (0, 0);
        while li < left.len() && ri < right.len() {
            match left[li].0.cmp(&right[ri].0) {
                std::cmp::Ordering::Less => li += 1,
                std::cmp::Ordering::Greater => ri += 1,
                std::cmp::Ordering::Equal => {
                    // Group bounds on both sides.
                    let le = (li..left.len())
                        .take_while(|&j| left[j].0 == left[li].0)
                        .last()
                        .unwrap()
                        + 1;
                    let re = (ri..right.len())
                        .take_while(|&j| right[j].0 == right[ri].0)
                        .last()
                        .unwrap()
                        + 1;
                    let pairs = ((le - li) * (re - ri)) as u64;
                    stats.scanned += pairs;
                    stats.per_op[i].scanned += pairs;
                    for l in &left[li..le] {
                        for r in &right[ri..re] {
                            out.push((l.1, r.1));
                        }
                    }
                    li = le;
                    ri = re;
                }
            }
        }
        out
    }

    /// Builds the output batch from the matched pairs: carried columns
    /// gather from the input batch, bind columns gather from the relation.
    fn gather(&self, rel: &Relation, batch: &Batch, matches: &[(u32, u32)], slots: usize) -> Batch {
        let mut cols = vec![Vec::new(); slots];
        for &slot in &self.carry {
            let src = batch.col(slot);
            let col = &mut cols[slot];
            col.reserve(matches.len());
            for &(r, _) in matches {
                col.push(src[r as usize]);
            }
        }
        for &(src_col, slot) in &self.binds {
            let col = &mut cols[slot];
            col.reserve(matches.len());
            for &(_, p) in matches {
                col.push(rel.value(src_col, p));
            }
        }
        Batch {
            cols,
            len: matches.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{Atom, Fact};
    use crate::exec::Projection;
    use crate::instance::Instance;
    use crate::term::Term;
    use crate::Vocabulary;
    use std::collections::BTreeSet;

    fn fact(v: &mut Vocabulary, p: Pred, args: &[&str]) -> Fact {
        Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
    }

    /// All rows of a batch as sorted tuples of slot values.
    fn rows_of(batch: &Batch, slots: usize) -> Vec<Vec<Cst>> {
        let mut out: Vec<Vec<Cst>> = (0..batch.len())
            .map(|r| (0..slots).map(|s| batch.value(s, r)).collect())
            .collect();
        out.sort();
        out
    }

    /// Tuple-executor rows for comparison, same shape as [`rows_of`].
    fn tuple_rows(plan: &Plan, db: &Instance) -> Vec<Vec<Cst>> {
        let mut out = Vec::new();
        let mut stats = ExecStats::default();
        plan.run(db, &[], &mut stats, &mut |row| {
            out.push((0..plan.slots().len()).map(|s| row.slot(s)).collect());
            true
        });
        out.sort();
        out
    }

    fn join_db(v: &mut Vocabulary) -> (Pred, Instance) {
        let e = v.pred("e", 2);
        let mut db = Instance::new();
        for (a, b) in [("a", "b"), ("b", "c"), ("a", "c"), ("c", "a"), ("b", "d")] {
            db.insert(fact(v, e, &[a, b]));
        }
        (e, db)
    }

    fn join_body(v: &mut Vocabulary, e: Pred) -> Vec<Atom> {
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        vec![
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
            Atom::new(e, vec![Term::Var(y), Term::Var(z)]),
        ]
    }

    #[test]
    fn all_strategies_agree_with_the_tuple_executor() {
        let mut v = Vocabulary::new();
        let (e, db) = join_db(&mut v);
        let body = join_body(&mut v, e);
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        let expect = tuple_rows(&plan, &db);
        let seed = vec![Vec::new()];
        for strategy in [
            JoinStrategy::NestedLoop,
            JoinStrategy::HashJoin,
            JoinStrategy::MergeJoin,
        ] {
            let bp = BatchPlan::with_strategy(&plan, strategy);
            let mut stats = ExecStats::default();
            let out = bp.run(&db, Batch::from_seeds(&plan, &seed), &mut stats);
            assert_eq!(
                rows_of(&out, plan.slots().len()),
                expect,
                "{}",
                strategy.name()
            );
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.rows, out.len() as u64);
        }
    }

    #[test]
    fn seeded_batches_run_the_delta_shape() {
        // Delta execution: pivot vars (X, Y) declared bound, body is the
        // rest of the join; one seed row per delta fact.
        let mut v = Vocabulary::new();
        let (e, db) = join_db(&mut v);
        let (x, y, z) = (v.var("X"), v.var("Y"), v.var("Z"));
        let rest = vec![Atom::new(e, vec![Term::Var(y), Term::Var(z)])];
        let bound: BTreeSet<Var> = [x, y].into_iter().collect();
        let plan = Plan::compile(&rest, &bound, Some(&db));
        let seeds = vec![
            vec![(x, v.cst("a")), (y, v.cst("b"))],
            vec![(x, v.cst("a")), (y, v.cst("c"))],
            vec![(x, v.cst("q")), (y, v.cst("nope"))],
        ];
        for strategy in [
            JoinStrategy::NestedLoop,
            JoinStrategy::HashJoin,
            JoinStrategy::MergeJoin,
        ] {
            let bp = BatchPlan::with_strategy(&plan, strategy);
            let mut stats = ExecStats::default();
            let out = bp.run(&db, Batch::from_seeds(&plan, &seeds), &mut stats);
            // a,b extends with c and d; a,c extends with a; q,nope dies.
            assert_eq!(out.len(), 3, "{}", strategy.name());
            let proj =
                Projection::compile(&[Term::Var(x), Term::Var(y), Term::Var(z)], &plan).unwrap();
            let mut tuples: Vec<Vec<Cst>> = (0..out.len())
                .map(|r| proj.emit_with(&mut |s| out.value(s, r)))
                .collect();
            tuples.sort();
            assert_eq!(
                tuples,
                vec![
                    vec![v.cst("a"), v.cst("b"), v.cst("c")],
                    vec![v.cst("a"), v.cst("b"), v.cst("d")],
                    vec![v.cst("a"), v.cst("c"), v.cst("a")],
                ]
            );
        }
    }

    #[test]
    fn const_filters_become_selection_vectors() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["a", "c"]));
        db.insert(fact(&mut v, p, &["d", "b"]));
        let y = v.var("Y");
        let body = vec![Atom::new(p, vec![Term::Cst(v.cst("a")), Term::Var(y)])];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        let bp = BatchPlan::compile(&plan, Some(&db), 1);
        let mut stats = ExecStats::default();
        let out = bp.run(&db, Batch::from_seeds(&plan, &[Vec::new()]), &mut stats);
        assert_eq!(out.len(), 2);
        // The const filter used the index bucket: only the two matching
        // tuples were ever examined.
        assert_eq!(stats.scanned, 2);
    }

    #[test]
    fn repeated_variables_filter_within_the_selection() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "a"]));
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["c", "c"]));
        let x = v.var("X");
        let body = vec![Atom::new(p, vec![Term::Var(x), Term::Var(x)])];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        for strategy in [
            JoinStrategy::NestedLoop,
            JoinStrategy::HashJoin,
            JoinStrategy::MergeJoin,
        ] {
            let bp = BatchPlan::with_strategy(&plan, strategy);
            let mut stats = ExecStats::default();
            let out = bp.run(&db, Batch::from_seeds(&plan, &[Vec::new()]), &mut stats);
            let mut vals: Vec<Cst> = (0..out.len()).map(|r| out.value(0, r)).collect();
            vals.sort();
            assert_eq!(vals, vec![v.cst("a"), v.cst("c")], "{}", strategy.name());
        }
    }

    #[test]
    fn empty_relations_and_empty_batches_short_circuit() {
        let mut v = Vocabulary::new();
        let (e, db) = join_db(&mut v);
        let missing = v.pred("missing", 1);
        let (x, y) = (v.var("X"), v.var("Y"));
        let body = vec![
            Atom::new(missing, vec![Term::Var(x)]),
            Atom::new(e, vec![Term::Var(x), Term::Var(y)]),
        ];
        let plan = Plan::compile(&body, &BTreeSet::new(), Some(&db));
        let bp = BatchPlan::compile(&plan, Some(&db), 1);
        let mut stats = ExecStats::default();
        let out = bp.run(&db, Batch::from_seeds(&plan, &[Vec::new()]), &mut stats);
        assert!(out.is_empty());
        assert_eq!(stats.rows, 0);
        // Nothing of `e` was ever scanned: the empty relation killed the
        // batch before the join op ran.
        assert_eq!(stats.scanned, 0);
    }

    #[test]
    fn cost_model_picks_hash_join_for_large_delta_batches() {
        let mut v = Vocabulary::new();
        let f = v.pred("f", 2);
        let mut db = Instance::new();
        // A two-column join where each single-column index bucket is large
        // (~13 rows) but the combined key is nearly unique: per-row bucket
        // probing scans ~13x more pairs than the exact-key hash table.
        for i in 0..200 {
            db.insert(Fact::new(
                f,
                vec![
                    v.cst(&format!("k{}", i % 16)),
                    v.cst(&format!("m{}", i / 16)),
                ],
            ));
        }
        let (x, y) = (v.var("X"), v.var("Y"));
        let body = vec![Atom::new(f, vec![Term::Var(x), Term::Var(y)])];
        let bound: BTreeSet<Var> = [x, y].into_iter().collect();
        let plan = Plan::compile(&body, &bound, Some(&db));
        // Large delta batch: hash join amortizes its build cost.
        let bp = BatchPlan::compile(&plan, Some(&db), 256);
        let join_op = &bp.ops()[0];
        assert!(!join_op.join_keys().is_empty());
        assert_eq!(join_op.strategy, JoinStrategy::HashJoin);
        // Tiny batch: nested-loop probing stays cheapest.
        let small = BatchPlan::compile(&plan, Some(&db), 1);
        assert_eq!(small.ops()[0].strategy, JoinStrategy::NestedLoop);
    }
}
