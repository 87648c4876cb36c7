//! Database instances: sets of facts with per-column indexes.
//!
//! Tuple storage is **columnar**: a table holds one vector per column
//! (`cols[c][r]` is column `c` of row `r`), so the tuple-at-a-time
//! executors and the batch operators read single cells
//! ([`Relation::value`], [`RowRef`]) without materializing row vectors.
//!
//! Each [`Relation`] is a **differential relation** (the differential
//! file of Severance & Lohman, ACM TODS 1976): a frozen, `Arc`-shared
//! *base* table plus a small *delta* — the rows inserted since the base
//! was frozen, with their own indexes, and the set of base positions
//! deleted since. Readers see "base minus deletions, plus delta", with
//! statistics ([`Relation::len`], [`Relation::matches`]'s exact length,
//! [`Relation::distinct_in_col`]) equal to those of a fresh relation
//! holding the same facts.
//!
//! Relations are `Arc`-shared copy-on-write: cloning an [`Instance`] is
//! O(#relations), and a writer clones a relation only on the first
//! mutation after a share ([`Arc::make_mut`]). That clone copies the delta
//! and shares the base, so a write after a clone costs O(delta), never
//! O(relation). A write whose base no other
//! relation shares goes straight into the base, as a fresh instance's
//! always do, so canonical databases and fixpoint rounds keep one
//! contiguous table. Once the delta holds [`DELTA_ROWS`] rows the next
//! write folds it into the base, copying the base first if it is shared:
//! one O(relation) copy per [`DELTA_ROWS`] writes. [`cow_cells_copied`]
//! counts what these copies copy.
//!
//! Because the per-column indexes and the statistics the planner consults
//! live *inside* [`Relation`], a clone carries everything evaluation
//! needs: a clone is an immutable, `Send + Sync` snapshot, and readers on
//! other threads keep probing it, frozen and consistent, while the writer
//! diverges.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::ops::Index;
use std::sync::Arc;

use crate::atom::{Fact, Pred};
use crate::term::Cst;

/// How many rows (inserted rows plus deleted base positions) a relation's
/// delta holds before the next write folds it into the base. Fixed, so a
/// write after a clone copies at most `DELTA_ROWS × arity` cells
/// whatever the relation's size; the fold costs one copy of the relation
/// per `DELTA_ROWS` writes.
pub const DELTA_ROWS: usize = 64;

/// Bits per column in [`Delta`]'s filter of touched values.
const TOUCHED_BITS: usize = 512;

thread_local! {
    static CELLS_COPIED: Cell<u64> = const { Cell::new(0) };
}

/// The number of cells copy-on-write has copied on the calling thread so
/// far: one per column value of every copied row, plus one per copied
/// deleted position. Covers the delta copy of a relation's first write
/// after a share and the base copy of a fold. Monotone; take the
/// difference around the writes of interest.
pub fn cow_cells_copied() -> u64 {
    CELLS_COPIED.with(Cell::get)
}

fn count_copied(cells: usize) {
    CELLS_COPIED.with(|c| c.set(c.get() + cells as u64));
}

/// Column-major tuples with a membership index and one hash index per
/// column: the storage of a relation's base and of its delta alike.
#[derive(Debug, Default)]
struct Table {
    /// `cols[c][r]` holds column `c` of the tuple at position `r`
    /// (positions are insertion order, modulo [`Table::remove`]'s
    /// swap-removes).
    cols: Vec<Vec<Cst>>,
    /// Number of tuples (authoritative even for nullary tables, whose
    /// `cols` is empty).
    rows: usize,
    /// Membership/dedup index: tuple → position.
    positions: HashMap<Vec<Cst>, u32>,
    /// `col_index[c][v]` lists the positions of tuples whose column `c`
    /// holds the constant `v`.
    col_index: Vec<HashMap<Cst, Vec<u32>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        count_copied(self.rows * self.cols.len());
        Table {
            cols: self.cols.clone(),
            rows: self.rows,
            positions: self.positions.clone(),
            col_index: self.col_index.clone(),
        }
    }
}

impl Table {
    /// Appends a tuple the table does not hold.
    fn insert(&mut self, args: Vec<Cst>) {
        debug_assert!(!self.positions.contains_key(&args), "duplicate insert");
        let pos = u32::try_from(self.rows).expect("relation overflow");
        if self.cols.len() < args.len() {
            self.cols.resize_with(args.len(), Vec::new);
            self.col_index.resize_with(args.len(), HashMap::new);
        }
        debug_assert_eq!(self.cols.len(), args.len(), "relations have fixed arity");
        for (c, &v) in args.iter().enumerate() {
            self.col_index[c].entry(v).or_default().push(pos);
            self.cols[c].push(v);
        }
        self.rows += 1;
        self.positions.insert(args, pos);
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// Indexes are maintained **incrementally**: the last tuple is swapped
    /// into the vacated slot (per column) and only the column-index
    /// postings of the two affected tuples are touched — no rebuild.
    /// `O(arity · bucket)`.
    fn remove(&mut self, args: &[Cst]) -> bool {
        let Some(pos) = self.positions.remove(args) else {
            return false;
        };
        let last = u32::try_from(self.rows - 1).expect("relation overflow");
        // Drop the removed tuple's postings.
        for (c, v) in args.iter().enumerate() {
            let bucket = self.col_index[c].get_mut(v).expect("posting exists");
            bucket.retain(|&p| p != pos);
            if bucket.is_empty() {
                self.col_index[c].remove(v);
            }
        }
        if pos != last {
            // The last tuple moves into `pos`: rewrite its postings.
            let moved = self.tuple(last as usize);
            for (c, v) in moved.iter().enumerate() {
                let bucket = self.col_index[c].get_mut(v).expect("posting exists");
                for p in bucket.iter_mut() {
                    if *p == last {
                        *p = pos;
                    }
                }
            }
            *self
                .positions
                .get_mut(&moved)
                .expect("moved tuple is indexed") = pos;
        }
        for col in &mut self.cols {
            col.swap_remove(pos as usize);
        }
        self.rows -= 1;
        true
    }

    /// The tuple at `row`, materialized.
    fn tuple(&self, row: usize) -> Vec<Cst> {
        self.cols.iter().map(|col| col[row]).collect()
    }

    /// Positions of the tuples whose column `col` holds `value`.
    fn bucket(&self, col: usize, value: Cst) -> &[u32] {
        self.col_index
            .get(col)
            .and_then(|ix| ix.get(&value))
            .map_or(&[], Vec::as_slice)
    }

    /// The number of distinct values in column `col`.
    fn distinct(&self, col: usize) -> usize {
        self.col_index.get(col).map_or(0, HashMap::len)
    }
}

/// What changed since a relation's base was frozen.
#[derive(Debug, Default)]
struct Delta {
    /// Inserted rows, indexed like any table. Disjoint from the base's
    /// tuples, deleted ones included: re-inserting a deleted base row
    /// un-deletes it instead.
    added: Table,
    /// Deleted base positions, ascending.
    deleted: Vec<u32>,
    /// `deleted_in[c][v]`: how many deleted base rows hold `v` in column
    /// `c` (absent when none do).
    deleted_in: Vec<HashMap<Cst, u32>>,
    /// `distinct_shift[c]`: the live relation's distinct values in column
    /// `c` minus the base's.
    distinct_shift: Vec<isize>,
    /// `touched[c]`: a one-hash Bloom filter over the values column `c`
    /// of an inserted or deleted row has held since the base was frozen.
    /// Most probes miss it and skip the delta's maps.
    touched: Vec<[u64; TOUCHED_BITS / 64]>,
}

/// The word and bit of `value` in a [`Delta::touched`] filter.
fn touched_bit(value: Cst) -> (usize, u64) {
    let h = value.bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - TOUCHED_BITS.ilog2());
    ((h / 64) as usize, 1 << (h % 64))
}

impl Clone for Delta {
    fn clone(&self) -> Self {
        count_copied(self.deleted.len());
        Delta {
            added: self.added.clone(),
            deleted: self.deleted.clone(),
            deleted_in: self.deleted_in.clone(),
            distinct_shift: self.distinct_shift.clone(),
            touched: self.touched.clone(),
        }
    }
}

impl Delta {
    /// Rows held: inserted rows plus deleted base positions.
    fn len(&self) -> usize {
        self.added.rows + self.deleted.len()
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `false` when no inserted or deleted row has held `value` in
    /// column `col` (`true` may be a false positive).
    fn touches(&self, col: usize, value: Cst) -> bool {
        let (word, bit) = touched_bit(value);
        self.touched.get(col).is_some_and(|t| t[word] & bit != 0)
    }

    fn touch(&mut self, args: &[Cst]) {
        for (c, &v) in args.iter().enumerate() {
            let (word, bit) = touched_bit(v);
            self.touched[c][word] |= bit;
        }
    }

    fn is_deleted(&self, pos: u32) -> bool {
        self.deleted.binary_search(&pos).is_ok()
    }

    /// Deleted base rows holding `value` in column `col`.
    fn deleted_in(&self, col: usize, value: Cst) -> usize {
        self.deleted_in
            .get(col)
            .and_then(|m| m.get(&value))
            .map_or(0, |&n| n as usize)
    }

    /// Live rows holding `value` in column `col`, over `base`.
    fn live_count(&self, base: &Table, col: usize, value: Cst) -> usize {
        base.bucket(col, value).len() - self.deleted_in(col, value)
            + self.added.bucket(col, value).len()
    }

    /// Adds `step` to the distinct count of every column of `args` whose
    /// value has no live row over `base` (call before an insert with `+1`,
    /// after a removal with `-1`).
    fn shift_distinct(&mut self, base: &Table, args: &[Cst], step: isize) {
        for (c, &v) in args.iter().enumerate() {
            if self.live_count(base, c, v) == 0 {
                self.distinct_shift[c] += step;
            }
        }
    }

    fn ensure_arity(&mut self, arity: usize) {
        if self.distinct_shift.len() < arity {
            self.distinct_shift.resize(arity, 0);
            self.deleted_in.resize_with(arity, HashMap::new);
            self.touched.resize(arity, [0; TOUCHED_BITS / 64]);
        }
    }

    /// Records an insert of `args`, a tuple the relation does not hold.
    fn insert(&mut self, base: &Table, args: Vec<Cst>) {
        self.ensure_arity(args.len());
        self.touch(&args);
        self.shift_distinct(base, &args, 1);
        let Some(&pos) = base.positions.get(&args) else {
            self.added.insert(args);
            return;
        };
        let i = self
            .deleted
            .binary_search(&pos)
            .expect("a base row missing from the relation is deleted");
        self.deleted.remove(i);
        for (c, v) in args.iter().enumerate() {
            let n = self.deleted_in[c].get_mut(v).expect("deleted row counted");
            *n -= 1;
            if *n == 0 {
                self.deleted_in[c].remove(v);
            }
        }
    }

    /// Records a removal of `args`, a tuple the relation holds.
    fn remove(&mut self, base: &Table, args: &[Cst]) {
        self.ensure_arity(args.len());
        self.touch(args);
        if !self.added.remove(args) {
            let pos = base.positions[args];
            let i = self
                .deleted
                .binary_search(&pos)
                .expect_err("a live base row is not deleted");
            self.deleted.insert(i, pos);
            for (c, &v) in args.iter().enumerate() {
                *self.deleted_in[c].entry(v).or_default() += 1;
            }
        }
        self.shift_distinct(base, args, -1);
    }
}

/// The extension of one relation: a set of tuples in column-major
/// storage with one hash index per column, kept as a shared base plus a
/// small delta (see the module docs).
///
/// The column indexes are maintained eagerly on insertion; evaluation picks
/// the most selective bound column of an atom to enumerate candidate tuples
/// (see [`crate::answers`]). Positions ([`RowRef::pos`],
/// [`Relation::matches`]) address base rows first, then delta rows; they
/// stay valid until the relation is next written.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    base: Arc<Table>,
    delta: Delta,
}

/// A borrowed view of one tuple of a columnar [`Relation`].
///
/// Indexing (`row[c]`) and [`RowRef::get`] read single cells straight out
/// of the column vectors; [`RowRef::to_vec`] materializes the row when an
/// owned tuple is needed.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a Table,
    /// The row within `table`.
    row: u32,
    pos: u32,
}

impl RowRef<'_> {
    /// The number of columns.
    pub fn arity(&self) -> usize {
        self.table.cols.len()
    }

    /// The value in column `col`.
    pub fn get(&self, col: usize) -> Cst {
        self.table.cols[col][self.row as usize]
    }

    /// The tuple's position within its relation.
    pub fn pos(&self) -> u32 {
        self.pos
    }

    /// Materializes the row as an owned tuple.
    pub fn to_vec(&self) -> Vec<Cst> {
        self.table.tuple(self.row as usize)
    }
}

impl Index<usize> for RowRef<'_> {
    type Output = Cst;

    fn index(&self, col: usize) -> &Cst {
        &self.table.cols[col][self.row as usize]
    }
}

/// The positions of a relation's live tuples holding one value in one
/// column ([`Relation::matches`]). Its exact length is known up front.
struct Matches<'a> {
    base: std::slice::Iter<'a, u32>,
    /// Deleted positions still to skip in `base`; once none are left,
    /// the rest of `base` is live.
    gone: usize,
    /// The relation's deleted base positions.
    deleted: &'a [u32],
    added: std::slice::Iter<'a, u32>,
    /// Position of the first delta row.
    offset: u32,
}

impl Iterator for Matches<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            let Some(&pos) = self.base.next() else {
                return self.added.next().map(|&row| row + self.offset);
            };
            if self.gone == 0 || self.deleted.binary_search(&pos).is_err() {
                return Some(pos);
            }
            self.gone -= 1;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.base.len() - self.gone + self.added.len();
        (len, Some(len))
    }
}

impl ExactSizeIterator for Matches<'_> {}

impl Relation {
    /// Creates an empty relation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.base.rows - self.delta.deleted.len() + self.delta.added.rows
    }

    /// `true` iff the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of columns (0 until the first tuple is inserted).
    pub fn arity(&self) -> usize {
        self.base.cols.len().max(self.delta.added.cols.len())
    }

    /// Inserts a tuple; returns `true` if it was not already present.
    pub fn insert(&mut self, args: Vec<Cst>) -> bool {
        if self.contains(&args) {
            return false;
        }
        match self.in_place() {
            Some(base) => base.insert(args),
            None => self.delta.insert(&self.base, args),
        }
        true
    }

    /// Removes a tuple; returns `true` if it was present. In place, the
    /// last tuple is swapped into the vacated slot and only the postings
    /// of the two affected tuples are touched: `O(arity · bucket)`.
    pub fn remove(&mut self, args: &[Cst]) -> bool {
        if !self.contains(args) {
            return false;
        }
        match self.in_place() {
            Some(base) => {
                base.remove(args);
            }
            None => self.delta.remove(&self.base, args),
        }
        true
    }

    /// The base, when the next write goes into it: the base is unshared
    /// (a pending delta folds into it first, without copying), or the
    /// delta is full (the fold copies the shared base first). `None`
    /// means the write goes into the delta.
    fn in_place(&mut self) -> Option<&mut Table> {
        if Arc::get_mut(&mut self.base).is_none() && self.delta.len() < DELTA_ROWS {
            return None;
        }
        if !self.delta.is_empty() {
            let delta = std::mem::take(&mut self.delta);
            let base = Arc::make_mut(&mut self.base);
            // Descending, so each swap-remove moves a live row.
            for &pos in delta.deleted.iter().rev() {
                let tuple = base.tuple(pos as usize);
                base.remove(&tuple);
            }
            let added = delta.added;
            for row in 0..added.rows {
                base.insert(added.tuple(row));
            }
        }
        Some(Arc::get_mut(&mut self.base).expect("a folded base is unshared"))
    }

    /// Membership test.
    pub fn contains(&self, args: &[Cst]) -> bool {
        match self.base.positions.get(args) {
            Some(&pos) => !self.delta.is_deleted(pos),
            None => {
                args.first().is_none_or(|&v| self.delta.touches(0, v))
                    && self.delta.added.positions.contains_key(args)
            }
        }
    }

    /// Iterates over the tuples: live base rows in position order, then
    /// the delta's rows.
    pub fn iter(&self) -> impl Iterator<Item = RowRef<'_>> {
        let (base, added) = (&*self.base, &self.delta.added);
        // Live base rows are the runs between deleted positions.
        let mut start = 0;
        let ends = self.delta.deleted.iter().map(|&pos| pos as usize);
        let live = ends.chain([base.rows]).flat_map(move |end| {
            let run = start..end;
            start = end + 1;
            run
        });
        let base_rows = live.map(move |row| RowRef {
            table: base,
            row: row as u32,
            pos: row as u32,
        });
        let added_rows = (0..added.rows).map(move |row| RowRef {
            table: added,
            row: row as u32,
            pos: (base.rows + row) as u32,
        });
        base_rows.chain(added_rows)
    }

    /// The table holding position `pos`, and the row within it.
    fn locate(&self, pos: u32) -> (&Table, usize) {
        let pos = pos as usize;
        match pos.checked_sub(self.base.rows) {
            None => (&self.base, pos),
            Some(row) => (&self.delta.added, row),
        }
    }

    /// The tuple stored at `pos` (positions come from [`Relation::matches`]
    /// and [`RowRef::pos`]).
    pub fn row(&self, pos: u32) -> RowRef<'_> {
        let (table, row) = self.locate(pos);
        debug_assert!(row < table.rows);
        RowRef {
            table,
            row: row as u32,
            pos,
        }
    }

    /// The single cell at (`col`, `pos`).
    pub fn value(&self, col: usize, pos: u32) -> Cst {
        let pos = pos as usize;
        match self.base.cols.get(col).and_then(|c| c.get(pos)) {
            Some(&v) => v,
            None => self.delta.added.cols[col][pos - self.base.rows],
        }
    }

    /// Positions of the live tuples whose column `col` holds `value`:
    /// `O(1)` hash lookups, and an exact `len()` — the number a fresh
    /// relation with the same facts would report.
    pub fn matches(&self, col: usize, value: Cst) -> impl ExactSizeIterator<Item = u32> + '_ {
        let base = self.base.bucket(col, value);
        let (added, gone) = if self.delta.touches(col, value) {
            let added = self.delta.added.bucket(col, value);
            (added, self.delta.deleted_in(col, value))
        } else {
            (&[][..], 0)
        };
        Matches {
            base: base.iter(),
            gone,
            deleted: &self.delta.deleted,
            added: added.iter(),
            offset: u32::try_from(self.base.rows).expect("relation overflow"),
        }
    }

    /// The number of distinct values appearing in column `col` — the
    /// denominator of the planner's uniform selectivity estimate.
    pub fn distinct_in_col(&self, col: usize) -> usize {
        let shift = self.delta.distinct_shift.get(col).copied().unwrap_or(0);
        self.base
            .distinct(col)
            .checked_add_signed(shift)
            .expect("distinct counts stay non-negative")
    }
}

/// A database instance: a finite set of facts, grouped by relation.
///
/// Relations are `Arc`-shared: `clone` is O(#relations), and mutation
/// copies a relation's delta only when the relation is shared with another
/// clone (copy-on-write). A clone is therefore the snapshot every reader
/// takes: it never observes the writes made to the instance it came from.
#[derive(Debug, Clone, Default)]
pub struct Instance {
    rels: BTreeMap<Pred, Arc<Relation>>,
}

impl Instance {
    /// Creates an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fact; returns `true` if it was not already present.
    pub fn insert(&mut self, fact: Fact) -> bool {
        Arc::make_mut(self.rels.entry(fact.pred).or_default()).insert(fact.args)
    }

    /// Removes a fact; returns `true` if it was present. Column indexes
    /// are maintained incrementally (see [`Relation::remove`]).
    pub fn remove(&mut self, fact: &Fact) -> bool {
        let Some(rel) = self.rels.get_mut(&fact.pred) else {
            return false;
        };
        // Only clone-on-write when the fact is actually present.
        if !rel.contains(&fact.args) {
            return false;
        }
        let removed = Arc::make_mut(rel).remove(&fact.args);
        if rel.is_empty() {
            self.rels.remove(&fact.pred);
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.relation(fact.pred)
            .is_some_and(|r| r.contains(&fact.args))
    }

    /// The extension of `pred`, if any fact over it exists.
    pub fn relation(&self, pred: Pred) -> Option<&Relation> {
        self.rels.get(&pred).map(Arc::as_ref)
    }

    /// A clone of the instance. Kept for the benchmark harness in
    /// `perfbench/`, which calls it, until the next benchmark change; other
    /// code calls `clone`.
    pub fn snapshot(&self) -> Snapshot {
        self.clone()
    }

    /// A clone of the instance. Kept for the benchmark harness in
    /// `perfbench/`, which calls it, until the next benchmark change; other
    /// code calls `clone`.
    pub fn to_instance(&self) -> Instance {
        self.clone()
    }

    /// Total number of facts.
    pub fn len(&self) -> usize {
        self.rels.values().map(|r| r.len()).sum()
    }

    /// `true` iff the instance has no facts.
    pub fn is_empty(&self) -> bool {
        self.rels.values().all(|r| r.is_empty())
    }

    /// Iterates over all facts, grouped by relation (relations in
    /// predicate-id order, tuples in [`Relation::iter`] order).
    pub fn iter_facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.rels
            .iter()
            .flat_map(|(&p, r)| r.iter().map(move |args| Fact::new(p, args.to_vec())))
    }

    /// The predicates with at least one fact.
    pub fn preds(&self) -> impl Iterator<Item = Pred> + '_ {
        self.rels.keys().copied()
    }

    /// `true` iff every fact of `self` is a fact of `other`.
    pub fn is_subset_of(&self, other: &Instance) -> bool {
        self.iter_facts().all(|f| other.contains(&f))
    }

    /// Inserts all facts of `other`; returns the number of new facts.
    pub fn extend_from(&mut self, other: &Instance) -> usize {
        other
            .iter_facts()
            .filter(|f| self.insert(f.clone()))
            .count()
    }
}

/// The name the benchmark harness in `perfbench/` gives a cloned
/// [`Instance`]. Kept until the next benchmark change; other code names
/// the type `Instance`.
pub type Snapshot = Instance;

impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }
}

impl Eq for Instance {}

impl FromIterator<Fact> for Instance {
    fn from_iter<I: IntoIterator<Item = Fact>>(iter: I) -> Self {
        let mut db = Instance::new();
        for f in iter {
            db.insert(f);
        }
        db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, Vocabulary};

    fn fact(v: &mut Vocabulary, p: Pred, args: &[&str]) -> Fact {
        Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
    }

    #[test]
    fn insert_deduplicates() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        let f = fact(&mut v, p, &["a", "b"]);
        assert!(db.insert(f.clone()));
        assert!(!db.insert(f.clone()));
        assert_eq!(db.len(), 1);
        assert!(db.contains(&f));
    }

    #[test]
    fn column_index_finds_matches() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["a", "c"]));
        db.insert(fact(&mut v, p, &["d", "b"]));
        let rel = db.relation(p).unwrap();
        let a = v.cst("a");
        let b = v.cst("b");
        assert_eq!(rel.matches(0, a).len(), 2);
        assert_eq!(rel.matches(1, b).len(), 2);
        assert_eq!(rel.matches(0, b).len(), 0);
        for pos in rel.matches(0, a) {
            assert_eq!(rel.row(pos)[0], a);
            assert_eq!(rel.value(0, pos), a);
        }
        assert_eq!(rel.iter().count(), 3);
        assert_eq!(rel.arity(), 2);
    }

    #[test]
    fn subset_and_equality() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut small = Instance::new();
        small.insert(fact(&mut v, p, &["a"]));
        let mut big = small.clone();
        big.insert(fact(&mut v, p, &["b"]));
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert_ne!(small, big);
        let same: Instance = small.iter_facts().collect();
        assert_eq!(small, same);
    }

    #[test]
    fn extend_from_counts_new_facts() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a"]));
        let mut other = Instance::new();
        other.insert(fact(&mut v, p, &["a"]));
        other.insert(fact(&mut v, p, &["b"]));
        assert_eq!(db.extend_from(&other), 1);
        assert_eq!(db.len(), 2);
    }

    /// Asserts the internal indexes of two instances agree observationally:
    /// same facts, and identical candidate sets for every (column, value).
    fn assert_index_equivalent(v: &Vocabulary, incremental: &Instance, rebuilt: &Instance) {
        assert_eq!(incremental, rebuilt);
        for p in rebuilt.preds() {
            let (a, b) = (
                incremental.relation(p).expect("same relations"),
                rebuilt.relation(p).unwrap(),
            );
            assert_eq!(a.len(), b.len());
            for col in 0..v.arity(p) {
                for tuple in b.iter() {
                    let val = tuple[col];
                    let lookup = |r: &Relation| {
                        let mut tuples: Vec<Vec<Cst>> =
                            r.matches(col, val).map(|pos| r.row(pos).to_vec()).collect();
                        tuples.sort();
                        tuples
                    };
                    assert_eq!(lookup(a), lookup(b), "column {col} index diverged");
                }
            }
        }
    }

    #[test]
    fn insert_and_remove_keep_indexes_incremental() {
        // Grow with insert, shrink with remove, and compare the surviving
        // instance against one rebuilt from scratch — both the fact set
        // and every per-column candidate list must agree, and query
        // evaluation (which trusts the index) must return the same answers
        // either way.
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let q = v.pred("q", 1);
        let facts: Vec<Fact> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    Fact::new(q, vec![v.cst(&format!("a{}", i % 7))])
                } else {
                    Fact::new(
                        p,
                        vec![v.cst(&format!("a{}", i % 5)), v.cst(&format!("b{}", i % 4))],
                    )
                }
            })
            .collect();
        let mut incremental = Instance::new();
        // Every fact, then duplicate re-insertion.
        let added = facts.iter().filter(|&f| incremental.insert(f.clone()));
        assert_eq!(
            added.count(),
            facts.iter().cloned().collect::<Instance>().len()
        );
        assert!(facts.iter().all(|f| !incremental.insert(f.clone())));
        // Remove every fourth distinct fact.
        let distinct: Vec<Fact> = incremental.iter_facts().collect();
        for f in distinct.iter().step_by(4) {
            assert!(incremental.remove(f));
            assert!(!incremental.remove(f));
        }
        let survivors: Instance = distinct
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 0)
            .map(|(_, f)| f.clone())
            .collect();
        assert_index_equivalent(&v, &incremental, &survivors);

        // Evaluation sees identical answers through either instance.
        let (x, y) = (v.var("X"), v.var("Y"));
        let query = crate::Query::new(
            v.sym("join"),
            vec![crate::Term::Var(x), crate::Term::Var(y)],
            vec![
                Atom::new(p, vec![crate::Term::Var(x), crate::Term::Var(y)]),
                Atom::new(q, vec![crate::Term::Var(x)]),
            ],
        );
        let a = crate::answers(&query, &incremental).unwrap();
        let b = crate::answers(&query, &survivors).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn remove_handles_swap_with_shared_postings() {
        // The removed tuple and the swapped-in last tuple share column
        // values, exercising the posting rewrite on a shared bucket.
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        let (a, b, c) = (v.cst("a"), v.cst("b"), v.cst("c"));
        db.insert(Fact::new(p, vec![a, b]));
        db.insert(Fact::new(p, vec![a, c]));
        db.insert(Fact::new(p, vec![a, a]));
        assert!(db.remove(&Fact::new(p, vec![a, b])));
        let rel = db.relation(p).unwrap();
        assert_eq!(rel.len(), 2);
        assert_eq!(rel.matches(0, a).len(), 2);
        assert_eq!(rel.matches(1, b).len(), 0);
        for pos in rel.matches(1, a) {
            assert_eq!(rel.row(pos).to_vec(), [a, a]);
        }
        // Removing the final facts drops the relation entirely.
        assert!(db.remove(&Fact::new(p, vec![a, a])));
        assert!(db.remove(&Fact::new(p, vec![a, c])));
        assert!(db.relation(p).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn clone_is_isolated_from_later_writes() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let q = v.pred("q", 1);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, q, &["a"]));
        let snap = db.clone();
        // Mutate every relation after the clone: insert, remove, and drop
        // a relation entirely.
        db.insert(fact(&mut v, p, &["c", "d"]));
        assert!(db.remove(&fact(&mut v, q, &["a"])));
        assert!(db.remove(&fact(&mut v, p, &["a", "b"])));
        // The clone still sees exactly the original state, indexes
        // included.
        assert_eq!(snap.len(), 2);
        assert!(snap.contains(&fact(&mut v, p, &["a", "b"])));
        assert!(!snap.contains(&fact(&mut v, p, &["c", "d"])));
        let rel = snap.relation(p).unwrap();
        assert_eq!(rel.matches(0, v.cst("a")).len(), 1);
        assert_eq!(snap.preds().count(), 2);
        // And the live instance sees only the new state.
        assert_eq!(db.len(), 1);
        assert!(db.relation(q).is_none());
    }

    #[test]
    fn instance_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Instance>();
    }

    #[test]
    fn clone_shares_until_first_write() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a"]));
        let mut other = db.clone();
        // Diverge both sides; neither observes the other's writes.
        db.insert(fact(&mut v, p, &["b"]));
        other.insert(fact(&mut v, p, &["c"]));
        assert!(db.contains(&fact(&mut v, p, &["b"])));
        assert!(!db.contains(&fact(&mut v, p, &["c"])));
        assert!(other.contains(&fact(&mut v, p, &["c"])));
        assert!(!other.contains(&fact(&mut v, p, &["b"])));
    }

    #[test]
    fn removing_an_absent_fact_does_not_unshare() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a"]));
        let snap = db.clone();
        let absent = fact(&mut v, p, &["zz"]);
        assert!(!db.remove(&absent));
        // The relation is still the very same shared allocation.
        assert!(std::ptr::eq(
            db.relation(p).unwrap(),
            snap.relation(p).unwrap()
        ));
    }

    #[test]
    fn cloned_relation_shares_column_storage_until_write() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a", "b"]));
        db.insert(fact(&mut v, p, &["e", "f"]));
        let rel = db.relation(p).unwrap();
        // A clone (what `Arc::make_mut` performs on a shared relation)
        // shares the base columns...
        let mut diverged = rel.clone();
        assert!(Arc::ptr_eq(&rel.base, &diverged.base));
        // ...and so does the clone's first write, insert or remove: both
        // go into the clone's delta.
        assert!(diverged.insert(vec![v.cst("c"), v.cst("d")]));
        assert!(diverged.remove(&[v.cst("e"), v.cst("f")]));
        assert!(Arc::ptr_eq(&rel.base, &diverged.base));
        assert_eq!(rel.base.cols[0].as_ptr(), diverged.base.cols[0].as_ptr());
        // Both sides stay isolated.
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&[v.cst("e"), v.cst("f")]));
        assert!(!rel.contains(&[v.cst("c"), v.cst("d")]));
        assert_eq!(diverged.len(), 2);
        assert!(diverged.contains(&[v.cst("a"), v.cst("b")]));
        assert!(diverged.contains(&[v.cst("c"), v.cst("d")]));
        assert!(!diverged.contains(&[v.cst("e"), v.cst("f")]));
    }

    #[test]
    fn delta_statistics_equal_a_fresh_relations() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 2);
        let (a, b, c) = (v.cst("a"), v.cst("b"), v.cst("c"));
        let mut db: Instance = [[a, b], [a, c], [b, c]]
            .into_iter()
            .map(|t| Fact::new(p, t.to_vec()))
            .collect();
        let snap = db.clone();
        // Delete a base row, then un-delete it by re-inserting it.
        assert!(db.remove(&Fact::new(p, vec![a, c])));
        assert!(db.remove(&Fact::new(p, vec![b, c])));
        assert_eq!(db.relation(p).unwrap().distinct_in_col(1), 1);
        assert!(db.insert(Fact::new(p, vec![a, c])));
        assert!(!db.insert(Fact::new(p, vec![a, c])));
        // A delta row, then a delta row removed again.
        assert!(db.insert(Fact::new(p, vec![c, a])));
        assert!(db.insert(Fact::new(p, vec![c, c])));
        assert!(db.remove(&Fact::new(p, vec![c, c])));
        let rel = db.relation(p).unwrap();
        let rebuilt: Instance = db.iter_facts().collect();
        let fresh = rebuilt.relation(p).unwrap();
        assert_eq!(rel.len(), 3);
        for col in 0..2 {
            assert_eq!(rel.distinct_in_col(col), fresh.distinct_in_col(col));
            for x in [a, b, c] {
                let found = rel.matches(col, x);
                assert_eq!(found.len(), fresh.matches(col, x).len());
                assert_eq!(found.len(), found.count());
            }
        }
        assert_eq!(snap.len(), 3);
        assert!(snap.contains(&Fact::new(p, vec![b, c])));
        assert!(!snap.contains(&Fact::new(p, vec![c, a])));
        // A clone of an empty relation has an empty, column-less base.
        let empty = Relation::new();
        let mut grown = empty.clone();
        assert!(grown.insert(vec![a, b]));
        assert_eq!(grown.value(1, 0), b);
        assert_eq!(grown.matches(0, a).len(), 1);
        assert!(empty.is_empty());
    }

    /// Cells copied by one write made while a clone shares the instance.
    fn copied_by(db: &mut Instance, write: impl FnOnce(&mut Instance) -> bool) -> u64 {
        let snap = db.clone();
        let before = cow_cells_copied();
        assert!(write(db));
        let copied = cow_cells_copied() - before;
        drop(snap);
        copied
    }

    fn median(mut xs: Vec<u64>) -> u64 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    #[test]
    fn write_after_snapshot_copies_a_bounded_count() {
        // The median cells copied per write, over 1,000 inserts and 1,000
        // removes each made right after a snapshot, does not grow with
        // the relation: such a write copies the delta, not the base.
        let mut v = Vocabulary::new();
        let p = v.pred("p", 3);
        let mut row = |i: usize| {
            let args = [
                format!("n{i}"),
                format!("c{}", i % 16),
                format!("s{}", i % 250),
            ];
            Fact::new(p, args.iter().map(|s| v.cst(s)).collect())
        };
        let mut medians = Vec::new();
        for n in [1_000, 64_000] {
            let mut db: Instance = (0..n).map(&mut row).collect();
            let inserts: Vec<u64> = (n..n + 1_000)
                .map(|i| {
                    let f = row(i);
                    copied_by(&mut db, |db| db.insert(f))
                })
                .collect();
            let removes: Vec<u64> = (0..1_000)
                .map(|i| {
                    let f = row(i);
                    copied_by(&mut db, |db| db.remove(&f))
                })
                .collect();
            medians.push((median(inserts), median(removes)));
        }
        assert_eq!(medians[0], medians[1], "median copy grew with the relation");
        let (insert, remove) = medians[0];
        assert!(insert <= (3 * DELTA_ROWS) as u64, "{insert}");
        assert!(remove <= (3 * DELTA_ROWS) as u64, "{remove}");
    }

    #[test]
    fn iter_facts_covers_all_relations() {
        let mut v = Vocabulary::new();
        let p = v.pred("p", 1);
        let q = v.pred("q", 2);
        let mut db = Instance::new();
        db.insert(fact(&mut v, p, &["a"]));
        db.insert(fact(&mut v, q, &["a", "b"]));
        assert_eq!(db.iter_facts().count(), 2);
        assert_eq!(db.preds().count(), 2);
    }
}
