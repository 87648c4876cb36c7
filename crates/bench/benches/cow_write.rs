//! Experiment A16 — the cost of a write after a snapshot, by relation size.
//!
//! A server publishes a snapshot after every write, so its next write
//! lands on a relation the snapshot shares. Each relation is a shared
//! base plus a small delta, so that write copies the delta and leaves
//! the base shared: its cost should not grow with the relation.
//!
//! For an arity-3 relation of 1k, 4k, 16k and 64k rows:
//!
//! * `after_snapshot/{insert,remove}` — take a snapshot, then write one
//!   fact (the write pays copy-on-write);
//! * `floor/insert_remove` — insert and remove one fact with no snapshot
//!   outstanding (two writes in place, nothing shared);
//! * a `cells` line per size, from [`cow_cells_copied`]: the cells one
//!   write after a snapshot copies, and the median and maximum over 1,000
//!   inserts and 1,000 removes each made after a fresh snapshot — the
//!   server's steady state, folds included.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use magik::relalg::cow_cells_copied;
use magik::{Fact, Instance, Pred, Vocabulary};

const SIZES: [usize; 4] = [1_000, 4_000, 16_000, 64_000];

/// Row `i` of the benchmark relation: a unique name, then one of 16
/// classes and one of 250 schools (`pupil(N, C, S)`'s shape).
fn row(v: &mut Vocabulary, pred: Pred, i: usize) -> Fact {
    let args = [
        format!("n{i}"),
        format!("c{}", i % 16),
        format!("s{}", i % 250),
    ];
    Fact::new(pred, args.iter().map(|s| v.cst(s)).collect())
}

fn relation(n: usize) -> (Vocabulary, Pred, Instance) {
    let mut v = Vocabulary::new();
    let pred = v.pred("pupil", 3);
    let db = (0..n).map(|i| row(&mut v, pred, i)).collect();
    (v, pred, db)
}

/// Cells copied by one write made while a clone shares `db`.
fn copied_by(db: &mut Instance, write: impl FnOnce(&mut Instance) -> bool) -> u64 {
    let snap = db.clone();
    let before = cow_cells_copied();
    assert!(write(db));
    let copied = cow_cells_copied() - before;
    drop(snap);
    copied
}

fn median_and_max(mut xs: Vec<u64>) -> (u64, u64) {
    xs.sort_unstable();
    (xs[xs.len() / 2], xs[xs.len() - 1])
}

fn bench_after_snapshot(c: &mut Criterion) {
    let mut group = c.benchmark_group("cow_write/after_snapshot");
    for n in SIZES {
        let (mut v, pred, db) = relation(n);
        let fresh = row(&mut v, pred, n);
        let present = row(&mut v, pred, n / 2);
        group.bench_with_input(BenchmarkId::new("insert", n), &fresh, |b, fact| {
            b.iter_batched(
                || (db.clone(), db.clone()),
                |(mut live, snap)| {
                    assert!(live.insert(fact.clone()));
                    (live, snap)
                },
                BatchSize::SmallInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("remove", n), &present, |b, fact| {
            b.iter_batched(
                || (db.clone(), db.clone()),
                |(mut live, snap)| {
                    assert!(live.remove(fact));
                    (live, snap)
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_floor(c: &mut Criterion) {
    let mut group = c.benchmark_group("cow_write/floor");
    for n in SIZES {
        let (mut v, pred, mut db) = relation(n);
        let fact = row(&mut v, pred, n);
        group.bench_function(format!("insert_remove/{n}"), |b| {
            b.iter(|| {
                assert!(db.insert(fact.clone()));
                assert!(db.remove(&fact));
            });
        });
    }
    group.finish();
}

fn report_cells(_: &mut Criterion) {
    for n in SIZES {
        let (mut v, pred, mut db) = relation(n);
        let one_insert = copied_by(&mut db.clone(), |db| db.insert(row(&mut v, pred, n)));
        let one_remove = copied_by(&mut db.clone(), |db| db.remove(&row(&mut v, pred, 0)));
        let inserts: Vec<u64> = (n..n + 1_000)
            .map(|i| {
                let fact = row(&mut v, pred, i);
                copied_by(&mut db, |db| db.insert(fact))
            })
            .collect();
        let removes: Vec<u64> = (0..1_000)
            .map(|i| {
                let fact = row(&mut v, pred, i);
                copied_by(&mut db, |db| db.remove(&fact))
            })
            .collect();
        let (ins_median, ins_max) = median_and_max(inserts);
        let (rem_median, rem_max) = median_and_max(removes);
        println!(
            "cow_write/cells/{n:<6} one write: insert {one_insert}, remove {one_remove}; \
             over 1000 after fresh snapshots: insert median {ins_median} max {ins_max}, \
             remove median {rem_median} max {rem_max}"
        );
    }
}

criterion_group!(benches, bench_after_snapshot, bench_floor, report_cells);
criterion_main!(benches);
