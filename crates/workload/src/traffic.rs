//! Mixed-traffic harness: a deterministic stream of query evaluations
//! interleaved with fact churn, executed through the compiled batch
//! executor.
//!
//! This is the server's steady-state shape (A8's `mixed_90_10`) packaged
//! as a reusable workload: plans are compiled once and reused across data
//! changes (the plan-cache hit path), each evaluation runs over a fresh
//! clone of the churning instance (so the column-major copy-on-write
//! sharing is on the measured path), and the
//! executor is selectable — the vectorized batch pipeline or the
//! tuple-at-a-time register machine — so benchmarks (A13) can compare the
//! two on identical traffic.
//!
//! Everything is deterministic given the seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use magik_exec::{CompiledQuery, ExecStats};
use magik_relalg::exec::Projection;
use magik_relalg::{AnswerSet, Fact, Instance, Vocabulary};

use crate::paper::{school, SchoolWorkload};
use crate::synth::{school_instance, SchoolDataConfig};

/// Shape of a mixed-traffic run.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Total operations in the stream.
    pub ops: usize,
    /// Fraction of operations that are query evaluations; the rest are
    /// fact churn (assert/retract), interleaved A8-style. `0.9` is the
    /// server's `mixed_90_10` profile.
    pub eval_fraction: f64,
    /// The school instance the traffic runs over.
    pub data: SchoolDataConfig,
    /// RNG seed for the op stream (independent of `data.seed`).
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            ops: 200,
            eval_fraction: 0.9,
            data: SchoolDataConfig::default(),
            seed: 8,
        }
    }
}

/// One operation of a traffic stream.
#[derive(Debug, Clone)]
pub enum TrafficOp {
    /// Evaluate the query at this index of [`Traffic::queries`].
    Eval(usize),
    /// Insert a fact (a no-op if already present).
    Assert(Fact),
    /// Remove a fact (a no-op if absent).
    Retract(Fact),
}

/// A generated traffic stream: the query pool, the starting instance,
/// and the op sequence.
#[derive(Debug, Clone)]
pub struct Traffic {
    /// The vocabulary owning every name in the stream.
    pub vocab: Vocabulary,
    /// The queries `TrafficOp::Eval` indexes into (the paper's `Q_ppb`
    /// and `Q_pbl`).
    pub queries: Vec<magik_relalg::Query>,
    /// The instance the stream starts from.
    pub db: Instance,
    /// The operations, in execution order.
    pub ops: Vec<TrafficOp>,
}

/// Generates a school-workload traffic stream: evaluations of `Q_ppb` and
/// `Q_pbl` mixed with `learns`-fact churn. Retractions target facts a
/// previous op asserted, so the instance stays near its starting size.
pub fn school_traffic(config: TrafficConfig) -> Traffic {
    let w: SchoolWorkload = school();
    let mut vocab = w.vocab.clone();
    let db = school_instance(&w, &mut vocab, config.data);
    let languages = ["english", "german", "italian", "ladin"];
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut asserted: Vec<Fact> = Vec::new();
    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        if rng.gen_bool(config.eval_fraction) {
            ops.push(TrafficOp::Eval(rng.gen_range(0..2)));
        } else if !asserted.is_empty() && rng.gen_bool(0.5) {
            let i = rng.gen_range(0..asserted.len());
            ops.push(TrafficOp::Retract(asserted.swap_remove(i)));
        } else {
            let si = rng.gen_range(0..config.data.schools.max(1));
            let pi = rng.gen_range(0..config.data.pupils_per_school.max(1));
            let pupil = vocab.cst(&format!("pupil{si}_{pi}"));
            let lang = vocab.cst(languages[rng.gen_range(0..languages.len())]);
            let fact = Fact::new(w.learns, vec![pupil, lang]);
            asserted.push(fact.clone());
            ops.push(TrafficOp::Assert(fact));
        }
    }
    Traffic {
        vocab,
        queries: vec![w.q_ppb, w.q_pbl],
        db,
        ops,
    }
}

/// Which executor [`drive`] evaluates with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// The vectorized batch pipeline (`CompiledQuery::answers`).
    Batch,
    /// The tuple-at-a-time register machine (`Plan::run` row by row) —
    /// the pre-vectorization executor, kept as the A13 baseline.
    Tuple,
}

/// What a [`drive`] run did, for assertions and throughput math.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    /// Evaluations performed.
    pub evals: usize,
    /// Total answer tuples across all evaluations.
    pub answers: usize,
    /// Churn ops applied (assert + retract).
    pub churn: usize,
    /// Aggregate executor counters across all evaluations.
    pub stats: ExecStats,
}

/// Executes a traffic stream: compiles each query once against the
/// starting statistics, then replays the ops — evaluations run over a
/// snapshot of the current instance with the chosen executor, churn
/// mutates the instance in place (exercising the per-column
/// copy-on-write against the snapshots already taken).
pub fn drive(traffic: &Traffic, mode: ExecMode) -> TrafficReport {
    let compiled: Vec<CompiledQuery> = traffic
        .queries
        .iter()
        .map(|q| CompiledQuery::compile(q, Some(&traffic.db)).expect("workload queries are safe"))
        .collect();
    let heads: Vec<Projection> = traffic
        .queries
        .iter()
        .zip(&compiled)
        .map(|(q, cq)| Projection::compile(&q.head, cq.plan()).expect("safe head"))
        .collect();
    let mut db = traffic.db.clone();
    let mut report = TrafficReport {
        evals: 0,
        answers: 0,
        churn: 0,
        stats: ExecStats::default(),
    };
    for op in &traffic.ops {
        match op {
            TrafficOp::Eval(i) => {
                let snap = db.clone();
                let answers = match mode {
                    ExecMode::Batch => compiled[*i].answers(&snap, &mut report.stats),
                    ExecMode::Tuple => {
                        let mut ans = AnswerSet::new();
                        compiled[*i]
                            .plan()
                            .run(&snap, &[], &mut report.stats, &mut |row| {
                                ans.insert(heads[*i].emit(row));
                                true
                            });
                        ans
                    }
                };
                report.evals += 1;
                report.answers += answers.len();
            }
            TrafficOp::Assert(f) => {
                db.insert(f.clone());
                report.churn += 1;
            }
            TrafficOp::Retract(f) => {
                db.remove(f);
                report.churn += 1;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = school_traffic(TrafficConfig::default());
        let b = school_traffic(TrafficConfig::default());
        assert_eq!(a.db, b.db);
        assert_eq!(a.ops.len(), b.ops.len());
        let renders = |t: &Traffic| t.ops.iter().map(|op| format!("{op:?}")).collect::<Vec<_>>();
        assert_eq!(renders(&a), renders(&b));
    }

    #[test]
    fn batch_and_tuple_drives_agree() {
        let traffic = school_traffic(TrafficConfig {
            ops: 120,
            ..TrafficConfig::default()
        });
        let batch = drive(&traffic, ExecMode::Batch);
        let tuple = drive(&traffic, ExecMode::Tuple);
        assert!(batch.evals > 0 && batch.churn > 0, "{batch:?}");
        assert_eq!(batch.evals, tuple.evals);
        assert_eq!(batch.churn, tuple.churn);
        // Same traffic, same answers — only the executor differs.
        assert_eq!(batch.answers, tuple.answers);
        // The batch drive actually went through the vectorized pipeline.
        assert_eq!(batch.stats.batches, batch.evals as u64);
        assert!(batch.stats.batch_rows > 0);
        assert_eq!(tuple.stats.batches, 0);
    }
}
