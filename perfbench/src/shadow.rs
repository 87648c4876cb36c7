//! The shadow session: the same work `Engine::handle` does, done through
//! each crate's public functions, so the benchmark can (a) predict every
//! reply and (b) time each layer from outside the service.
//!
//! The shadow mirrors the engine's caches (same keys, same LRU
//! capacities), its published snapshots (so writes pay the same
//! copy-on-write cost) and, on durable sessions, its write-ahead log and
//! checkpoint cadence. Replaying one request stream through a fresh
//! engine and a fresh shadow in the same order therefore makes both
//! probe, miss and compute on the same requests.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use magik_cert::{check_certificate, Certificate};
use magik_completeness::{
    cert_statements, certify, is_complete, k_mcs_on, mcg, tc_encoding, CanonicalQuery, KMcsOptions,
    TcSet,
};
use magik_datalog::Materialized;
use magik_exec::{CompiledQuery, ExecStats, Executor, PlanCache};
use magik_parser::{parse_atom, parse_query};
use magik_relalg::{Fact, Instance, Pred, Query, Snapshot, Vocabulary};
use magik_server::LruCache;
use magik_storage::{CheckpointImage, OpKind, Store, StoreOptions, WalRecord};

use crate::gen::{Request, Session, Verb};
use crate::gen::{ANSWER_CACHE_CAP, PLAN_CACHE_CAP, VERDICT_CACHE_CAP, WHY_CACHE_CAP};
use crate::trace::Tracer;

/// What a reply says, reduced to what the benchmark checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// `check`: the verdict.
    Verdict(bool),
    /// `why`: the verdict and whether the certificate checked out.
    Why {
        /// `ok complete …` rather than `ok incomplete …`.
        complete: bool,
        /// `cert=valid`.
        valid: bool,
    },
    /// `eval`: the number of answers.
    Answers(u32),
    /// `generalize`: the generalization's body size, `None` for `ok none`.
    Generalized(Option<u32>),
    /// `specialize`: the number of k-MCSs.
    Specialized(u32),
    /// `guaranteed`: the answer.
    Guaranteed(bool),
    /// `assert`: `ok inserted` (true) or `ok duplicate` (false).
    Asserted(bool),
    /// `retract`: `ok retracted` (true) or `ok absent` (false).
    Retracted(bool),
    /// An `err …` reply or one that does not parse.
    Error,
}

impl Outcome {
    /// Reads the reply to a `verb` request.
    pub fn of_reply(verb: Verb, reply: &str) -> Outcome {
        let Some(body) = reply.strip_prefix("ok ") else {
            return Outcome::Error;
        };
        let count = || body.split(' ').next().and_then(|n| n.parse::<u32>().ok());
        let parsed = match verb {
            Verb::Check => match body {
                "complete" => Some(Outcome::Verdict(true)),
                "incomplete" => Some(Outcome::Verdict(false)),
                _ => None,
            },
            Verb::Why => {
                let complete = body.starts_with("complete ");
                (complete || body.starts_with("incomplete ")).then(|| Outcome::Why {
                    complete,
                    valid: body.contains(" cert=valid"),
                })
            }
            Verb::Eval => count().map(Outcome::Answers),
            Verb::Specialize => count().map(Outcome::Specialized),
            Verb::Generalize => Some(Outcome::Generalized(match body {
                "none" => None,
                q => Some(
                    q.split_once(":-")
                        .map_or(0, |(_, b)| count_u32(b.matches(')').count())),
                ),
            })),
            Verb::Guaranteed => match body {
                "true" => Some(Outcome::Guaranteed(true)),
                "false" => Some(Outcome::Guaranteed(false)),
                _ => None,
            },
            Verb::Assert => match body {
                "inserted" => Some(Outcome::Asserted(true)),
                "duplicate" => Some(Outcome::Asserted(false)),
                _ => None,
            },
            Verb::Retract => match body {
                "retracted" => Some(Outcome::Retracted(true)),
                "absent" => Some(Outcome::Retracted(false)),
                _ => None,
            },
        };
        parsed.unwrap_or(Outcome::Error)
    }

    /// A reply the benchmark accepts regardless of the expected value
    /// would still have to be `ok`; `why` must also carry `cert=valid`.
    pub fn is_sound(self) -> bool {
        match self {
            Outcome::Error => false,
            Outcome::Why { valid, .. } => valid,
            _ => true,
        }
    }

    /// Whether a write changed the session.
    pub fn is_applied_write(self) -> bool {
        matches!(self, Outcome::Asserted(true) | Outcome::Retracted(true))
    }
}

/// Cache capacities of a shadow: the engine's for a faithful mirror, or
/// effectively unbounded for a memoizing checker.
#[derive(Debug, Clone, Copy)]
pub struct CacheCaps {
    verdict: usize,
    why: usize,
    answer: usize,
    plan: usize,
}

impl CacheCaps {
    /// The engine's capacities.
    pub const ENGINE: CacheCaps = CacheCaps {
        verdict: VERDICT_CACHE_CAP,
        why: WHY_CACHE_CAP,
        answer: ANSWER_CACHE_CAP,
        plan: PLAN_CACHE_CAP,
    };
    /// No eviction: every result is computed once.
    pub const MEMO: CacheCaps = CacheCaps {
        verdict: usize::MAX,
        why: usize::MAX,
        answer: usize::MAX,
        plan: usize::MAX,
    };
}

/// Counts the shadow keeps, exact for a given request sequence.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    /// Verdict-cache hits and misses.
    pub verdict: (u64, u64),
    /// `why`-cache hits and misses.
    pub why: (u64, u64),
    /// Answer-cache hits and misses.
    pub answer: (u64, u64),
    /// Plan-cache hits and misses.
    pub plan: (u64, u64),
    /// Unification calls across all k-MCS searches.
    pub unify_calls: u64,
    /// Answers produced by executed (not cached) evaluations.
    pub answers_executed: u64,
    /// Applied writes.
    pub writes: u64,
}

/// The shadow's write-ahead log and checkpoint cadence.
#[derive(Debug)]
struct ShadowStore {
    store: Store,
    checkpoint_every: u64,
    since_checkpoint: u64,
}

/// A session driven through the crates' public APIs.
#[derive(Debug)]
pub struct Shadow {
    vocab: Vocabulary,
    tcs: Arc<TcSet>,
    tcs_epoch: u64,
    data_epoch: u64,
    db: Instance,
    db_snap: Snapshot,
    mat: Materialized,
    model_snap: Snapshot,
    ideal: BTreeMap<Pred, Pred>,
    avail: BTreeMap<Pred, Pred>,
    verdicts: LruCache<(CanonicalQuery, u64), bool>,
    whys: LruCache<(CanonicalQuery, u64, u64), Outcome>,
    answers: LruCache<(CanonicalQuery, u64), u32>,
    plans: PlanCache<CanonicalQuery>,
    store: Option<ShadowStore>,
    counts: ShadowCounts,
}

impl Shadow {
    /// A shadow of a fresh engine over `session` at the given epochs.
    pub fn new(session: &Session, epochs: (u64, u64), caps: CacheCaps) -> Shadow {
        let mut vocab = session.vocab.clone();
        let (program, ideal, avail) = tc_encoding(&session.tcs, &mut vocab);
        let mut edb = Instance::new();
        for fact in session.db.iter_facts() {
            if let Some(&pi) = ideal.get(&fact.pred) {
                edb.insert(Fact::new(pi, fact.args));
            }
        }
        let mat = Materialized::new(program, edb).expect("the T_C encoding is a positive program");
        let db = session.db.clone();
        Shadow {
            vocab,
            tcs: Arc::new(session.tcs.clone()),
            tcs_epoch: epochs.0,
            data_epoch: epochs.1,
            db_snap: db.snapshot(),
            db,
            model_snap: mat.model().snapshot(),
            mat,
            ideal,
            avail,
            verdicts: LruCache::new(caps.verdict),
            whys: LruCache::new(caps.why),
            answers: LruCache::new(caps.answer),
            plans: PlanCache::new(caps.plan),
            store: None,
            counts: ShadowCounts::default(),
        }
    }

    /// Attaches a write-ahead log under `dir` (which must hold the same
    /// checkpoint image the engine opened) with the engine's options.
    pub fn attach_store(&mut self, dir: &Path, opts: StoreOptions, checkpoint_every: u64) {
        let (store, _) = Store::open(dir, opts).expect("shadow store opens");
        self.store = Some(ShadowStore {
            store,
            checkpoint_every,
            since_checkpoint: 0,
        });
    }

    /// The exact counts so far.
    pub fn counts(&self) -> ShadowCounts {
        self.counts
    }

    /// Handles one request the way `Engine::handle` does, recording a
    /// span around each layer call.
    pub fn handle(&mut self, req: &Request, tr: &mut Tracer) -> Outcome {
        let rest = req.rest().trim();
        match req.verb {
            Verb::Check => self.check(rest, tr),
            Verb::Why => self.why(rest, tr),
            Verb::Eval => self.eval(rest, tr),
            Verb::Generalize => self.generalize(rest, tr),
            Verb::Specialize => self.specialize(rest, tr),
            Verb::Guaranteed => self.guaranteed(rest, tr),
            Verb::Assert => self.assert(rest, tr),
            Verb::Retract => self.retract(rest, tr),
        }
    }

    fn parse_query(&mut self, src: &str, tr: &mut Tracer) -> Option<Query> {
        let vocab = &mut self.vocab;
        tr.span("parser.parse", || parse_query(src, vocab).ok())
    }

    fn parse_fact(&mut self, src: &str, tr: &mut Tracer) -> Option<Fact> {
        let src = src.strip_suffix('.').unwrap_or(src);
        let vocab = &mut self.vocab;
        tr.span("parser.parse", || parse_atom(src, vocab).ok())?
            .to_fact()
    }

    fn check(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(q) = self.parse_query(src, tr) else {
            return Outcome::Error;
        };
        let key = (
            tr.span("completeness.canon", || CanonicalQuery::of(&q)),
            self.tcs_epoch,
        );
        if let Some(v) = self.verdicts.get(&key) {
            self.counts.verdict.0 += 1;
            return Outcome::Verdict(v);
        }
        self.counts.verdict.1 += 1;
        let tcs = &self.tcs;
        let v = tr.span("completeness.check", || is_complete(&q, tcs));
        self.verdicts.insert(key, v);
        Outcome::Verdict(v)
    }

    fn why(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(q) = self.parse_query(src, tr) else {
            return Outcome::Error;
        };
        let canon = tr.span("completeness.canon", || CanonicalQuery::of(&q));
        let key = (canon, self.tcs_epoch, self.data_epoch);
        if let Some(o) = self.whys.get(&key) {
            self.counts.why.0 += 1;
            return o;
        }
        self.counts.why.1 += 1;
        let tcs = &self.tcs;
        let cert = tr.span("completeness.certify", || certify(&q, tcs));
        let valid = tr.span("cert.check", || {
            check_certificate(&q, &cert_statements(tcs), &cert).is_ok()
        });
        let o = Outcome::Why {
            complete: matches!(cert, Certificate::Complete(_)),
            valid,
        };
        self.whys.insert(key, o);
        o
    }

    fn generalize(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(q) = self.parse_query(src, tr) else {
            return Outcome::Error;
        };
        let tcs = &self.tcs;
        let g = tr.span("completeness.mcg", || mcg(&q, tcs));
        Outcome::Generalized(g.map(|g| count_u32(g.body.len())))
    }

    fn specialize(&mut self, rest: &str, tr: &mut Tracer) -> Outcome {
        let Some((k, src)) = rest.split_once(' ') else {
            return Outcome::Error;
        };
        let Ok(k) = k.parse::<usize>() else {
            return Outcome::Error;
        };
        let Some(q) = self.parse_query(src.trim(), tr) else {
            return Outcome::Error;
        };
        // Like the engine: the search mints scratch variables in a clone.
        let mut vocab = self.vocab.clone();
        let tcs = &self.tcs;
        let out = tr.span("completeness.k_mcs", || {
            k_mcs_on(
                &q,
                tcs,
                &mut vocab,
                KMcsOptions::new(k),
                &Executor::Sequential,
            )
        });
        self.counts.unify_calls += out.stats.unify_calls;
        Outcome::Specialized(count_u32(out.queries.len()))
    }

    fn eval(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(q) = self.parse_query(src, tr) else {
            return Outcome::Error;
        };
        let canon = tr.span("completeness.canon", || CanonicalQuery::of(&q));
        let key = (canon.clone(), self.data_epoch);
        if let Some(n) = self.answers.get(&key) {
            self.counts.answer.0 += 1;
            return Outcome::Answers(n);
        }
        self.counts.answer.1 += 1;
        let plan = match self.plans.get(&canon) {
            Some(plan) => {
                self.counts.plan.0 += 1;
                plan
            }
            None => {
                self.counts.plan.1 += 1;
                let snap = &self.db_snap;
                let Ok(compiled) =
                    tr.span("exec.compile", || CompiledQuery::compile(&q, Some(snap)))
                else {
                    return Outcome::Error;
                };
                let plan = Arc::new(compiled);
                self.plans.insert(canon, Arc::clone(&plan));
                plan
            }
        };
        let snap = &self.db_snap;
        let mut stats = ExecStats::default();
        let n = count_u32(tr.span("exec.answers", || plan.answers(snap, &mut stats).len()));
        self.counts.answers_executed += n as u64;
        self.answers.insert(key, n);
        Outcome::Answers(n)
    }

    fn guaranteed(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(fact) = self.parse_fact(src, tr) else {
            return Outcome::Error;
        };
        Outcome::Guaranteed(match self.avail.get(&fact.pred) {
            Some(&pa) => self.model_snap.contains(&Fact::new(pa, fact.args)),
            None => false,
        })
    }

    fn assert(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(fact) = self.parse_fact(src, tr) else {
            return Outcome::Error;
        };
        if self.db.contains(&fact) {
            return Outcome::Asserted(false);
        }
        self.log(OpKind::Assert, src, tr);
        let db = &mut self.db;
        tr.span("relalg.cow_write", || db.insert(fact.clone()));
        self.data_epoch += 1;
        if let Some(&pi) = self.ideal.get(&fact.pred) {
            let mat = &mut self.mat;
            tr.span("datalog.insert", || mat.insert(Fact::new(pi, fact.args)));
        }
        self.publish(tr);
        Outcome::Asserted(true)
    }

    fn retract(&mut self, src: &str, tr: &mut Tracer) -> Outcome {
        let Some(fact) = self.parse_fact(src, tr) else {
            return Outcome::Error;
        };
        if !self.db.contains(&fact) {
            return Outcome::Retracted(false);
        }
        self.log(OpKind::Retract, src, tr);
        let db = &mut self.db;
        tr.span("relalg.cow_write", || db.remove(&fact));
        self.data_epoch += 1;
        if let Some(&pi) = self.ideal.get(&fact.pred) {
            let mat = &mut self.mat;
            tr.span("datalog.retract", || {
                mat.retract_all(std::iter::once(Fact::new(pi, fact.args)))
            });
        }
        self.publish(tr);
        Outcome::Retracted(true)
    }

    fn log(&mut self, kind: OpKind, src: &str, tr: &mut Tracer) {
        let Some(s) = &mut self.store else { return };
        let rec = WalRecord::Op {
            kind,
            text: src.to_string(),
            tcs_epoch: self.tcs_epoch,
            data_epoch: self.data_epoch + 1,
        };
        tr.span("storage.append", || s.store.append(&rec))
            .expect("shadow WAL append");
    }

    /// Publishes fresh snapshots (so the next write pays copy-on-write,
    /// as the engine's does) and runs a checkpoint when one is due.
    fn publish(&mut self, tr: &mut Tracer) {
        self.counts.writes += 1;
        self.db_snap = self.db.snapshot();
        self.model_snap = self.mat.model().snapshot();
        let Some(s) = &mut self.store else { return };
        s.since_checkpoint += 1;
        if s.checkpoint_every == 0 || s.since_checkpoint < s.checkpoint_every {
            return;
        }
        s.since_checkpoint = 0;
        let vocab = self.vocab.clone();
        let (tcs, snap) = (&self.tcs, &self.db_snap);
        let (tcs_epoch, data_epoch) = (self.tcs_epoch, self.data_epoch);
        tr.span("storage.checkpoint", || {
            let image = CheckpointImage {
                vocab,
                tcs: (**tcs).clone(),
                db: snap.to_instance(),
                tcs_epoch,
                data_epoch,
            };
            s.store.checkpoint(&image).expect("shadow checkpoint")
        });
    }
}

fn count_u32(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}
