//! The session engine: shared reasoning state plus caching and metrics.
//!
//! One [`Engine`] is shared by every connection (and every worker thread)
//! of a server. State is published as an immutable, epoch-tagged
//! **snapshot** behind a swap point:
//!
//! * `current: Mutex<Arc<StateSnapshot>>` — the swap point. Read-only
//!   requests (`check`, `why`, `eval`, `generalize`, `specialize`,
//!   `guaranteed`, `analyze`) lock it just long enough to clone the
//!   `Arc`, then evaluate entirely on the snapshot: **no lock is held
//!   during reasoning**, so a slow `specialize` never blocks a
//!   concurrent `check` or a writer.
//! * `writer: Mutex<WriterState>` — the mutable master copy (database,
//!   TCS set, incrementally maintained T_C materialization). Mutations
//!   (`assert`, `retract`, `compl`) serialize on it, apply their change,
//!   and publish a fresh snapshot before releasing the lock — so
//!   snapshots become visible in write order and epochs are monotone.
//!   Publishing is cheap: the relalg [`Instance`] is copy-on-write, so
//!   the published clone is O(#relations) `Arc` bumps. So is the next
//!   write, which lands on relations the published snapshot shares:
//!   each relation is a shared base plus a small delta, and the write
//!   copies the delta, not the relation — O(change) in the database and
//!   again in the T_C model. Freeing the replaced snapshot frees only
//!   such deltas.
//! * one `Mutex` per cache ([`Cache`]) — held only for the probe or
//!   insert itself.
//!
//! The lock order is writer → current → caches.
//!
//! # The vocabulary
//!
//! The writer owns the session [`Vocabulary`], and every snapshot
//! carries a frozen copy of it (O(1): see the relalg vocab module). Only
//! the write path interns names, and only once the op is applied: it
//! parses into a clone of the writer's vocabulary and keeps it only if
//! the op changes state, so a refused, duplicate or absent write interns
//! nothing. Publishing then costs O(names added), and checkpoints encode
//! the snapshot's copy.
//!
//! A read parses into a throwaway **overlay** of its snapshot's
//! vocabulary and renders from it, with no lock held; `specialize` also
//! names its scratch variables there. A name the snapshot does not know
//! is local to the request, and two concurrent reads may give their
//! local names the same id, so no cache key holds a local id alone: the
//! verdict, answer, plan and `why` caches key a query by its canonical
//! form, local constants replaced by placeholders of their rank, plus
//! the spellings of the local predicates and constants it mentions
//! ([`CacheForm`]).
//!
//! # Epochs and caching
//!
//! A completeness verdict depends on the query and the TCS set **only**
//! (Theorem 3 reasons over the canonical database of the frozen query,
//! never over stored facts), so verdicts are cached under
//! `(canonical query, tcs_epoch)`. Evaluation answers depend on the query
//! and the stored facts, so their rendered replies are cached under
//! `(canonical query, data_epoch)`. Each mutation bumps exactly the epochs
//! whose derived results it can change — `compl` bumps `tcs_epoch`,
//! `assert`/`retract` bump `data_epoch` — making stale cache keys
//! unreachable. Canonicalization ([`CanonicalQuery`]) makes the cache
//! robust against renamed variables, reordered atoms, and redundant atoms.
//! A `why` reply names the query's variables, so a hit renders them as
//! the alpha-variant that filled the entry named them.
//!
//! # Incremental T_C
//!
//! The writer keeps the Section 5 Datalog encoding of the T_C operator
//! (`R^a ← R^i, G^i`) materialized over the stored facts via
//! [`magik_datalog::Materialized`]: `assert` propagates just the new
//! fact's consequences (delta semi-naive), `retract` repairs the model
//! with DRed (over-delete, then re-derive — see the `magik-datalog`
//! incremental module), and `compl` rebuilds the encoding. Each publish carries
//! a snapshot of the fixpoint model, so the `guaranteed` request answers
//! "is this fact certain to be in the available database?" in constant
//! time without touching the writer.
//!
//! # Logged ops and the replica role
//!
//! Client writes, crash recovery and replica apply (the last two through
//! [`Engine::apply_logged`]) run one write path. A replica
//! ([`Engine::open_replica`]) changes state only by applying its
//! primary's log, refuses client mutations, and answers `replication`
//! from its [`ReplicaStatus`].
//!
//! # Parallelism
//!
//! The engine owns an [`Executor`]; the T_C fixpoint and the `specialize`
//! search fan out over it when it is pooled ([`Engine::with_session_on`]).
//! The default is sequential, which embeds cleanly in tests and tools.

use std::hash::Hash;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use magik_analyze::{analyze_check, analyze_query, analyze_state, analyze_statements};
use magik_cert::{check_certificate, Certificate};
use magik_completeness::{
    cert_statements, certify, is_complete, k_mcs_on, mcg, tc_encoding, CanonicalQuery,
    ConstraintSet, KMcsOptions, TcSet, TcStatement,
};
use magik_datalog::Materialized;
use magik_exec::{CompiledQuery, ExecStats, Executor, LruCache};
use magik_parser::{parse_atom, parse_query, parse_tcs, print_query};
use magik_relalg::{
    Answer, Atom, Cst, DisplayWith, Fact, Instance, Pred, Query, Symbol, Term, Var, Vocabulary,
};
use magik_storage::{
    CheckpointImage, OpKind, Recovery, StorageError, Store, StoreOptions, WalRecord,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::durability::{Durability, DurabilityOptions, RecoveryReport};
use crate::metrics::{CacheCounts, Counter, Metrics, Op};
use crate::replication::{ReplicaStatus, ReplicationHub};
use crate::request::{unknown, Request};

/// Default capacity of the verdict cache.
const VERDICT_CACHE_CAP: usize = 1024;
/// Default capacity of the answer cache.
const ANSWER_CACHE_CAP: usize = 256;
/// Default capacity of the plan cache.
const PLAN_CACHE_CAP: usize = 256;
/// Default capacity of the state-analysis cache. Small: entries are
/// keyed by epoch pair, so at most one key is live at a time and the
/// rest only serve brief races against concurrent writers.
const ANALYSIS_CACHE_CAP: usize = 8;
/// Default capacity of the certified-verdict (`why`) cache.
const WHY_CACHE_CAP: usize = 256;

/// Locks `mutex`, recovering from poison instead of propagating it. A
/// handler that panicked while holding a lock must not become a
/// permanent denial of service — `Mutex::lock` returns `Err` forever
/// after a poisoning panic, so propagating it would fail *every*
/// subsequent request. `on_poison` repairs the guarded state where the
/// abandoned value cannot be trusted (caches are cleared; see
/// [`Cache`]); every recovery is counted in the `lock.poisoned` metric.
fn lock_recovering<'a, T>(
    mutex: &'a Mutex<T>,
    metrics: &Metrics,
    on_poison: fn(&mut T),
) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            mutex.clear_poison();
            let mut guard = poisoned.into_inner();
            on_poison(&mut guard);
            metrics.add(Counter::LockPoisoned, 1);
            guard
        }
    }
}

/// One engine cache: an exact [`LruCache`] behind its own mutex, held
/// only for a probe or an insert. A poisoned lock is recovered by
/// **clearing** the cache — an entry half-inserted by a panicking thread
/// must never be served, and a cold cache costs only recomputation. Hits
/// and misses are the LRU's own counters, which survive the clear.
#[derive(Debug)]
struct Cache<K, V> {
    lru: Mutex<LruCache<K, V>>,
    /// Where poison recoveries are counted.
    metrics: Arc<Metrics>,
}

impl<K: Eq + Hash + Clone, V: Clone> Cache<K, V> {
    fn new(cap: usize, metrics: &Arc<Metrics>) -> Self {
        Cache {
            lru: Mutex::new(LruCache::new(cap)),
            metrics: Arc::clone(metrics),
        }
    }

    fn lock(&self) -> MutexGuard<'_, LruCache<K, V>> {
        lock_recovering(&self.lru, &self.metrics, LruCache::clear)
    }

    /// Probes `key`, counting a hit or a miss.
    fn get(&self, key: &K) -> Option<V> {
        self.lock().get(key)
    }

    fn insert(&self, key: K, value: V) {
        self.lock().insert(key, value);
    }

    fn clear(&self) {
        self.lock().clear();
    }

    /// Lifetime `(hits, misses)`.
    fn counts(&self) -> (u64, u64) {
        let lru = self.lock();
        (lru.hits(), lru.misses())
    }

    /// The value cached under `key`, or `compute()`'s, then cached.
    fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(&key) {
            return value;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }
}

/// A cached compiled plan, with the name of the query it was compiled
/// from rendered at insert time: the query's head name may be local to
/// the request that compiled it.
#[derive(Debug)]
struct CachedPlan {
    head: String,
    compiled: CompiledQuery,
}

/// The writer's mutable master state, guarded by the engine's writer
/// mutex. Mutations edit it in place, then [`WriterState::publish`] a
/// fresh immutable snapshot.
#[derive(Debug)]
struct WriterState {
    /// The session vocabulary, frozen between writes so that publishing
    /// and cloning it are O(1).
    vocab: Vocabulary,
    /// The stored (available) database.
    db: Instance,
    /// The table-completeness statements (shared with snapshots; writers
    /// copy-on-write via [`Arc::make_mut`]).
    tcs: Arc<TcSet>,
    /// Bumped whenever `tcs` changes; part of every verdict-cache key.
    tcs_epoch: u64,
    /// Bumped whenever `db` changes; part of every answer-cache key.
    data_epoch: u64,
    /// The T_C encoding materialized over `db` (renamed to `R^i`).
    tc_mat: Materialized,
    /// Original predicate → its `R^i` variant in the encoding.
    ideal: BTreeMap<Pred, Pred>,
    /// Original predicate → its `R^a` variant in the encoding.
    avail: Arc<BTreeMap<Pred, Pred>>,
}

/// One immutable published state: what every read-only request evaluates
/// against, lock-free, after cloning the `Arc` out of the swap point.
#[derive(Debug)]
struct StateSnapshot {
    /// The frozen vocabulary at publish time: every name `db` and `tcs`
    /// use. Reads parse into overlays of it.
    vocab: Vocabulary,
    /// The stored database at publish time.
    db: Instance,
    /// The TCS set at publish time.
    tcs: Arc<TcSet>,
    /// TCS epoch of this snapshot.
    tcs_epoch: u64,
    /// Data epoch of this snapshot.
    data_epoch: u64,
    /// The materialized T_C fixpoint model at publish time.
    tc_model: Instance,
    /// Original predicate → its `R^a` variant in the encoding.
    avail: Arc<BTreeMap<Pred, Pred>>,
}

impl StateSnapshot {
    /// The checkpoint image of this snapshot.
    fn checkpoint_image(&self) -> CheckpointImage {
        CheckpointImage {
            vocab: self.vocab.clone(),
            tcs: (*self.tcs).clone(),
            db: self.db.clone(),
            tcs_epoch: self.tcs_epoch,
            data_epoch: self.data_epoch,
        }
    }
}

impl WriterState {
    /// Rebuilds the T_C materialization after the TCS set changed; the
    /// encoding's predicates are interned and frozen.
    fn rebuild_tc(&mut self, exec: &Executor) {
        let (program, ideal, avail) = tc_encoding(&self.tcs, &mut self.vocab);
        self.vocab.freeze();
        let mut edb = Instance::new();
        for fact in self.db.iter_facts() {
            if let Some(&pi) = ideal.get(&fact.pred) {
                edb.insert(Fact::new(pi, fact.args));
            }
        }
        self.tc_mat = Materialized::with_executor(program, edb, exec.clone())
            .expect("the T_C encoding is a positive program");
        self.ideal = ideal;
        self.avail = Arc::new(avail);
    }

    /// Builds the immutable snapshot of the current state. O(#relations):
    /// both stores are copy-on-write, and the vocabulary, the TCS and the
    /// encoding maps are shared by `Arc`.
    fn publish(&self) -> Arc<StateSnapshot> {
        Arc::new(StateSnapshot {
            vocab: self.vocab.clone(),
            db: self.db.clone(),
            tcs: Arc::clone(&self.tcs),
            tcs_epoch: self.tcs_epoch,
            data_epoch: self.data_epoch,
            tc_model: self.tc_mat.model().clone(),
            avail: Arc::clone(&self.avail),
        })
    }
}

/// A shared, thread-safe completeness-reasoning session.
///
/// See the module docs for the snapshot-swap and caching design. All
/// request entry points take `&self`; an `Arc<Engine>` can be handed to
/// any number of worker threads.
#[derive(Debug)]
pub struct Engine {
    writer: Mutex<WriterState>,
    /// The swap point: the latest published snapshot. Readers lock it
    /// only to clone the `Arc`; writers (holding the writer mutex)
    /// lock it only to store the next snapshot.
    current: Mutex<Arc<StateSnapshot>>,
    verdicts: Cache<(QueryKey, u64), bool>,
    /// Rendered `eval` replies, keyed by `(query key, data_epoch)`. A
    /// reply depends only on its key: answers hold only constants, and
    /// the key carries the spellings of the request-local ones.
    answer_cache: Cache<(QueryKey, u64), Arc<str>>,
    /// Cached `analyze state` replies, keyed by the `(tcs_epoch,
    /// data_epoch)` pair they were computed against. The live-session
    /// diagnostics (M018–M024) depend on the TCS set *and* the stored
    /// facts, so either epoch bump makes the old key unreachable —
    /// invalidation rides the existing writer-mutex mutation path for
    /// free.
    analysis: Cache<(u64, u64), String>,
    /// Cached `why` replies (rendered, already-validated certificates),
    /// keyed like verdicts: by Theorem 3 a certificate depends only on
    /// the query and the TCS set, so only `compl` makes an entry stale.
    why_cache: Cache<(QueryKey, u64), String>,
    /// Compiled plans keyed by the query's cache key alone: equal keys
    /// imply query equivalence, so a cached plan stays correct
    /// across data-epoch bumps (statistics drift affects only speed). The
    /// cache is cleared on TCS/vocabulary-shaping events (`compl`).
    plans: Cache<QueryKey, Arc<CachedPlan>>,
    metrics: Arc<Metrics>,
    /// The optional durability layer ([`Engine::open_durable`]): WAL
    /// appended under the writer mutex before every applied mutation,
    /// plus the background checkpointer. `None` = memory-only session.
    durability: Option<Arc<Durability>>,
    /// One background worker for checkpoint serialization. Owned by the
    /// engine, not by [`Durability`]: checkpoint jobs hold an
    /// `Arc<Durability>`, and a pool inside it could end up dropped (and
    /// joined) from its own worker thread.
    checkpointer: Option<magik_runtime::ThreadPool>,
    /// The compute executor: T_C fixpoints and `specialize` fan out over
    /// it. Distinct from the server's connection pool, so reasoning tasks
    /// never compete with (or deadlock against) connection handlers.
    exec: Executor,
    /// The live mutation feed for log-shipping replication: every
    /// WAL-appended record is published here under the writer mutex (so
    /// feed order is log order). Streamers subscribe per replica.
    repl: Arc<ReplicationHub>,
    /// `Some` on a replica ([`Engine::open_replica`]): what it knows of
    /// its primary.
    replica: Option<ReplicaStatus>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// Creates an engine with an empty database and no TCS.
    pub fn new() -> Engine {
        Engine::with_session(Vocabulary::new(), TcSet::new(Vec::new()), Instance::new())
    }

    /// Creates an engine over pre-loaded session state (e.g. a document
    /// parsed by the CLI before serving), reasoning sequentially.
    pub fn with_session(vocab: Vocabulary, tcs: TcSet, db: Instance) -> Engine {
        Engine::with_session_on(vocab, tcs, db, Executor::Sequential)
    }

    /// Like [`Engine::with_session`], but reasoning on `exec`: pooled
    /// executors parallelize the T_C fixpoint and the `specialize`
    /// search.
    pub fn with_session_on(vocab: Vocabulary, tcs: TcSet, db: Instance, exec: Executor) -> Engine {
        let mut writer = WriterState {
            vocab,
            db,
            tcs: Arc::new(tcs),
            tcs_epoch: 0,
            data_epoch: 0,
            tc_mat: Materialized::new(
                magik_datalog::Program::new(Vec::new()).expect("empty program"),
                Instance::new(),
            )
            .expect("empty program is positive"),
            ideal: BTreeMap::new(),
            avail: Arc::new(BTreeMap::new()),
        };
        writer.rebuild_tc(&exec);
        let current = writer.publish();
        let metrics = Arc::new(Metrics::new());
        Engine {
            writer: Mutex::new(writer),
            current: Mutex::new(current),
            verdicts: Cache::new(VERDICT_CACHE_CAP, &metrics),
            answer_cache: Cache::new(ANSWER_CACHE_CAP, &metrics),
            analysis: Cache::new(ANALYSIS_CACHE_CAP, &metrics),
            why_cache: Cache::new(WHY_CACHE_CAP, &metrics),
            plans: Cache::new(PLAN_CACHE_CAP, &metrics),
            metrics,
            durability: None,
            checkpointer: None,
            exec,
            repl: Arc::new(ReplicationHub::default()),
            replica: None,
        }
    }

    /// Opens (or creates) a **durable** engine over the data directory
    /// `dir`: recovers the newest valid checkpoint, replays the WAL tail
    /// through `Engine::apply_logged` (every replayed op must re-derive
    /// exactly the epochs the log recorded), then attaches the
    /// write-ahead logging and checkpointing layer so subsequent
    /// mutations are logged before they are applied.
    pub fn open_durable(
        dir: &Path,
        opts: DurabilityOptions,
        exec: Executor,
    ) -> Result<(Engine, RecoveryReport), StorageError> {
        let (store, recovery) = Store::open(
            dir,
            StoreOptions {
                fsync: opts.fsync,
                segment_bytes: opts.segment_bytes,
                checkpoints_kept: 2,
            },
        )?;
        let report = RecoveryReport::of(&recovery);
        let mut engine = Engine::replay(recovery, exec, dir)?;
        engine
            .metrics
            .add(Counter::ReplayedOps, report.replayed_ops);
        engine.durability = Some(Arc::new(Durability::new(store, opts.checkpoint_every)));
        if opts.checkpoint_every > 0 {
            engine.checkpointer = Some(magik_runtime::ThreadPool::new(1));
        }
        Ok((engine, report))
    }

    /// Opens a replica over `dir`: [`Engine::open_durable`] plus the
    /// replica role. Client mutations are refused; [`crate::run_replica`]
    /// applies the primary's log.
    pub fn open_replica(
        dir: &Path,
        opts: DurabilityOptions,
        exec: Executor,
    ) -> Result<(Engine, RecoveryReport), StorageError> {
        let (mut engine, report) = Engine::open_durable(dir, opts, exec)?;
        engine.replica = Some(ReplicaStatus::default());
        Ok((engine, report))
    }

    /// Verifies that the data under `dir` recovers cleanly — same
    /// checkpoint load and verified replay as [`Engine::open_durable`],
    /// but against a throwaway engine and **without** mutating the
    /// directory (no temp-file sweep, no fresh WAL segment). Backs
    /// `magik recover --verify`.
    pub fn verify_recovery(dir: &Path, exec: Executor) -> Result<RecoveryReport, StorageError> {
        let recovery = Store::peek(dir)?;
        let report = RecoveryReport::of(&recovery);
        Engine::replay(recovery, exec, dir)?;
        Ok(report)
    }

    /// Builds an engine from recovered state: the checkpoint image (if
    /// any) seeds the session, then every WAL-tail record goes through
    /// [`Engine::apply_logged`]. A record it rejects is reported as
    /// corruption naming the record's logged epochs.
    fn replay(recovery: Recovery, exec: Executor, dir: &Path) -> Result<Engine, StorageError> {
        let engine = match recovery.checkpoint {
            Some(image) => {
                let e = Engine::with_session_on(image.vocab, image.tcs, image.db, exec);
                e.set_epochs(image.tcs_epoch, image.data_epoch);
                e
            }
            None => Engine::with_session_on(
                Vocabulary::new(),
                TcSet::new(Vec::new()),
                Instance::new(),
                exec,
            ),
        };
        for rec in &recovery.tail {
            engine
                .apply_logged(rec)
                .map_err(|got| StorageError::Corrupt {
                    path: dir.to_path_buf(),
                    detail: format!("replay diverged at logged epochs {:?}: {got}", rec.epochs()),
                })?;
        }
        Ok(engine)
    }

    /// Applies one logged record (a WAL-tail record at recovery, or one a
    /// primary shipped): an op runs the write path on the logged text,
    /// then the engine must stand at the record's epochs (a mark asserts
    /// the current ones). A refused op or an epoch mismatch is an error.
    /// Not a client request, so `<op>.*` does not count it.
    pub(crate) fn apply_logged(&self, rec: &WalRecord) -> Result<(), String> {
        if let WalRecord::Op { kind, text, .. } = rec {
            self.write(*kind, text)
                .map_err(|(code, msg)| format!("engine replied `err {code} {msg}`"))?;
        }
        let epochs = self.epochs();
        if epochs != rec.epochs() {
            return Err(format!("engine is at {epochs:?}"));
        }
        Ok(())
    }

    /// The writer state, poison-recovering. Mutations publish only at
    /// the end of their critical section, so a panic mid-mutation leaves
    /// the last *published* snapshot (what every reader sees) intact;
    /// keeping the master copy is the availability-preserving choice.
    fn lock_writer(&self) -> MutexGuard<'_, WriterState> {
        lock_recovering(&self.writer, &self.metrics, |_| {})
    }

    /// The snapshot swap point, poison-recovering: it only ever holds a
    /// fully published `Arc`, swapped atomically, so the value is valid
    /// no matter where a holder panicked.
    fn lock_current(&self) -> MutexGuard<'_, Arc<StateSnapshot>> {
        lock_recovering(&self.current, &self.metrics, |_| {})
    }

    /// Seeds the epoch counters from a recovered checkpoint and
    /// republishes, so replay and caching see the restored history
    /// position instead of a fresh session's (0, 0).
    fn set_epochs(&self, tcs_epoch: u64, data_epoch: u64) {
        let mut writer = self.lock_writer();
        writer.tcs_epoch = tcs_epoch;
        writer.data_epoch = data_epoch;
        self.swap(&writer);
    }

    /// Flushes the durability layer for a clean shutdown: an epoch
    /// [`WalRecord::Mark`], a WAL fsync, and a final synchronous
    /// checkpoint (skipped when the newest on-disk checkpoint is already
    /// current) — after which a restart replays zero records. No-op for
    /// memory-only engines.
    pub fn shutdown_durability(&self) -> Result<(), StorageError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        if d.is_poisoned() {
            return Err(StorageError::Io(std::io::Error::other(
                "durability layer poisoned; in-memory state was not flushed",
            )));
        }
        let snap = self.snapshot();
        // One store guard across mark + flush + checkpoint serializes
        // against any in-flight background checkpoint.
        let mut store = d.store()?;
        store.append(&WalRecord::Mark {
            tcs_epoch: snap.tcs_epoch,
            data_epoch: snap.data_epoch,
        })?;
        store.flush()?;
        write_checkpoint(&mut store, &snap.checkpoint_image(), &self.metrics)
    }

    /// Post-mutation housekeeping: ticks the checkpoint counter and, when
    /// the threshold is reached, captures the freshly published snapshot
    /// (its vocabulary included) and hands it to the background
    /// checkpointer. Called with **no** engine lock held.
    fn after_mutation(&self) {
        let Some(d) = &self.durability else {
            return;
        };
        let Some(pool) = &self.checkpointer else {
            return;
        };
        if d.checkpoint_every == 0 || d.is_poisoned() {
            return;
        }
        let ticked = d.since_checkpoint.fetch_add(1, Ordering::SeqCst) + 1;
        if ticked < d.checkpoint_every {
            return;
        }
        if d.checkpointing.swap(true, Ordering::SeqCst) {
            return; // one checkpoint in flight is enough
        }
        let pending = d.since_checkpoint.swap(0, Ordering::SeqCst);
        let snap = self.snapshot();
        let worker = Arc::clone(d);
        let metrics = Arc::clone(&self.metrics);
        pool.execute(move || {
            let image = snap.checkpoint_image();
            let written = worker
                .store()
                .and_then(|mut store| write_checkpoint(&mut store, &image, &metrics));
            if written.is_err() {
                // Checkpointing is an optimization: the WAL still holds
                // everything. Restore the tick count so the next mutation
                // retries.
                worker.since_checkpoint.fetch_add(pending, Ordering::SeqCst);
            }
            worker.checkpointing.store(false, Ordering::SeqCst);
        });
    }

    /// The engine's metrics (shared with the request handlers).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The engine's compute executor.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Whether this engine has a durability layer. Replication requires
    /// one: the WAL *is* the replication log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The live replication feed; streamers subscribe one per replica.
    pub(crate) fn replication_hub(&self) -> &Arc<ReplicationHub> {
        &self.repl
    }

    /// What this replica knows of its primary; `None` unless the engine
    /// was opened with [`Engine::open_replica`].
    pub fn replica_status(&self) -> Option<&ReplicaStatus> {
        self.replica.as_ref()
    }

    /// The retained WAL ops strictly past history position `from_sum`
    /// (epoch sum), in log order — replication catch-up. Errors on a
    /// memory-only engine.
    pub(crate) fn wal_records_since(&self, from_sum: u64) -> Result<Vec<WalRecord>, StorageError> {
        let Some(d) = &self.durability else {
            return Err(StorageError::Io(std::io::Error::other(
                "memory-only engine has no WAL",
            )));
        };
        d.store()?.records_since(from_sum)
    }

    /// The newest on-disk checkpoint as raw image bytes plus its epochs —
    /// the snapshot bootstrap for a replica whose position the log no
    /// longer covers. `None` when no checkpoint exists (or the engine is
    /// memory-only).
    pub(crate) fn newest_checkpoint_raw(
        &self,
    ) -> Result<Option<(u64, u64, Vec<u8>)>, StorageError> {
        let Some(d) = &self.durability else {
            return Ok(None);
        };
        d.store()?.newest_checkpoint_raw()
    }

    /// The current `(tcs_epoch, data_epoch)` pair.
    pub fn epochs(&self) -> (u64, u64) {
        let snap = self.snapshot();
        (snap.tcs_epoch, snap.data_epoch)
    }

    /// Clones the latest published snapshot out of the swap point. The
    /// lock is held only for the `Arc` clone; everything the caller does
    /// with the snapshot afterwards is lock-free.
    fn snapshot(&self) -> Arc<StateSnapshot> {
        Arc::clone(&self.lock_current())
    }

    /// Publishes `writer`'s state as the new current snapshot. Called
    /// with the writer mutex held, so snapshots appear in write order.
    fn swap(&self, writer: &WriterState) {
        *self.lock_current() = writer.publish();
    }

    /// Handles one protocol request line and returns the response line
    /// (without a trailing newline). Never panics on malformed input —
    /// errors come back as `err <code> <message>` responses.
    pub fn handle(&self, line: &str) -> String {
        self.execute(&Request::parse(line))
    }

    /// Executes one tokenized request and returns its response line,
    /// counting it under its op in `metrics`.
    pub(crate) fn execute(&self, request: &Request) -> String {
        let start = Instant::now();
        let (op, result) = match request {
            Request::Payload(op, text) => (*op, self.run(*op, text)),
            Request::Specialize(k, query) => (Op::Specialize, self.req_specialize(*k, query)),
            Request::Analyze(state, query) => (Op::Analyze, self.req_analyze(*state, query)),
            Request::Metrics => {
                let caches = CacheCounts {
                    verdict: self.verdicts.counts(),
                    answer: self.answer_cache.counts(),
                    plan: self.plans.counts(),
                    analysis: self.analysis.counts(),
                    cert: self.why_cache.counts(),
                };
                let fields = self.metrics.render(&caches, &self.exec.counters());
                (Op::Other, Ok(format!("ok {fields}")))
            }
            Request::Plans => {
                // Plan-cache introspection: one `<query>:joins=[...]` item
                // per cached entry, recording the join operator the cost
                // model chose for each join op of the plan.
                let plans = self.plans.lock();
                let mut items: Vec<String> = plans
                    .entries()
                    .map(|(_, p)| {
                        let joins: Vec<&str> = p
                            .compiled
                            .join_strategies()
                            .iter()
                            .map(|s| s.name())
                            .collect();
                        format!("{}:joins=[{}]", p.head, joins.join(","))
                    })
                    .collect();
                items.sort();
                (
                    Op::Other,
                    Ok(format!("ok {} {}", items.len(), items.join(" "))
                        .trim_end()
                        .to_string()),
                )
            }
            Request::Epochs => {
                let (te, de) = self.epochs();
                (Op::Other, Ok(format!("ok tcs={te} data={de}")))
            }
            Request::Replication => (Op::Other, Ok(self.req_replication())),
            Request::Ping => (Op::Other, Ok("ok pong".to_string())),
            Request::Invalid(op, msg) => (*op, Err(("proto", msg.clone()))),
            // The front end answers these itself.
            Request::Quit => (Op::Other, Err(("proto", unknown("quit")))),
            Request::Frames(_) => (Op::Other, Err(("proto", unknown("frames")))),
            Request::Replicate(_) => (Op::Other, Err(("proto", unknown("replicate")))),
        };
        let is_error = result.is_err();
        self.metrics.record(op, start.elapsed(), is_error);
        match result {
            Ok(reply) => reply,
            Err((code, msg)) => format!("err {code} {}", msg.replace('\n', " ")),
        }
    }

    /// Runs the request `op` on its payload `text`.
    fn run(&self, op: Op, text: &str) -> Result<String, (&'static str, String)> {
        match op {
            Op::Check => self.req_check(text),
            Op::Why => self.req_why(text),
            Op::Generalize => self.req_generalize(text),
            Op::Eval => self.req_eval(text),
            Op::Guaranteed => self.req_guaranteed(text),
            // A replica's state changes only by applying its primary's log.
            Op::Assert | Op::Retract | Op::Compl if self.replica.is_some() => Err((
                "readonly",
                "this replica serves reads only; send writes to the primary".to_string(),
            )),
            Op::Assert => self.write(OpKind::Assert, text),
            Op::Retract => self.write(OpKind::Retract, text),
            Op::Compl => self.write(OpKind::Compl, text),
            Op::Specialize | Op::Analyze | Op::Other => {
                unreachable!("tokenized into their own requests")
            }
        }
    }

    /// `replication` — this node's role, epochs, and lag or subscribers.
    fn req_replication(&self) -> String {
        let (te, de) = self.epochs();
        match &self.replica {
            Some(status) => {
                let (pte, pde) = status.primary_epochs();
                let lag = (pte + pde).saturating_sub(te + de);
                format!(
                    "ok role=replica connected={} primary_tcs={pte} primary_data={pde} \
                     tcs={te} data={de} lag={lag}",
                    status.is_connected()
                )
            }
            None => format!(
                "ok role=primary durable={} tcs={te} data={de} subscribers={}",
                self.is_durable(),
                self.repl.subscribers()
            ),
        }
    }

    /// The latest snapshot, and `src` parsed into a request-local
    /// overlay of its vocabulary, which the read renders from.
    fn parse_read(
        &self,
        src: &str,
    ) -> Result<(Arc<StateSnapshot>, Vocabulary, Query), (&'static str, String)> {
        let snap = self.snapshot();
        let mut vocab = snap.vocab.clone();
        let q = parse_query(src, &mut vocab).map_err(|e| ("parse", e.to_string()))?;
        Ok((snap, vocab, q))
    }

    /// `check <query>` — is the query complete under the current TCS set?
    fn req_check(&self, src: &str) -> Result<String, (&'static str, String)> {
        let (snap, vocab, q) = self.parse_read(src)?;
        let key = (CacheForm::of(&q, &vocab).key, snap.tcs_epoch);
        let verdict = self
            .verdicts
            .get_or_insert_with(key, || is_complete(&q, &snap.tcs));
        Ok(render_verdict(verdict))
    }

    /// `why <query>` — the completeness verdict plus a certificate,
    /// validated by the independent `magik-cert` checker before it is
    /// rendered (an engine bug that forges an unsound certificate comes
    /// back as `cert=INVALID`, never as a silently wrong `ok`).
    fn req_why(&self, src: &str) -> Result<String, (&'static str, String)> {
        let (snap, vocab, q) = self.parse_read(src)?;
        let key = (CacheForm::of(&q, &vocab).key, snap.tcs_epoch);
        Ok(self
            .why_cache
            .get_or_insert_with(key, || self.certified_reply(&q, &snap.tcs, &vocab)))
    }

    /// Certifies `q` against `tcs`, checks the certificate and renders
    /// the `why` reply.
    fn certified_reply(&self, q: &Query, tcs: &TcSet, vocab: &Vocabulary) -> String {
        let cert = certify(q, tcs);
        let valid = check_certificate(q, &cert_statements(tcs), &cert).is_ok();
        let validity = if valid { "valid" } else { "INVALID" };
        self.metrics.add(
            match cert {
                Certificate::Complete(_) => Counter::CertComplete,
                Certificate::Incomplete { .. } => Counter::CertIncomplete,
            },
            1,
        );
        match &cert {
            Certificate::Complete(c) => format!(
                "ok complete cert={validity} derivations={}",
                c.derivations.len()
            ),
            Certificate::Incomplete {
                counterexample,
                repair,
            } => {
                let suggestions = match repair {
                    Some(r) => r
                        .additions
                        .iter()
                        .map(|a| format!("compl {} ; true", a.display(vocab)))
                        .collect::<Vec<_>>()
                        .join(" | "),
                    None => String::new(),
                };
                format!(
                    "ok incomplete cert={validity} lost={} repair=[{suggestions}]",
                    counterexample.target.display(vocab)
                )
            }
        }
    }

    /// `generalize <query>` — the minimal complete generalization.
    fn req_generalize(&self, src: &str) -> Result<String, (&'static str, String)> {
        let (snap, vocab, q) = self.parse_read(src)?;
        Ok(match mcg(&q, &snap.tcs) {
            Some(g) => format!("ok {}", print_query(&g, &vocab)),
            None => "ok none".to_string(),
        })
    }

    /// `specialize <k> <query>` — the k-MCSs, `|`-separated. The search
    /// names its scratch variables in the request's overlay, numbered
    /// from the snapshot's fresh counter.
    fn req_specialize(&self, k: usize, src: &str) -> Result<String, (&'static str, String)> {
        let (snap, mut vocab, q) = self.parse_read(src)?;
        if q.size().checked_add(k).is_none() {
            return Err((
                "proto",
                format!("invalid k `{k}`: the bound |Q| + k overflows"),
            ));
        }
        let outcome = k_mcs_on(&q, &snap.tcs, &mut vocab, KMcsOptions::new(k), &self.exec);
        let rendered: Vec<String> = outcome
            .queries
            .iter()
            .map(|s| print_query(s, &vocab))
            .collect();
        Ok(format!("ok {} {}", rendered.len(), rendered.join(" | "))
            .trim_end()
            .to_string())
    }

    /// `eval <query>` — answers over the stored database.
    ///
    /// Two cache tiers: the answer cache (rendered replies, invalidated
    /// by data-epoch bumps) and, on answer misses, the plan cache
    /// (compiled plans, valid across data epochs). A query that misses
    /// both is compiled once and its plan kept for the session.
    /// Evaluation runs on the snapshot — concurrent writers proceed
    /// undisturbed.
    fn req_eval(&self, src: &str) -> Result<String, (&'static str, String)> {
        let (snap, vocab, q) = self.parse_read(src)?;
        let form = CacheForm::of(&q, &vocab);
        let key = (form.key.clone(), snap.data_epoch);
        if let Some(reply) = self.answer_cache.get(&key) {
            return Ok(reply.to_string());
        }
        let plan = match self.plans.get(&form.key) {
            Some(plan) => plan,
            None => {
                // Failed compiles (unsafe queries) are not cached: the
                // error must be re-reported per request.
                let compiled = CompiledQuery::compile(&form.query, Some(&snap.db))
                    .map_err(|e| ("eval", e.display(&vocab).to_string()))?;
                let plan = Arc::new(CachedPlan {
                    head: vocab.name(q.name).to_string(),
                    compiled,
                });
                self.plans.insert(form.key.clone(), Arc::clone(&plan));
                plan
            }
        };
        let mut stats = ExecStats::default();
        let set = plan.compiled.answers(&snap.db, &mut stats);
        self.metrics.add_exec(&stats);
        let rendered: Vec<String> = set
            .iter()
            .map(|t| form.restore(t).display(&vocab).to_string())
            .collect();
        let reply = format!("ok {} {}", rendered.len(), rendered.join("; "))
            .trim_end()
            .to_string();
        self.answer_cache.insert(key, Arc::from(reply.as_str()));
        Ok(reply)
    }

    /// The one write path of client writes, WAL replay and replica apply.
    /// Under the writer mutex: parse `text` into a clone of the writer's
    /// vocabulary, answer a duplicate `assert` or an absent `retract` as a
    /// no-op, log the op with its post-op epochs (an append failure leaves
    /// memory untouched), apply it, keep the clone and publish.
    fn write(&self, kind: OpKind, text: &str) -> Result<String, (&'static str, String)> {
        let mut writer = self.lock_writer();
        let mut vocab = writer.vocab.clone();
        let edit = match kind {
            OpKind::Compl => {
                Edit::Add(parse_tcs(text, &mut vocab).map_err(|e| ("parse", e.to_string()))?)
            }
            OpKind::Assert | OpKind::Retract => {
                let fact = parse_fact(text, &mut vocab)?;
                match (kind, writer.db.contains(&fact)) {
                    (OpKind::Assert, true) => return Ok("ok duplicate".to_string()),
                    (OpKind::Retract, false) => return Ok("ok absent".to_string()),
                    (OpKind::Assert, false) => Edit::Insert(fact),
                    _ => Edit::Remove(fact),
                }
            }
        };
        let (tcs_epoch, data_epoch) = match edit {
            Edit::Add(_) => (writer.tcs_epoch + 1, writer.data_epoch),
            Edit::Insert(_) | Edit::Remove(_) => (writer.tcs_epoch, writer.data_epoch + 1),
        };
        if let Some(d) = &self.durability {
            let rec = WalRecord::Op {
                kind,
                text: text.to_string(),
                tcs_epoch,
                data_epoch,
            };
            let append = d.append(&rec).map_err(|e| ("storage", e.to_string()))?;
            self.metrics.add(Counter::WalAppends, 1);
            self.metrics.add(Counter::WalBytes, append.bytes);
            self.metrics
                .add(Counter::WalFsyncs, u64::from(append.synced));
            // Still under the writer mutex, so the replication feed is in
            // log order and gap-free.
            self.repl.publish(&rec);
        }
        writer.vocab = vocab;
        writer.vocab.freeze();
        writer.tcs_epoch = tcs_epoch;
        writer.data_epoch = data_epoch;
        let reply = match edit {
            Edit::Insert(fact) => {
                writer.db.insert(fact.clone());
                if let Some(&pi) = writer.ideal.get(&fact.pred) {
                    writer.tc_mat.insert(Fact::new(pi, fact.args));
                }
                "ok inserted".to_string()
            }
            Edit::Remove(fact) => {
                writer.db.remove(&fact);
                if let Some(&pi) = writer.ideal.get(&fact.pred) {
                    let stats = writer.tc_mat.retract_all([Fact::new(pi, fact.args)]);
                    self.metrics
                        .add(Counter::DredOverdeleted, stats.overdeleted as u64);
                    self.metrics
                        .add(Counter::DredRederived, stats.rederived as u64);
                }
                "ok retracted".to_string()
            }
            Edit::Add(stmt) => {
                Arc::make_mut(&mut writer.tcs).push(stmt);
                writer.rebuild_tc(&self.exec);
                format!("ok epoch={tcs_epoch}")
            }
        };
        self.swap(&writer);
        if kind == OpKind::Compl {
            // Stale verdict keys are unreachable after the epoch bump, and a
            // `compl` reshapes the predicate landscape plans were built
            // for: drop both rather than let them occupy capacity.
            self.verdicts.clear();
            self.plans.clear();
        }
        drop(writer);
        self.after_mutation();
        Ok(reply)
    }

    /// `guaranteed <atom>` — is this fact certain to be available, i.e.
    /// derived by the materialized T_C fixpoint?
    fn req_guaranteed(&self, src: &str) -> Result<String, (&'static str, String)> {
        let snap = self.snapshot();
        let fact = parse_fact(src, &mut snap.vocab.clone())?;
        let guaranteed = match snap.avail.get(&fact.pred) {
            Some(&pa) => snap.tc_model.contains(&Fact::new(pa, fact.args)),
            None => false,
        };
        Ok(format!("ok {guaranteed}"))
    }

    /// `analyze [state] [<query>]` — static analysis of the session.
    ///
    /// * `analyze` — the statement-set diagnostics (M001–M005) over the
    ///   session TCS set.
    /// * `analyze <query>` — the per-query diagnostics (M006–M010).
    /// * `analyze state` — the live-session diagnostics (M018–M024) over
    ///   the TCS set *and* the stored instance; cached per
    ///   `(tcs_epoch, data_epoch)`, so repeated requests at an unchanged
    ///   epoch are cache hits.
    /// * `analyze state <query>` — the trivially-incomplete check (M022)
    ///   for a concrete query against the live statement set.
    ///
    /// Diagnostics come back `|`-separated on one line; the session holds
    /// no integrity constraints, so the constraint-dependent checks are
    /// vacuous.
    fn req_analyze(&self, state: bool, src: &str) -> Result<String, (&'static str, String)> {
        let constraints = ConstraintSet::default();
        if !src.is_empty() {
            let (snap, vocab, q) = self.parse_read(src)?;
            return Ok(render_diags(&if state {
                analyze_check(0, &q, &snap.tcs, &vocab)
            } else {
                analyze_query(0, &q, &snap.tcs, &constraints, &vocab)
            }));
        }
        let snap = self.snapshot();
        if !state {
            let diags = analyze_statements(&snap.tcs, &constraints, &snap.vocab);
            return Ok(render_diags(&diags));
        }
        let key = (snap.tcs_epoch, snap.data_epoch);
        Ok(self.analysis.get_or_insert_with(key, || {
            let facts: Vec<Fact> = snap.db.iter_facts().collect();
            render_diags(&analyze_state(&snap.tcs, &constraints, &facts, &snap.vocab))
        }))
    }
}

/// The change one write makes: `assert`, `retract` or `compl`.
enum Edit {
    Insert(Fact),
    Remove(Fact),
    Add(TcStatement),
}

/// Parses a ground fact (a trailing `.` is optional) into `vocab`.
fn parse_fact(src: &str, vocab: &mut Vocabulary) -> Result<Fact, (&'static str, String)> {
    let src = src.strip_suffix('.').unwrap_or(src);
    let atom = parse_atom(src, vocab).map_err(|e| ("parse", e.to_string()))?;
    atom.to_fact()
        .ok_or_else(|| ("proto", "fact must be ground (no variables)".to_string()))
}

/// A query's key in the verdict, answer, plan and `why` caches: the
/// canonical form of its [`CacheForm`], plus the spellings of the
/// predicates (name and arity) and constants local to the request's
/// overlay that it mentions, in id order. Two requests may give different
/// local names the same id; their keys then differ in the spellings.
/// Equal keys name the same query: the forms agree on every shared name,
/// a local constant is the placeholder of its rank, and a predicate id
/// that one request holds local and the other shares (written in
/// between) would give the first key one spelling more. Minimization
/// only drops atoms that map onto kept ones, so the form mentions a local
/// name exactly when the query does.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    canon: CanonicalQuery,
    local_preds: Vec<(String, usize)>,
    local_csts: Vec<String>,
}

/// A read's query as the caches see it. Every write may intern new
/// constants, and a local name's id is the next free one, so local
/// constants are replaced by placeholders that depend only on their rank:
/// a session that never writes `bolzano` still shares one entry for the
/// queries that name it. Local predicate ids move only when a write adds
/// a predicate, and stay in the form as they are.
#[derive(Debug)]
struct CacheForm<'q> {
    key: QueryKey,
    /// The query with its `r`-th local constant (in id order) replaced by
    /// the frozen constant of [`Var::reserved`]`(r)`, which equals no
    /// frozen variable of the query: minimization keeps it apart from the
    /// query's variables, as it keeps the local constant. It matches no
    /// stored fact, as the local constant does not. The request's own
    /// query when it names no local constant.
    query: Cow<'q, Query>,
    /// The request's local constants, in id order.
    locals: Vec<Cst>,
}

impl<'q> CacheForm<'q> {
    fn of(q: &'q Query, vocab: &Vocabulary) -> CacheForm<'q> {
        let local_preds: BTreeSet<Pred> = q
            .body
            .iter()
            .map(|a| a.pred)
            .filter(|&p| vocab.is_local_pred(p))
            .collect();
        let local = |t: &Term| match *t {
            Term::Cst(Cst::Data(s)) if vocab.is_local(s) => Some(s),
            _ => None,
        };
        let local_csts: BTreeSet<Symbol> = q
            .head
            .iter()
            .chain(q.body.iter().flat_map(|a| &a.args))
            .filter_map(local)
            .collect();
        let locals: Vec<Symbol> = local_csts.into_iter().collect();
        let query = if locals.is_empty() {
            Cow::Borrowed(q)
        } else {
            let relabel = |t: &Term| match local(t) {
                Some(s) => {
                    let rank = locals.binary_search(&s).expect("collected above");
                    Term::Cst(Cst::Frozen(Var::reserved(rank)))
                }
                None => *t,
            };
            Cow::Owned(Query::new(
                q.name,
                q.head.iter().map(relabel).collect(),
                q.body
                    .iter()
                    .map(|a| Atom::new(a.pred, a.args.iter().map(relabel).collect()))
                    .collect(),
            ))
        };
        CacheForm {
            key: QueryKey {
                canon: CanonicalQuery::of(&query),
                local_preds: local_preds
                    .into_iter()
                    .map(|p| (vocab.pred_name(p).to_string(), vocab.arity(p)))
                    .collect(),
                local_csts: locals.iter().map(|&s| vocab.name(s).to_string()).collect(),
            },
            query,
            locals: locals.into_iter().map(Cst::Data).collect(),
        }
    }

    /// `answer` with each placeholder replaced by the request's own local
    /// constant of that rank (`answer` itself when there is none).
    fn restore<'a>(&self, answer: &'a Answer) -> Cow<'a, Answer> {
        if self.locals.is_empty() {
            return Cow::Borrowed(answer);
        }
        Cow::Owned(
            answer
                .iter()
                .map(|&c| match c {
                    Cst::Frozen(v) => self.locals[v.reserved_rank()],
                    Cst::Data(_) => c,
                })
                .collect(),
        )
    }
}

/// Writes `image` through `store`, counting it in `checkpoint.*` unless
/// the newest checkpoint was already current.
fn write_checkpoint(
    store: &mut Store,
    image: &CheckpointImage,
    metrics: &Metrics,
) -> Result<(), StorageError> {
    let start = Instant::now();
    if store.checkpoint(image)?.written {
        let took = u64::try_from(start.elapsed().as_millis()).unwrap_or(u64::MAX);
        metrics.add(Counter::CheckpointCount, 1);
        metrics.add(Counter::CheckpointMs, took);
    }
    Ok(())
}

fn render_diags(diags: &[magik_analyze::Diagnostic]) -> String {
    let rendered: Vec<String> = diags
        .iter()
        .map(|d| format!("{}[{}] {}", d.severity, d.code, d.message))
        .collect();
    format!("ok {} {}", rendered.len(), rendered.join(" | "))
        .trim_end()
        .to_string()
}

fn render_verdict(complete: bool) -> String {
    if complete {
        "ok complete".to_string()
    } else {
        "ok incomplete".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_engine() -> Engine {
        let e = Engine::new();
        assert_eq!(
            e.handle("compl school(S, primary, D) ; true."),
            "ok epoch=1"
        );
        assert_eq!(
            e.handle("compl pupil(N, C, S) ; school(S, T, merano)."),
            "ok epoch=2"
        );
        e
    }

    #[test]
    fn check_reproduces_the_running_example() {
        let e = paper_engine();
        assert_eq!(
            e.handle("check q(N) :- pupil(N, C, S), school(S, primary, merano)."),
            "ok complete"
        );
        assert_eq!(
            e.handle("check q(N) :- pupil(N, C, S), school(S, primary, bolzano)."),
            "ok incomplete"
        );
    }

    #[test]
    fn verdict_cache_hits_on_alpha_variants() {
        let e = paper_engine();
        let q1 = "check q(N) :- pupil(N, C, S), school(S, primary, merano).";
        let q2 = "check q(A) :- school(Z, primary, merano), pupil(A, B, Z).";
        assert_eq!(e.handle(q1), "ok complete");
        assert_eq!(e.handle(q2), "ok complete");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("verdict_cache.hits=1 verdict_cache.misses=1"),
            "{metrics}"
        );
    }

    #[test]
    fn why_emits_validated_certificates() {
        let e = paper_engine();
        assert_eq!(
            e.handle("why q(N) :- pupil(N, C, S), school(S, primary, merano)."),
            "ok complete cert=valid derivations=2"
        );
        let reply =
            e.handle("why q(N) :- pupil(N, C, S), school(S, primary, merano), learns(N, L).");
        assert!(
            reply.starts_with("ok incomplete cert=valid lost=(N')"),
            "{reply}"
        );
        assert!(
            reply.contains("repair=[compl learns(N, L) ; true]"),
            "{reply}"
        );
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("cert.complete=1 cert.incomplete=1"),
            "{metrics}"
        );
    }

    #[test]
    fn why_caches_per_epoch_pair() {
        let e = paper_engine();
        let q = "why q(N) :- pupil(N, C, S), school(S, primary, merano).";
        let alpha = "why q(A) :- school(Z, primary, merano), pupil(A, B, Z).";
        assert_eq!(e.handle(q), "ok complete cert=valid derivations=2");
        // Alpha-variant at the same epochs: canonicalization makes it hit.
        assert_eq!(e.handle(alpha), "ok complete cert=valid derivations=2");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("cert.cache.hits=1 cert.cache.misses=1"),
            "{metrics}"
        );
        // A certificate depends on the query and the TCS set only
        // (Theorem 3), so a data-epoch bump keeps the cached reply.
        e.handle("assert school(hofer, primary, merano).");
        assert_eq!(e.handle(q), "ok complete cert=valid derivations=2");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("cert.cache.hits=2 cert.cache.misses=1"),
            "{metrics}"
        );
        // A TCS change flips the verdict itself — no stale reply.
        let e2 = Engine::new();
        assert!(e2
            .handle("why q(N) :- pupil(N, C, S).")
            .starts_with("ok incomplete"));
        e2.handle("compl pupil(N, C, S) ; true.");
        assert!(e2
            .handle("why q(N) :- pupil(N, C, S).")
            .starts_with("ok complete"));
    }

    #[test]
    fn compl_invalidates_verdicts() {
        let e = Engine::new();
        let q = "check q(N) :- pupil(N, C, S).";
        assert_eq!(e.handle(q), "ok incomplete");
        assert_eq!(e.handle("compl pupil(N, C, S) ; true."), "ok epoch=1");
        assert_eq!(e.handle(q), "ok complete");
    }

    #[test]
    fn assert_and_retract_maintain_guarantees() {
        let e = Engine::new();
        e.handle("compl pupil(N, C, S) ; school(S, T, merano).");
        assert_eq!(e.handle("guaranteed pupil(anna, c1, hofer)."), "ok false");
        assert_eq!(
            e.handle("assert school(hofer, primary, merano)."),
            "ok inserted"
        );
        // The TCS guarantees pupils of Merano schools: with the school
        // stored, pupil facts at that school become guaranteed only via
        // the condition's *ideal* copy — T_C derives from R^i facts.
        assert_eq!(
            e.handle("guaranteed school(hofer, primary, merano)."),
            "ok false"
        );
        assert_eq!(e.handle("assert pupil(anna, c1, hofer)."), "ok inserted");
        assert_eq!(e.handle("guaranteed pupil(anna, c1, hofer)."), "ok true");
        assert_eq!(
            e.handle("retract school(hofer, primary, merano)."),
            "ok retracted"
        );
        assert_eq!(e.handle("guaranteed pupil(anna, c1, hofer)."), "ok false");
    }

    #[test]
    fn eval_answers_and_caches_by_data_epoch() {
        let e = Engine::new();
        e.handle("assert edge(a, b).");
        e.handle("assert edge(b, c).");
        let q = "eval q(X, Y) :- edge(X, Y).";
        assert_eq!(e.handle(q), "ok 2 (a, b); (b, c)");
        assert_eq!(e.handle(q), "ok 2 (a, b); (b, c)");
        e.handle("assert edge(c, d).");
        assert_eq!(e.handle(q), "ok 3 (a, b); (b, c); (c, d)");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("answer_cache.hits=1 answer_cache.misses=2"),
            "{metrics}"
        );
    }

    #[test]
    fn eval_reuses_compiled_plans_across_data_epochs() {
        let e = Engine::new();
        e.handle("assert edge(a, b).");
        let q = "eval q(X, Y) :- edge(X, Y).";
        assert_eq!(e.handle(q), "ok 1 (a, b)");
        // The data-epoch bump invalidates the answers but not the plan.
        e.handle("assert edge(b, c).");
        assert_eq!(e.handle(q), "ok 2 (a, b); (b, c)");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("plan_cache.hits=1 plan_cache.misses=1"),
            "{metrics}"
        );
        assert!(metrics.contains("exec.probes="), "{metrics}");
        // `compl` clears the plan cache: the next evaluation that misses
        // the answer cache recompiles.
        e.handle("compl edge(X, Y) ; true.");
        e.handle("assert edge(c, d).");
        assert_eq!(e.handle(q), "ok 3 (a, b); (b, c); (c, d)");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("plan_cache.hits=1 plan_cache.misses=2"),
            "{metrics}"
        );
    }

    #[test]
    fn plans_command_reports_join_operator_choices() {
        let e = Engine::new();
        assert_eq!(e.handle("plans"), "ok 0");
        e.handle("assert edge(a, b).");
        e.handle("assert edge(b, c).");
        e.handle("eval q(X, Z) :- edge(X, Y), edge(Y, Z).");
        let plans = e.handle("plans");
        assert!(plans.starts_with("ok 1 q:joins=["), "{plans}");
        // The batch executor ran: batch and join-strategy counters moved.
        let metrics = e.handle("metrics");
        assert!(metrics.contains("exec.batch.count="), "{metrics}");
        assert!(!metrics.contains("exec.batch.count=0"), "{metrics}");
        assert!(metrics.contains("exec.join.nested="), "{metrics}");
    }

    #[test]
    fn eval_unsafe_query_errors_and_is_not_plan_cached() {
        let e = Engine::new();
        e.handle("assert edge(a, b).");
        let q = "eval q(X, Y) :- edge(X, Z).";
        let refusal = "err eval unsafe query: head variable Y does not occur in the body";
        assert_eq!(e.handle(q), refusal);
        assert_eq!(e.handle(q), refusal);
        let metrics = e.handle("metrics");
        assert!(metrics.contains("plan_cache.hits=0"), "{metrics}");
    }

    #[test]
    fn malformed_requests_get_error_replies() {
        let e = Engine::new();
        assert!(e.handle("frobnicate x").starts_with("err proto "));
        assert!(e.handle("check q(X :-").starts_with("err parse "));
        assert!(e.handle("assert p(X).").starts_with("err proto "));
        assert!(e
            .handle("specialize q(X) :- r(X).")
            .starts_with("err proto "));
        assert!(e.handle("").starts_with("err proto "));
    }

    #[test]
    fn analyze_reports_statement_and_query_diagnostics() {
        let e = Engine::new();
        e.handle("compl pupil(N, C, S) ; class(C, S, L, T).");
        // Statement-set analysis: the class condition is unguaranteeable.
        let s = e.handle("analyze");
        assert!(s.starts_with("ok 1 warning[M004]"), "{s}");
        // Query analysis: pupil is transitively dead.
        let q = e.handle("analyze q(N) :- pupil(N, C, S).");
        assert!(q.contains("[M008]"), "{q}");
        // An unsafe query is flagged, not evaluated.
        let unsafe_q = e.handle("analyze q(X, Y) :- pupil(X, C, S).");
        assert!(unsafe_q.contains("error[M006]"), "{unsafe_q}");
        assert!(e.handle("analyze q(X :-").starts_with("err parse "));
    }

    #[test]
    fn analyze_state_reports_live_session_diagnostics() {
        let e = Engine::new();
        // Facts but no statements: M023 (and only M023 — the empty set
        // mutes the per-relation blind spots).
        e.handle("assert pupil(john, c1, goethe).");
        let s = e.handle("analyze state");
        assert!(s.starts_with("ok 1 info[M023]"), "{s}");
        // A statement for school leaves pupil a blind spot (M020) and,
        // matching no stored fact, is itself vacuous (M021).
        e.handle("compl school(S, primary, D) ; true.");
        let s = e.handle("analyze state");
        assert!(s.contains("warning[M020]"), "{s}");
        assert!(s.contains("info[M021]"), "{s}");
        assert!(!s.contains("M023"), "{s}");
        // The trivially-incomplete check for a concrete query: class
        // heads no statement, so the check can never succeed.
        e.handle("compl pupil(N, C, S) ; class(C, S, L, T).");
        let q = e.handle("analyze state q(N) :- pupil(N, C, S).");
        assert!(q.contains("warning[M022]"), "{q}");
        assert!(e.handle("analyze state q(X :-").starts_with("err parse "));
    }

    #[test]
    fn analyze_state_caches_by_epoch_pair() {
        let e = Engine::new();
        e.handle("compl school(S, primary, D) ; true.");
        e.handle("assert pupil(john, c1, goethe).");
        let first = e.handle("analyze state");
        // Unchanged epochs: the second request must hit the cache and
        // return the identical reply.
        assert_eq!(e.handle("analyze state"), first);
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("analysis_cache.hits=1 analysis_cache.misses=1"),
            "{metrics}"
        );
        // A data-epoch bump moves the key: the next request recomputes.
        e.handle("assert school(goethe, primary, merano).");
        let after = e.handle("analyze state");
        assert_ne!(after, first, "{after}");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("analysis_cache.hits=1 analysis_cache.misses=2"),
            "{metrics}"
        );
        // No-op mutations publish nothing, so the cache stays warm.
        e.handle("assert school(goethe, primary, merano).");
        assert_eq!(e.handle("analyze state"), after);
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("analysis_cache.hits=2 analysis_cache.misses=2"),
            "{metrics}"
        );
    }

    #[test]
    fn generalize_and_specialize_round_trip() {
        let e = paper_engine();
        let g = e.handle("generalize q(N) :- pupil(N, C, S), school(S, primary, bolzano).");
        assert!(g.starts_with("ok "), "{g}");
        let s = e.handle("specialize 0 q(N) :- pupil(N, C, S), school(S, primary, bolzano).");
        assert!(s.starts_with("ok "), "{s}");
    }

    #[test]
    fn epochs_are_visible_and_monotone() {
        let e = Engine::new();
        assert_eq!(e.epochs(), (0, 0));
        e.handle("assert edge(a, b).");
        assert_eq!(e.epochs(), (0, 1));
        e.handle("compl edge(X, Y) ; true.");
        assert_eq!(e.epochs(), (1, 1));
        // Duplicate inserts and absent retracts publish nothing.
        e.handle("assert edge(a, b).");
        e.handle("retract edge(z, z).");
        assert_eq!(e.epochs(), (1, 1));
    }

    #[test]
    fn noop_mutations_keep_caches_warm() {
        let e = Engine::new();
        e.handle("compl edge(X, Y) ; true.");
        e.handle("assert edge(a, b).");
        let ev = "eval q(X, Y) :- edge(X, Y).";
        let ck = "check q(X, Y) :- edge(X, Y).";
        assert_eq!(e.handle(ev), "ok 1 (a, b)");
        assert_eq!(e.handle(ck), "ok complete");
        // A duplicate assert and an absent retract change nothing, so the
        // cached answers and verdicts must keep hitting.
        assert_eq!(e.handle("assert edge(a, b)."), "ok duplicate");
        assert_eq!(e.handle("retract edge(z, z)."), "ok absent");
        assert_eq!(e.handle(ev), "ok 1 (a, b)");
        assert_eq!(e.handle(ck), "ok complete");
        let metrics = e.handle("metrics");
        assert!(
            metrics.contains("answer_cache.hits=1 answer_cache.misses=1"),
            "{metrics}"
        );
        assert!(
            metrics.contains("verdict_cache.hits=1 verdict_cache.misses=1"),
            "{metrics}"
        );
    }

    #[test]
    fn retract_reports_dred_metrics() {
        let e = Engine::new();
        // The TCS makes edge part of the T_C encoding, so asserts feed
        // the materialized model and retracts run DRed over it.
        e.handle("compl edge(X, Y) ; true.");
        e.handle("assert edge(a, b).");
        assert_eq!(e.handle("retract edge(a, b)."), "ok retracted");
        let metrics = e.handle("metrics");
        // The ideal copy of edge(a,b) and everything it derived was
        // over-deleted; nothing else derives it, so nothing comes back.
        assert!(field(&metrics, "dred.overdeleted") >= 1, "{metrics}");
        assert_eq!(field(&metrics, "dred.rederived"), 0, "{metrics}");
    }

    /// Panics on another thread while holding `cache`'s lock, as a buggy
    /// handler on another worker would.
    fn poison<K: Send, V: Send>(cache: &Cache<K, V>) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = cache.lru.lock().unwrap();
                    panic!("die holding a cache lock");
                })
                .join();
        });
    }

    /// The `name=<u64>` field of a `metrics` reply.
    fn field(metrics: &str, name: &str) -> u64 {
        metrics
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing in {metrics}"))
    }

    #[test]
    fn poisoned_cache_lock_is_recovered_not_fatal() {
        type Poison = fn(&Engine);
        // Each cache in turn: its metrics prefix, the poisoning, and the
        // requests that probe it. The plan case bumps the data epoch
        // (leaving the data as it was) so its `eval` misses the answer
        // cache and reaches the plan cache.
        let cases: [(&str, Poison, &[&str]); 5] = [
            (
                "verdict_cache",
                |e| poison(&e.verdicts),
                &["check q(N) :- pupil(N, C, S), school(S, primary, merano)."],
            ),
            (
                "answer_cache",
                |e| poison(&e.answer_cache),
                &["eval q(N) :- pupil(N, C, S)."],
            ),
            (
                "cert.cache",
                |e| poison(&e.why_cache),
                &["why q(N) :- pupil(N, C, S), school(S, primary, merano)."],
            ),
            (
                "analysis_cache",
                |e| poison(&e.analysis),
                &["analyze state"],
            ),
            (
                "plan_cache",
                |e| poison(&e.plans),
                &[
                    "assert pupil(zeno, c9, hofer).",
                    "retract pupil(zeno, c9, hofer).",
                    "eval q(N) :- pupil(N, C, S).",
                ],
            ),
        ];
        for (cache, poison, requests) in cases {
            let e = paper_engine();
            e.handle("assert pupil(anna, c1, hofer).");
            let serve = || requests.iter().map(|r| e.handle(r)).last();
            let reply = serve();
            poison(&e);
            // One handler panic must not deny service for good: the lock
            // is reclaimed, the cache cleared, and the request served.
            assert_eq!(serve(), reply, "{cache}");
            let metrics = e.handle("metrics");
            assert_eq!(field(&metrics, "lock.poisoned"), 1, "{cache}: {metrics}");
            // The recovered cache was cleared: the reply above was a
            // miss, not a stale (possibly half-inserted) entry.
            assert_eq!(field(&metrics, &format!("{cache}.hits")), 0, "{metrics}");
            assert_eq!(field(&metrics, &format!("{cache}.misses")), 2, "{metrics}");
            // Recovery is per-incident, not permanent degradation: the
            // next probe hits again.
            assert_eq!(serve(), reply, "{cache}");
            let metrics = e.handle("metrics");
            assert_eq!(field(&metrics, &format!("{cache}.hits")), 1, "{metrics}");
            assert_eq!(field(&metrics, "lock.poisoned"), 1, "{cache}: {metrics}");
        }
    }

    #[test]
    fn metrics_reply_field_layout_is_pinned() {
        // Scrapers and the benchmark's traced run parse these names, so
        // their set and order are part of the protocol.
        let e = Engine::new();
        let reply = e.handle("metrics");
        let fields: Vec<&str> = reply
            .strip_prefix("ok ")
            .unwrap_or_else(|| panic!("{reply}"))
            .split_whitespace()
            .map(|kv| kv.split_once('=').map_or(kv, |(k, _)| k))
            .collect();
        assert_eq!(
            fields,
            [
                "verdict_cache.hits",
                "verdict_cache.misses",
                "verdict_cache.rate",
                "answer_cache.hits",
                "answer_cache.misses",
                "answer_cache.rate",
                "plan_cache.hits",
                "plan_cache.misses",
                "plan_cache.rate",
                "exec.probes",
                "exec.scanned",
                "exec.backtracks",
                "exec.batch.count",
                "exec.batch.rows",
                "exec.join.nested",
                "exec.join.hash",
                "exec.join.merge",
                "analysis_cache.hits",
                "analysis_cache.misses",
                "analysis_cache.rate",
                "cert.cache.hits",
                "cert.cache.misses",
                "cert.cache.rate",
                "cert.complete",
                "cert.incomplete",
                "dred.overdeleted",
                "dred.rederived",
                "wal.appends",
                "wal.bytes",
                "wal.fsyncs",
                "checkpoint.count",
                "checkpoint.duration_ms",
                "recovery.replayed_ops",
                "accept.errors",
                "lock.poisoned",
                "repl.shipped",
                "repl.applied",
                "repl.snapshots",
                "runtime.tasks",
                "runtime.steals",
                "pool.panics",
                "pool.runs",
            ]
        );
    }

    #[test]
    fn metrics_report_runtime_counters() {
        let e = Engine::new();
        let metrics = e.handle("metrics");
        assert!(metrics.contains("runtime.tasks=0"), "{metrics}");
        assert!(metrics.contains("runtime.steals=0"), "{metrics}");
        assert!(metrics.contains("pool.panics=0"), "{metrics}");
    }

    #[test]
    fn pooled_engine_agrees_with_sequential() {
        let pooled = Engine::with_session_on(
            Vocabulary::new(),
            TcSet::new(Vec::new()),
            Instance::new(),
            Executor::with_threads(4),
        );
        let seq = Engine::new();
        for e in [&pooled, &seq] {
            e.handle("compl school(S, primary, D) ; true.");
            e.handle("compl pupil(N, C, S) ; school(S, T, merano).");
            e.handle("assert school(hofer, primary, merano).");
            e.handle("assert pupil(anna, c1, hofer).");
        }
        for req in [
            "check q(N) :- pupil(N, C, S), school(S, primary, merano).",
            "guaranteed pupil(anna, c1, hofer).",
            "eval q(N) :- pupil(N, C, S).",
            "specialize 0 q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
            "specialize 1 q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
            "specialize 2 q(N) :- pupil(N, C, S), school(S, primary, bolzano).",
        ] {
            assert_eq!(pooled.handle(req), seq.handle(req), "{req}");
        }
        let metrics = pooled.handle("metrics");
        assert!(!metrics.contains("runtime.tasks=0"), "{metrics}");
    }

    /// The encoded vocabularies of the writer and of the published
    /// snapshot.
    fn vocab_bytes(e: &Engine) -> (Vec<u8>, Vec<u8>) {
        let encode = |v: &Vocabulary| {
            let mut out = Vec::new();
            magik_relalg::codec::encode_vocabulary(v, &mut out);
            out
        };
        (encode(&e.lock_writer().vocab), encode(&e.snapshot().vocab))
    }

    #[test]
    fn request_local_names_are_cached_by_spelling() {
        // `foo` and `bar` are never written, so each request parses its
        // name as local to it, and both get the same local id: only the
        // spellings in the key keep their entries apart.
        let e = Engine::new();
        e.handle("assert p(a).");
        let requests = [
            (
                "why q(X) :- foo(X).",
                "ok incomplete cert=valid lost=(X') repair=[compl foo(X) ; true]",
            ),
            (
                "why q(X) :- bar(X).",
                "ok incomplete cert=valid lost=(X') repair=[compl bar(X) ; true]",
            ),
            ("eval q(X, foo) :- p(X).", "ok 1 (a, foo)"),
            ("eval q(X, bar) :- p(X).", "ok 1 (a, bar)"),
            ("check q(X) :- foo(X).", "ok incomplete"),
            ("check q(X) :- bar(X).", "ok incomplete"),
        ];
        let counts = |e: &Engine| {
            let metrics = e.handle("metrics");
            ["verdict_cache", "answer_cache", "plan_cache", "cert.cache"].map(|cache| {
                (
                    field(&metrics, &format!("{cache}.hits")),
                    field(&metrics, &format!("{cache}.misses")),
                )
            })
        };
        // One miss each, then a hit on each repeat (an answer hit never
        // reaches the plan cache).
        for (request, reply) in requests {
            assert_eq!(e.handle(request), reply);
        }
        assert_eq!(counts(&e), [(0, 2), (0, 2), (0, 2), (0, 2)]);
        for (request, reply) in requests {
            assert_eq!(e.handle(request), reply);
        }
        assert_eq!(counts(&e), [(2, 2), (2, 2), (0, 2), (2, 2)]);
        // A query over written names only shares its entries with its
        // alpha-variants, whatever its head name: the plan listing shows
        // the head name the compiling request gave it.
        assert_eq!(e.handle("eval q(X) :- p(X)."), "ok 1 (a)");
        assert_eq!(e.handle("eval r(Y) :- p(Y)."), "ok 1 (a)");
        assert!(e.handle("plans").starts_with("ok 3 q:joins=["));
        assert_eq!(counts(&e)[1], (3, 3));
        // Writes that intern names shift the next local ids, and hand the
        // ids `foo` had to written names. Entries stay shared, and a
        // cached plan emits the request's own `foo`, not what its old id
        // names now.
        for fact in ["assert p(b).", "assert p(c).", "assert p(d)."] {
            assert_eq!(e.handle(fact), "ok inserted");
        }
        assert_eq!(
            e.handle("eval q(X, foo) :- p(X)."),
            "ok 4 (a, foo); (b, foo); (c, foo); (d, foo)"
        );
        assert_eq!(e.handle("check q(X) :- foo(X)."), "ok incomplete");
        assert_eq!(counts(&e), [(3, 2), (3, 4), (1, 3), (2, 2)]);
    }

    #[test]
    fn local_constant_placeholders_never_equal_a_frozen_variable() {
        // The write interns `X` as the session's first variable, and
        // `foo` is never written. Minimizing either query keeps its `foo`
        // atom: the first is complete (T_C keeps both of its frozen
        // facts), the second is not (p(x', foo) needs p(foo, foo)).
        let complete = ("q(X) :- p(foo, X), p(X, X).", "complete");
        let incomplete = ("q(X) :- p(X, foo), p(X, X).", "incomplete");
        for order in [[complete, incomplete], [incomplete, complete]] {
            let e = Engine::new();
            assert_eq!(e.handle("compl p(X, Y) ; p(Y, Y)."), "ok epoch=1");
            for (q, verdict) in order.into_iter().chain(order) {
                assert_eq!(e.handle(&format!("check {q}")), format!("ok {verdict}"));
                let why = e.handle(&format!("why {q}"));
                let expected = format!("ok {verdict} cert=valid");
                assert!(why.starts_with(&expected), "{why}");
            }
            let metrics = e.handle("metrics");
            assert_eq!(field(&metrics, "verdict_cache.misses"), 2, "{metrics}");
            assert_eq!(field(&metrics, "cert.cache.misses"), 2, "{metrics}");
        }
    }

    #[test]
    fn refused_duplicate_and_absent_writes_intern_nothing() {
        let e = paper_engine();
        e.handle("assert pupil(anna, c1, hofer).");
        let before = vocab_bytes(&e);
        assert!(e.handle("assert p(X).").starts_with("err proto "));
        assert!(e.handle("assert p(zed, .").starts_with("err parse "));
        assert!(e.handle("compl p(X) ; .").starts_with("err parse "));
        assert_eq!(e.handle("assert pupil(anna, c1, hofer)."), "ok duplicate");
        assert_eq!(e.handle("retract pupil(zed, c9, nowhere)."), "ok absent");
        assert_eq!(e.handle("retract ghost(zed)."), "ok absent");
        for read in [
            "check q(Z) :- pupil(Z, c7, elsewhere).",
            "why q(Z) :- ghost(Z).",
            "eval q(Z, W) :- pupil(Z, W, hofer).",
            "generalize q(Z) :- ghost(Z), pupil(Z, C, S).",
            "specialize 1 q(Z) :- pupil(Z, C, S), school(S, T, bolzano).",
            "guaranteed pupil(zed, c9, nowhere).",
            "analyze q(Z) :- ghost(Z).",
            "analyze state q(Z) :- ghost(Z).",
            "analyze",
            "analyze state",
        ] {
            assert!(e.handle(read).starts_with("ok "), "{read}");
        }
        assert_eq!(vocab_bytes(&e), before);
        // An applied write interns its new names and publishes them.
        assert_eq!(e.handle("assert pupil(zed, c9, hofer)."), "ok inserted");
        let (writer, published) = vocab_bytes(&e);
        assert_ne!(writer, before.0);
        assert_eq!(writer, published);
        assert_eq!(e.handle("eval q(N) :- pupil(N, c9, S)."), "ok 1 (zed)");
    }

    #[test]
    fn pooled_and_sequential_specialize_agree_in_request_overlays() {
        let pooled = Engine::with_session_on(
            Vocabulary::new(),
            TcSet::new(Vec::new()),
            Instance::new(),
            Executor::with_threads(4),
        );
        let seq = Engine::new();
        for e in [&pooled, &seq] {
            e.handle("compl pupil(N, C, S) ; true.");
            e.handle("compl learns(N, L) ; pupil(N, C, S).");
        }
        let before = [vocab_bytes(&pooled), vocab_bytes(&seq)];
        // The scratch variables are named in each request's overlay, from
        // the published fresh counter: every request starts from `F#0`.
        for _ in 0..2 {
            assert_eq!(
                pooled.handle("specialize 1 q(N) :- learns(N, L)."),
                "ok 1 q(F#4) :- learns(F#4, L), pupil(F#4, F#5, F#6)"
            );
        }
        for req in [
            "specialize 0 q(N) :- learns(N, L).",
            "specialize 1 q(N) :- learns(N, L).",
            "specialize 2 q(N) :- learns(N, L), pupil(N, C, S).",
            "specialize 1 q(N) :- learns(N, klingon), ghost(N).",
            "specialize 1 r(F#0) :- learns(F#0, L).",
        ] {
            assert_eq!(pooled.handle(req), seq.handle(req), "{req}");
        }
        assert_eq!([vocab_bytes(&pooled), vocab_bytes(&seq)], before);
    }

    #[test]
    fn specialize_refuses_a_k_whose_atom_bound_overflows() {
        let e = Engine::new();
        e.handle("compl pupil(N, C, S) ; true.");
        let reply = e.handle(&format!(
            "specialize {} q(N) :- pupil(N, C, S).",
            usize::MAX
        ));
        assert!(reply.starts_with("err proto invalid k"), "{reply}");
        assert_eq!(e.handle("ping"), "ok pong");
    }

    #[test]
    fn specialize_over_no_statements_answers_at_once_for_any_k() {
        // The largest k whose bound |Q| + k fits: with no statements the
        // search stops after size 0 instead of walking every size up to it.
        let request = format!("specialize {} q(X) :- p(X).", usize::MAX - 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = [Executor::Sequential, Executor::with_threads(2)]
            .into_iter()
            .map(|exec| {
                let (tx, request) = (tx.clone(), request.clone());
                std::thread::spawn(move || {
                    let e = Engine::with_session_on(
                        Vocabulary::new(),
                        TcSet::new(Vec::new()),
                        Instance::new(),
                        exec,
                    );
                    let _ = tx.send(e.handle(&request));
                })
            })
            .collect();
        for _ in &workers {
            let reply = rx
                .recv_timeout(std::time::Duration::from_secs(1))
                .expect("answered within a second");
            assert_eq!(reply, "ok 0");
        }
        for worker in workers {
            worker.join().expect("the request thread finished");
        }
    }

    #[test]
    fn poisoned_store_lock_poisons_durability_not_the_server() {
        let dir = std::env::temp_dir().join(format!(
            "magik-engine-poisoned-store-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let (e, _) =
            Engine::open_durable(&dir, DurabilityOptions::default(), Executor::Sequential).unwrap();
        assert_eq!(e.handle("compl pupil(N, C, S) ; true."), "ok epoch=1");
        // Panic while holding the store, as a failing checkpoint
        // serialization on the background worker would.
        let d = e.durability.as_ref().expect("durable engine");
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _store = d.store();
                    panic!("die holding the store lock");
                })
                .join();
        });
        let reply = e.handle("assert pupil(anna, c1, hofer).");
        assert!(reply.starts_with("err storage "), "{reply}");
        assert_eq!(e.handle("check q(N) :- pupil(N, C, S)."), "ok complete");
        assert_eq!(e.handle("eval q(N) :- pupil(N, C, S)."), "ok 0");
        assert!(e.shutdown_durability().is_err());
        drop(e);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
