//! Server metrics: per-operation counters and latency histograms.
//!
//! Latencies go into a **fixed-bucket histogram** — power-of-two
//! microsecond buckets from 1 µs to ~67 s. Recording is a counter
//! increment (no allocation, no sorting, bounded memory regardless of
//! request volume); quantiles are read back as the upper bound of the
//! bucket containing the requested rank, i.e. with at most 2× relative
//! error, which is plenty for a `metrics` endpoint.

use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// The number of histogram buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs sub-µs samples).
const BUCKETS: usize = 27;

/// A fixed-bucket latency histogram.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.max_us = self.max_us.max(us);
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// An upper bound (in µs) on the `q`-quantile latency, `0 <= q <= 1`.
    /// Returns 0 when no samples have been recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                // Upper bound of bucket i, but never above the true max.
                return (1u64 << (i + 1)).saturating_sub(1).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The maximum recorded latency in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }
}

/// The operations the server distinguishes in its metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `check` requests.
    Check,
    /// `generalize` requests.
    Generalize,
    /// `specialize` requests.
    Specialize,
    /// `eval` requests.
    Eval,
    /// `assert` requests.
    Assert,
    /// `retract` requests.
    Retract,
    /// `compl` requests.
    Compl,
    /// `guaranteed` requests.
    Guaranteed,
    /// `analyze` requests.
    Analyze,
    /// `why` requests (certified verdicts).
    Why,
    /// Everything else (`metrics`, `ping`, protocol errors).
    Other,
}

const OPS: [(Op, &str); 11] = [
    (Op::Check, "check"),
    (Op::Generalize, "generalize"),
    (Op::Specialize, "specialize"),
    (Op::Eval, "eval"),
    (Op::Assert, "assert"),
    (Op::Retract, "retract"),
    (Op::Compl, "compl"),
    (Op::Guaranteed, "guaranteed"),
    (Op::Analyze, "analyze"),
    (Op::Why, "why"),
    (Op::Other, "other"),
];

fn op_index(op: Op) -> usize {
    OPS.iter().position(|(o, _)| *o == op).expect("op listed")
}

#[derive(Debug, Default, Clone)]
struct OpStats {
    count: u64,
    errors: u64,
    hist: Histogram,
}

/// `(hits, misses)` of each engine cache, as [`Metrics::render`]
/// reports them. The caches count these themselves.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct CacheCounts {
    pub(crate) verdict: (u64, u64),
    pub(crate) answer: (u64, u64),
    pub(crate) plan: (u64, u64),
    pub(crate) analysis: (u64, u64),
    pub(crate) cert: (u64, u64),
}

#[derive(Debug, Default)]
struct Inner {
    ops: [OpStats; OPS.len()],
    cert_complete: u64,
    cert_incomplete: u64,
    exec_probes: u64,
    exec_scanned: u64,
    exec_backtracks: u64,
    exec_batches: u64,
    exec_batch_rows: u64,
    exec_join_nested: u64,
    exec_join_hash: u64,
    exec_join_merge: u64,
    dred_overdeleted: u64,
    dred_rederived: u64,
    wal_appends: u64,
    wal_bytes: u64,
    wal_fsyncs: u64,
    checkpoint_count: u64,
    checkpoint_duration_ms: u64,
    recovery_replayed: u64,
    accept_errors: u64,
    lock_poisoned: u64,
    repl_records_shipped: u64,
    repl_records_applied: u64,
    repl_snapshots_shipped: u64,
}

/// Shared, thread-safe server metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<Inner>,
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Locks the counter state, recovering from a poisoned mutex: the
    /// counters are plain integers, so state abandoned by a panicking
    /// recorder is still internally consistent (at worst one sample
    /// short). Metrics must never become a secondary outage after a
    /// handler panic.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one completed request: its operation, latency, and whether
    /// it produced an error response.
    pub fn record(&self, op: Op, latency: Duration, is_error: bool) {
        let mut inner = self.inner();
        let stats = &mut inner.ops[op_index(op)];
        stats.count += 1;
        stats.errors += u64::from(is_error);
        stats.hist.record(latency);
    }

    /// Records the polarity of one freshly emitted (and validated)
    /// certificate.
    pub fn record_cert(&self, complete: bool) {
        let mut inner = self.inner();
        if complete {
            inner.cert_complete += 1;
        } else {
            inner.cert_incomplete += 1;
        }
    }

    /// Accumulates executor counters from one plan run (plain integers so
    /// the metrics layer stays decoupled from the execution crate).
    pub fn record_exec(&self, probes: u64, scanned: u64, backtracks: u64) {
        let mut inner = self.inner();
        inner.exec_probes += probes;
        inner.exec_scanned += scanned;
        inner.exec_backtracks += backtracks;
    }

    /// Accumulates batch-execution counters from one plan run: batches
    /// started, rows materialized across all operators, and how many join
    /// operators executed under each strategy.
    pub fn record_batch_exec(&self, batches: u64, batch_rows: u64, joins: (u64, u64, u64)) {
        let mut inner = self.inner();
        inner.exec_batches += batches;
        inner.exec_batch_rows += batch_rows;
        inner.exec_join_nested += joins.0;
        inner.exec_join_hash += joins.1;
        inner.exec_join_merge += joins.2;
    }

    /// Accumulates DRed retraction work from one `retract` request: how
    /// many facts the over-deletion pass removed and how many the
    /// re-derivation pass restored.
    pub fn record_dred(&self, overdeleted: u64, rederived: u64) {
        let mut inner = self.inner();
        inner.dred_overdeleted += overdeleted;
        inner.dred_rederived += rederived;
    }

    /// Records one WAL append: its frame size and whether it fsynced.
    pub fn record_wal(&self, bytes: u64, synced: bool) {
        let mut inner = self.inner();
        inner.wal_appends += 1;
        inner.wal_bytes += bytes;
        inner.wal_fsyncs += u64::from(synced);
    }

    /// Records one completed checkpoint and how long it took.
    pub fn record_checkpoint(&self, took: Duration) {
        let mut inner = self.inner();
        inner.checkpoint_count += 1;
        inner.checkpoint_duration_ms += u64::try_from(took.as_millis()).unwrap_or(u64::MAX);
    }

    /// Records how many WAL ops crash recovery replayed at startup.
    pub fn set_replayed(&self, ops: u64) {
        self.inner().recovery_replayed = ops;
    }

    /// Records one failed `accept(2)` (the listener stays up and backs
    /// off; see the server's accept-backoff policy).
    pub fn record_accept_error(&self) {
        self.inner().accept_errors += 1;
    }

    /// Records one recovery from a poisoned engine mutex (a handler
    /// panicked while holding it; the lock was reclaimed and any cache it
    /// guarded cleared).
    pub fn record_lock_poisoned(&self) {
        self.inner().lock_poisoned += 1;
    }

    /// Records WAL records shipped to replicas over replication streams.
    pub fn record_repl_shipped(&self, records: u64) {
        self.inner().repl_records_shipped += records;
    }

    /// Records one replicated op applied by this (replica) server.
    pub fn record_repl_applied(&self) {
        self.inner().repl_records_applied += 1;
    }

    /// Records one checkpoint image shipped to bootstrap a replica.
    pub fn record_repl_snapshot(&self) {
        self.inner().repl_snapshots_shipped += 1;
    }

    /// Renders all metrics as one line of `key=value` fields: per-op
    /// `<op>.count/.err/.p50us/.p90us/.p99us/.maxus` (ops with zero
    /// requests are omitted) plus the `caches`' hit/miss counters and hit
    /// rates and aggregate executor counters.
    pub(crate) fn render(&self, caches: &CacheCounts) -> String {
        let inner = self.inner();
        let mut out = String::new();
        for (i, (_, name)) in OPS.iter().enumerate() {
            let s = &inner.ops[i];
            if s.count == 0 {
                continue;
            }
            let _ = write!(
                out,
                "{name}.count={} {name}.err={} {name}.p50us={} {name}.p90us={} \
                 {name}.p99us={} {name}.maxus={} ",
                s.count,
                s.errors,
                s.hist.quantile_us(0.50),
                s.hist.quantile_us(0.90),
                s.hist.quantile_us(0.99),
                s.hist.max_us(),
            );
        }
        let rate = |(hits, misses): (u64, u64)| {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let _ = write!(
            out,
            "verdict_cache.hits={} verdict_cache.misses={} verdict_cache.rate={:.3} \
             answer_cache.hits={} answer_cache.misses={} answer_cache.rate={:.3}",
            caches.verdict.0,
            caches.verdict.1,
            rate(caches.verdict),
            caches.answer.0,
            caches.answer.1,
            rate(caches.answer),
        );
        let _ = write!(
            out,
            " plan_cache.hits={} plan_cache.misses={} plan_cache.rate={:.3} \
             exec.probes={} exec.scanned={} exec.backtracks={}",
            caches.plan.0,
            caches.plan.1,
            rate(caches.plan),
            inner.exec_probes,
            inner.exec_scanned,
            inner.exec_backtracks,
        );
        let _ = write!(
            out,
            " exec.batch.count={} exec.batch.rows={} exec.join.nested={} \
             exec.join.hash={} exec.join.merge={}",
            inner.exec_batches,
            inner.exec_batch_rows,
            inner.exec_join_nested,
            inner.exec_join_hash,
            inner.exec_join_merge,
        );
        let _ = write!(
            out,
            " analysis_cache.hits={} analysis_cache.misses={} analysis_cache.rate={:.3}",
            caches.analysis.0,
            caches.analysis.1,
            rate(caches.analysis),
        );
        let _ = write!(
            out,
            " cert.cache.hits={} cert.cache.misses={} cert.cache.rate={:.3} \
             cert.complete={} cert.incomplete={}",
            caches.cert.0,
            caches.cert.1,
            rate(caches.cert),
            inner.cert_complete,
            inner.cert_incomplete,
        );
        let _ = write!(
            out,
            " dred.overdeleted={} dred.rederived={}",
            inner.dred_overdeleted, inner.dred_rederived,
        );
        let _ = write!(
            out,
            " wal.appends={} wal.bytes={} wal.fsyncs={} checkpoint.count={} \
             checkpoint.duration_ms={} recovery.replayed_ops={}",
            inner.wal_appends,
            inner.wal_bytes,
            inner.wal_fsyncs,
            inner.checkpoint_count,
            inner.checkpoint_duration_ms,
            inner.recovery_replayed,
        );
        let _ = write!(
            out,
            " accept.errors={} lock.poisoned={} repl.shipped={} repl.applied={} \
             repl.snapshots={}",
            inner.accept_errors,
            inner.lock_poisoned,
            inner.repl_records_shipped,
            inner.repl_records_applied,
            inner.repl_snapshots_shipped,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let mut h = Histogram::default();
        for us in [1u64, 10, 100, 1000, 10_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        // p50 is the 3rd of 5 samples (100 µs): the bound must cover it
        // but stay within its power-of-two bucket.
        let p50 = h.quantile_us(0.5);
        assert!((100..256).contains(&p50), "p50 = {p50}");
        assert_eq!(h.quantile_us(1.0), 10_000);
        assert_eq!(h.max_us(), 10_000);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = Histogram::default();
        assert_eq!(h.quantile_us(0.99), 0);
        assert_eq!(h.max_us(), 0);
    }

    #[test]
    fn render_includes_ops_and_cache_rates() {
        let m = Metrics::new();
        m.record(Op::Check, Duration::from_micros(50), false);
        m.record(Op::Check, Duration::from_micros(70), true);
        let text = m.render(&CacheCounts {
            verdict: (1, 1),
            ..CacheCounts::default()
        });
        assert!(text.contains("check.count=2"));
        assert!(text.contains("check.err=1"));
        assert!(text.contains("verdict_cache.rate=0.500"));
        // Untouched ops are omitted.
        assert!(!text.contains("eval.count"));
    }

    #[test]
    fn render_includes_plan_cache_and_exec_counters() {
        let m = Metrics::new();
        m.record_exec(5, 40, 12);
        m.record_exec(1, 2, 0);
        let text = m.render(&CacheCounts {
            plan: (1, 1),
            ..CacheCounts::default()
        });
        assert!(
            text.contains("plan_cache.hits=1 plan_cache.misses=1"),
            "{text}"
        );
        assert!(text.contains("plan_cache.rate=0.500"), "{text}");
        assert!(
            text.contains("exec.probes=6 exec.scanned=42 exec.backtracks=12"),
            "{text}"
        );
    }

    #[test]
    fn render_includes_batch_and_join_counters() {
        let m = Metrics::new();
        // Batch counters are always rendered, even at zero, so scrapers
        // can rely on their presence.
        let text = m.render(&CacheCounts::default());
        assert!(
            text.contains("exec.batch.count=0 exec.batch.rows=0"),
            "{text}"
        );
        m.record_batch_exec(3, 120, (2, 1, 0));
        m.record_batch_exec(1, 30, (0, 0, 1));
        let text = m.render(&CacheCounts::default());
        assert!(
            text.contains("exec.batch.count=4 exec.batch.rows=150"),
            "{text}"
        );
        assert!(
            text.contains("exec.join.nested=2 exec.join.hash=1 exec.join.merge=1"),
            "{text}"
        );
    }

    #[test]
    fn render_includes_durability_counters() {
        let m = Metrics::new();
        // The durability fields are always rendered, even at zero, so a
        // scraper can rely on their presence.
        let text = m.render(&CacheCounts::default());
        assert!(
            text.contains("wal.appends=0 wal.bytes=0 wal.fsyncs=0"),
            "{text}"
        );
        assert!(
            text.contains("checkpoint.count=0 checkpoint.duration_ms=0 recovery.replayed_ops=0"),
            "{text}"
        );
        m.record_wal(32, true);
        m.record_wal(40, false);
        m.record_checkpoint(Duration::from_millis(7));
        m.set_replayed(5);
        let text = m.render(&CacheCounts::default());
        assert!(
            text.contains("wal.appends=2 wal.bytes=72 wal.fsyncs=1"),
            "{text}"
        );
        assert!(
            text.contains("checkpoint.count=1 checkpoint.duration_ms=7 recovery.replayed_ops=5"),
            "{text}"
        );
    }

    #[test]
    fn render_includes_cert_counters() {
        let m = Metrics::new();
        // Certificate fields are always rendered, even at zero.
        let text = m.render(&CacheCounts::default());
        assert!(
            text.contains("cert.cache.hits=0 cert.cache.misses=0"),
            "{text}"
        );
        assert!(text.contains("cert.complete=0 cert.incomplete=0"), "{text}");
        m.record_cert(true);
        m.record_cert(false);
        m.record_cert(false);
        let text = m.render(&CacheCounts {
            cert: (1, 2),
            ..CacheCounts::default()
        });
        assert!(
            text.contains("cert.cache.hits=1 cert.cache.misses=2"),
            "{text}"
        );
        assert!(text.contains("cert.cache.rate=0.333"), "{text}");
        assert!(text.contains("cert.complete=1 cert.incomplete=2"), "{text}");
    }

    #[test]
    fn render_includes_accept_lock_and_replication_counters() {
        let m = Metrics::new();
        // Always rendered, even at zero, so scrapers can rely on them.
        let text = m.render(&CacheCounts::default());
        assert!(text.contains("accept.errors=0 lock.poisoned=0"), "{text}");
        assert!(
            text.contains("repl.shipped=0 repl.applied=0 repl.snapshots=0"),
            "{text}"
        );
        m.record_accept_error();
        m.record_accept_error();
        m.record_lock_poisoned();
        m.record_repl_shipped(5);
        m.record_repl_applied();
        m.record_repl_snapshot();
        let text = m.render(&CacheCounts::default());
        assert!(text.contains("accept.errors=2 lock.poisoned=1"), "{text}");
        assert!(
            text.contains("repl.shipped=5 repl.applied=1 repl.snapshots=1"),
            "{text}"
        );
    }

    #[test]
    fn metrics_survive_a_poisoned_lock() {
        let m = std::sync::Arc::new(Metrics::new());
        let clone = std::sync::Arc::clone(&m);
        // Panic while holding the counter mutex; recording must keep
        // working afterwards instead of propagating the poison.
        let _ = std::thread::spawn(move || {
            let _guard = clone.inner();
            panic!("poison the metrics lock");
        })
        .join();
        m.record_accept_error();
        assert!(m
            .render(&CacheCounts::default())
            .contains("accept.errors=1"));
    }

    #[test]
    fn render_includes_dred_counters() {
        let m = Metrics::new();
        assert!(m
            .render(&CacheCounts::default())
            .contains("dred.overdeleted=0 dred.rederived=0"));
        m.record_dred(7, 3);
        m.record_dred(1, 0);
        assert!(m
            .render(&CacheCounts::default())
            .contains("dred.overdeleted=8 dred.rederived=3"));
    }
}
