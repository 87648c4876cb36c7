//! Server metrics: one table of counters and the `metrics` reply layout.
//!
//! Every count is a relaxed atomic (statistics publish no other data), so
//! recording takes no lock and a panicking handler cannot poison the
//! table. [`Counter`] names the engine's own counters; [`LAYOUT`] orders
//! them with the counts the caches and the reasoning executor keep
//! themselves, and [`Metrics::render`] walks it after the per-op fields.
//!
//! Latencies go into a **fixed-bucket histogram** — power-of-two
//! microsecond buckets from 1 µs to ~67 s. Recording is a counter
//! increment (no allocation, no sorting, bounded memory regardless of
//! request volume); quantiles are read back as the upper bound of the
//! bucket containing the requested rank, i.e. with at most 2× relative
//! error, which is plenty for a `metrics` endpoint.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use magik_exec::ExecStats;
use magik_runtime::PoolCounters;

/// The number of histogram buckets: bucket `i` counts latencies in
/// `[2^i, 2^(i+1))` microseconds (bucket 0 also absorbs sub-µs samples).
const BUCKETS: usize = 27;

/// A fixed-bucket latency histogram.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// Records one latency sample.
    pub fn record(&self, d: Duration) {
        let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        let idx = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// An upper bound (in µs) on the `q`-quantile latency, `0 <= q <= 1`.
    /// Returns 0 when no samples have been recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // Rank of the sample we want, 1-based, clamped into range.
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n.load(Relaxed);
            if seen >= rank {
                // Upper bound of bucket i, but never above the true max.
                return (1u64 << (i + 1)).saturating_sub(1).min(self.max_us());
            }
        }
        self.max_us()
    }

    /// The maximum recorded latency in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Relaxed)
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

/// Each [`Op`], indexed by `op as usize`, with its name in the `metrics`
/// reply. Every name but `other` is also the op's request verb.
pub(crate) const OPS: [(Op, &str); 11] = [
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

/// One counter the engine adds to. Names, reply order and the counts
/// kept elsewhere are in [`LAYOUT`]; meanings are in `PROTOCOL.md`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Counter {
    ExecProbes,
    ExecScanned,
    ExecBacktracks,
    ExecBatches,
    ExecBatchRows,
    ExecJoinNested,
    ExecJoinHash,
    ExecJoinMerge,
    CertComplete,
    CertIncomplete,
    DredOverdeleted,
    DredRederived,
    WalAppends,
    WalBytes,
    WalFsyncs,
    CheckpointCount,
    CheckpointMs,
    ReplayedOps,
    AcceptErrors,
    LockPoisoned,
    ReplShipped,
    ReplApplied,
    ReplSnapshots,
    PoolPanics,
    PoolRuns,
}

/// How many counters there are: [`Counter::PoolRuns`] is the last.
const COUNTERS: usize = Counter::PoolRuns as usize + 1;

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

/// One entry of the `metrics` reply after the per-op fields.
enum Field {
    /// `<name>.hits`, `<name>.misses` and `<name>.rate` of one cache.
    Cache(&'static str, fn(&CacheCounts) -> (u64, u64)),
    /// `<name>=<n>` of one [`Counter`].
    Count(&'static str, Counter),
    /// `<name>=<n>` of one count of the reasoning executor's pool.
    Pool(&'static str, fn(&PoolCounters) -> u64),
}

/// The `metrics` reply after the per-op fields. Scrapers and the
/// benchmark's traced run parse these names, so their set and order are
/// part of the protocol.
const LAYOUT: [Field; 32] = [
    Field::Cache("verdict_cache", |c| c.verdict),
    Field::Cache("answer_cache", |c| c.answer),
    Field::Cache("plan_cache", |c| c.plan),
    Field::Count("exec.probes", Counter::ExecProbes),
    Field::Count("exec.scanned", Counter::ExecScanned),
    Field::Count("exec.backtracks", Counter::ExecBacktracks),
    Field::Count("exec.batch.count", Counter::ExecBatches),
    Field::Count("exec.batch.rows", Counter::ExecBatchRows),
    Field::Count("exec.join.nested", Counter::ExecJoinNested),
    Field::Count("exec.join.hash", Counter::ExecJoinHash),
    Field::Count("exec.join.merge", Counter::ExecJoinMerge),
    Field::Cache("analysis_cache", |c| c.analysis),
    Field::Cache("cert.cache", |c| c.cert),
    Field::Count("cert.complete", Counter::CertComplete),
    Field::Count("cert.incomplete", Counter::CertIncomplete),
    Field::Count("dred.overdeleted", Counter::DredOverdeleted),
    Field::Count("dred.rederived", Counter::DredRederived),
    Field::Count("wal.appends", Counter::WalAppends),
    Field::Count("wal.bytes", Counter::WalBytes),
    Field::Count("wal.fsyncs", Counter::WalFsyncs),
    Field::Count("checkpoint.count", Counter::CheckpointCount),
    Field::Count("checkpoint.duration_ms", Counter::CheckpointMs),
    Field::Count("recovery.replayed_ops", Counter::ReplayedOps),
    Field::Count("accept.errors", Counter::AcceptErrors),
    Field::Count("lock.poisoned", Counter::LockPoisoned),
    Field::Count("repl.shipped", Counter::ReplShipped),
    Field::Count("repl.applied", Counter::ReplApplied),
    Field::Count("repl.snapshots", Counter::ReplSnapshots),
    Field::Pool("runtime.tasks", |p| p.tasks),
    Field::Pool("runtime.steals", |p| p.steals),
    Field::Count("pool.panics", Counter::PoolPanics),
    Field::Count("pool.runs", Counter::PoolRuns),
];

#[derive(Debug, Default)]
struct OpStats {
    errors: AtomicU64,
    latency: Histogram,
}

/// Shared, thread-safe server metrics.
#[derive(Debug, Default)]
pub struct Metrics {
    ops: [OpStats; OPS.len()],
    counters: [AtomicU64; COUNTERS],
}

impl Metrics {
    /// Creates empty metrics.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one completed request: its operation, latency, and whether
    /// it produced an error response.
    pub fn record(&self, op: Op, latency: Duration, is_error: bool) {
        let stats = &self.ops[op as usize];
        stats.errors.fetch_add(u64::from(is_error), Relaxed);
        stats.latency.record(latency);
    }

    /// Adds `n` to `counter`.
    pub(crate) fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Relaxed);
    }

    /// Adds the executor counters of one plan run.
    pub(crate) fn add_exec(&self, stats: &ExecStats) {
        for (counter, n) in [
            (Counter::ExecProbes, stats.probes),
            (Counter::ExecScanned, stats.scanned),
            (Counter::ExecBacktracks, stats.backtracks),
            (Counter::ExecBatches, stats.batches),
            (Counter::ExecBatchRows, stats.batch_rows),
            (Counter::ExecJoinNested, stats.join_nested),
            (Counter::ExecJoinHash, stats.join_hash),
            (Counter::ExecJoinMerge, stats.join_merge),
        ] {
            self.add(counter, n);
        }
    }

    /// Renders all metrics as one line of `key=value` fields: per-op
    /// `<op>.count/.err/.p50us/.p90us/.p99us/.maxus` (ops with zero
    /// requests are omitted), then [`LAYOUT`] over this table, the
    /// `caches` and the reasoning executor's `pool`.
    pub(crate) fn render(&self, caches: &CacheCounts, pool: &PoolCounters) -> String {
        let mut out = String::new();
        let mut put = |name: &str, suffix: &str, value: &dyn Display| {
            if !out.is_empty() {
                out.push(' ');
            }
            let _ = write!(out, "{name}{suffix}={value}");
        };
        for ((_, name), stats) in OPS.iter().zip(&self.ops) {
            let latency = &stats.latency;
            let count = latency.count();
            if count == 0 {
                continue;
            }
            put(name, ".count", &count);
            put(name, ".err", &stats.errors.load(Relaxed));
            for (suffix, q) in [(".p50us", 0.50), (".p90us", 0.90), (".p99us", 0.99)] {
                put(name, suffix, &latency.quantile_us(q));
            }
            put(name, ".maxus", &latency.max_us());
        }
        for field in &LAYOUT {
            match *field {
                Field::Cache(name, counts) => {
                    let (hits, misses) = counts(caches);
                    let total = hits + misses;
                    let rate = if total == 0 {
                        0.0
                    } else {
                        hits as f64 / total as f64
                    };
                    put(name, ".hits", &hits);
                    put(name, ".misses", &misses);
                    put(name, ".rate", &format_args!("{rate:.3}"));
                }
                Field::Count(name, counter) => {
                    put(name, "", &self.counters[counter as usize].load(Relaxed));
                }
                Field::Pool(name, count) => put(name, "", &count(pool)),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Renders with no cache or executor counts.
    fn render(m: &Metrics) -> String {
        m.render(&CacheCounts::default(), &PoolCounters::default())
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
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
        let caches = CacheCounts {
            verdict: (1, 1),
            ..CacheCounts::default()
        };
        let text = m.render(&caches, &PoolCounters::default());
        assert!(text.contains("check.count=2"));
        assert!(text.contains("check.err=1"));
        assert!(text.contains("verdict_cache.rate=0.500"));
        // Untouched ops are omitted.
        assert!(!text.contains("eval.count"));
    }

    #[test]
    fn render_includes_plan_cache_and_exec_counters() {
        let m = Metrics::new();
        for (probes, scanned, backtracks) in [(5, 40, 12), (1, 2, 0)] {
            m.add_exec(&ExecStats {
                probes,
                scanned,
                backtracks,
                ..ExecStats::default()
            });
        }
        let caches = CacheCounts {
            plan: (1, 1),
            ..CacheCounts::default()
        };
        let text = m.render(&caches, &PoolCounters::default());
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
        let text = render(&m);
        assert!(
            text.contains("exec.batch.count=0 exec.batch.rows=0"),
            "{text}"
        );
        for (batches, batch_rows, (join_nested, join_hash, join_merge)) in
            [(3, 120, (2, 1, 0)), (1, 30, (0, 0, 1))]
        {
            m.add_exec(&ExecStats {
                batches,
                batch_rows,
                join_nested,
                join_hash,
                join_merge,
                ..ExecStats::default()
            });
        }
        let text = render(&m);
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
        let text = render(&m);
        assert!(
            text.contains("wal.appends=0 wal.bytes=0 wal.fsyncs=0"),
            "{text}"
        );
        assert!(
            text.contains("checkpoint.count=0 checkpoint.duration_ms=0 recovery.replayed_ops=0"),
            "{text}"
        );
        m.add(Counter::WalAppends, 2);
        m.add(Counter::WalBytes, 32 + 40);
        m.add(Counter::WalFsyncs, 1);
        m.add(Counter::CheckpointCount, 1);
        m.add(Counter::CheckpointMs, 7);
        m.add(Counter::ReplayedOps, 5);
        let text = render(&m);
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
        let text = render(&m);
        assert!(
            text.contains("cert.cache.hits=0 cert.cache.misses=0"),
            "{text}"
        );
        assert!(text.contains("cert.complete=0 cert.incomplete=0"), "{text}");
        m.add(Counter::CertComplete, 1);
        m.add(Counter::CertIncomplete, 2);
        let caches = CacheCounts {
            cert: (1, 2),
            ..CacheCounts::default()
        };
        let text = m.render(&caches, &PoolCounters::default());
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
        let text = render(&m);
        assert!(text.contains("accept.errors=0 lock.poisoned=0"), "{text}");
        assert!(
            text.contains("repl.shipped=0 repl.applied=0 repl.snapshots=0"),
            "{text}"
        );
        m.add(Counter::AcceptErrors, 2);
        m.add(Counter::LockPoisoned, 1);
        m.add(Counter::ReplShipped, 5);
        m.add(Counter::ReplApplied, 1);
        m.add(Counter::ReplSnapshots, 1);
        let text = render(&m);
        assert!(text.contains("accept.errors=2 lock.poisoned=1"), "{text}");
        assert!(
            text.contains("repl.shipped=5 repl.applied=1 repl.snapshots=1"),
            "{text}"
        );
    }

    #[test]
    fn render_includes_dred_counters() {
        let m = Metrics::new();
        assert!(render(&m).contains("dred.overdeleted=0 dred.rederived=0"));
        m.add(Counter::DredOverdeleted, 7 + 1);
        m.add(Counter::DredRederived, 3);
        assert!(render(&m).contains("dred.overdeleted=8 dred.rederived=3"));
    }

    #[test]
    fn layout_renders_every_counter_once_in_counter_order() {
        let counted: Vec<usize> = LAYOUT
            .iter()
            .filter_map(|field| match *field {
                Field::Count(_, counter) => Some(counter as usize),
                _ => None,
            })
            .collect();
        assert_eq!(counted, (0..COUNTERS).collect::<Vec<_>>());
    }
}
