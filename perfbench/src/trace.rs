//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory while the traced replay runs and are written
//! out when it ends. Every span carries its name, start and end (ns
//! since the tracer's origin), its parent span and the request id it
//! belongs to. A span's *self time* is its duration minus the part of
//! its interval its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Spans of layer calls that run on the service's critical path; the
/// part of an `engine.handle` span they do not cover is the engine's
/// unaccounted time (dispatch, locks, cache probes, publishing,
/// rendering). `storage.checkpoint` is not among them: the service
/// checkpoints on a background worker, outside `Engine::handle`.
pub const FOREGROUND_LAYERS: [&str; 13] = [
    "parser.parse",
    "completeness.canon",
    "completeness.check",
    "completeness.certify",
    "cert.check",
    "completeness.mcg",
    "completeness.k_mcs",
    "exec.compile",
    "exec.answers",
    "relalg.cow_write",
    "datalog.insert",
    "datalog.retract",
    "storage.append",
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The layer or phase name.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start: u64,
    /// End, in ns since the tracer's origin.
    pub end: u64,
    /// Index of the parent span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans when enabled; every call is a no-op when disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

/// A handle to an open span, closed with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    /// Sets the request id later spans carry.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span, a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Tracer::begin`]; spans close innermost
    /// first.
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span.0 else { return };
        assert_eq!(
            self.open.pop(),
            Some(idx),
            "spans must close innermost first"
        );
        self.spans[idx].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per-layer self-time statistics over a set of spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerStat {
    /// Spans with this name.
    pub calls: usize,
    /// Median self time, µs.
    pub median_us: f64,
    /// Summed self time, µs.
    pub total_us: f64,
}

/// What a traced replay's spans say, layer by layer.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Self-time statistics per span name.
    pub layers: BTreeMap<&'static str, LayerStat>,
    /// Per request: `engine.handle` time minus the foreground layer spans
    /// of the same request, µs (negative when the shadow's layer calls
    /// took longer than the engine's whole request).
    pub unaccounted_us: Vec<f64>,
    /// Summed `engine.handle` time, µs.
    pub handle_total_us: f64,
    /// Summed foreground layer self time, µs.
    pub layer_total_us: f64,
}

impl Summary {
    /// Median of the per-request unaccounted times, µs.
    pub fn unaccounted_median_us(&self) -> f64 {
        crate::stats::median(&self.unaccounted_us)
    }
}

/// Whether `name` is the span around one `Engine::handle` call.
pub fn is_handle(name: &str) -> bool {
    name.starts_with("engine.handle.")
}

/// Summarizes spans: self time per layer and the engine's unaccounted
/// time per request.
pub fn summarize(spans: &[Span]) -> Summary {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut per_request: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    let mut summary = Summary::default();
    for (s, &own) in spans.iter().zip(&selfs) {
        let own_us = own as f64 / 1e3;
        by_name.entry(s.name).or_default().push(own_us);
        let entry = per_request.entry(s.request).or_default();
        if is_handle(s.name) {
            entry.0 += s.duration() as f64 / 1e3;
            summary.handle_total_us += s.duration() as f64 / 1e3;
        } else if FOREGROUND_LAYERS.contains(&s.name) {
            entry.1 += own_us;
            summary.layer_total_us += own_us;
        }
    }
    summary.unaccounted_us = per_request
        .values()
        .filter(|(handle, _)| *handle > 0.0)
        .map(|(handle, layers)| handle - layers)
        .collect();
    summary.layers = by_name
        .into_iter()
        .map(|(name, xs)| {
            let stat = LayerStat {
                calls: xs.len(),
                median_us: crate::stats::median(&xs),
                total_us: xs.iter().sum(),
            };
            (name, stat)
        })
        .collect();
    summary
}

/// The span file: one tab-separated line per span — name, start ns, end
/// ns, parent span index (`-` for roots), request id — after a header.
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::from("# name\tstart_ns\tend_ns\tparent\trequest\n");
    for s in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{parent}\t{}",
            s.name, s.start, s.end, s.request
        );
    }
    out
}

/// The self-time summary file: one line per layer, plus the engine's
/// unaccounted time and the accounting check.
pub fn render_summary(summary: &Summary) -> String {
    let mut out = String::from("# layer\tcalls\tmedian_self_us\ttotal_self_us\n");
    for (name, s) in &summary.layers {
        let _ = writeln!(
            out,
            "{name}\t{}\t{:.3}\t{:.1}",
            s.calls, s.median_us, s.total_us
        );
    }
    let unaccounted_total: f64 = summary.unaccounted_us.iter().sum();
    let _ = writeln!(
        out,
        "engine.unaccounted\t{}\t{:.3}\t{:.1}",
        summary.unaccounted_us.len(),
        summary.unaccounted_median_us(),
        unaccounted_total
    );
    let _ = writeln!(
        out,
        "# engine.handle total {:.1} us = foreground layers {:.1} us + unaccounted {:.1} us",
        summary.handle_total_us, summary.layer_total_us, unaccounted_total
    );
    out
}
