//! The traced run's output: one span file per workload, a self-time
//! summary per layer, and layer spans that track `Engine::handle`.

use std::collections::BTreeMap;
use std::path::PathBuf;

use magik_perfbench::gen::Workload;
use magik_perfbench::run::{run_traced, Config};
use magik_perfbench::trace::{self_times, summarize, Span, Tracer};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("request", 0, 100, None),
        span("engine.handle.check", 0, 40, Some(0)),
        span("shadow", 50, 100, Some(0)),
        span("parser.parse", 50, 60, Some(2)),
        span("completeness.canon", 55, 70, Some(2)), // overlaps parse
    ];
    assert_eq!(self_times(&spans), vec![10, 40, 30, 10, 15]);
    let s = summarize(&spans);
    // Spans are in ns, the summary in µs: handle 0.040 = layers 0.025
    // (parse 10 ns + canon 15 ns of self time) + unaccounted 0.015.
    assert_eq!(s.unaccounted_us.len(), 1);
    assert!((s.unaccounted_us[0] - (0.040 - 0.025)).abs() < 1e-9);
    assert!((s.handle_total_us - s.layer_total_us - s.unaccounted_us[0]).abs() < 1e-9);
}

#[test]
fn a_disabled_tracer_records_nothing() {
    let mut tr = Tracer::off();
    let open = tr.begin("request");
    tr.span("parser.parse", || ());
    tr.end(open);
    assert!(tr.spans().is_empty());
}

fn parse_spans(text: &str) -> Vec<(String, u64, u64, Option<usize>, u64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            assert_eq!(f.len(), 5, "{l}");
            let parent = if f[3] == "-" {
                None
            } else {
                Some(f[3].parse().expect("parent"))
            };
            (
                f[0].to_string(),
                f[1].parse().expect("start"),
                f[2].parse().expect("end"),
                parent,
                f[4].parse().expect("request"),
            )
        })
        .collect()
}

#[test]
fn traced_run_writes_consistent_spans_and_layer_summary() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-test");
    let _ = std::fs::remove_dir_all(&out_dir);
    let report = run_traced(&Config {
        workload: Workload::HotReads,
        seed: 11,
        seconds: 1.0,
        trace: true,
        out_dir: out_dir.clone(),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    });
    assert_eq!(report.failed, 0, "{:?}", report.problems);
    let metrics: BTreeMap<&str, f64> = report
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.value))
        .collect();
    assert!(
        metrics.contains_key("engine.unaccounted_us"),
        "engine.unaccounted_us is reported"
    );
    assert!(metrics["parser.parse_us"] > 0.0);
    assert_eq!(
        metrics["cache.verdict.hit_ratio"], 1.0,
        "hot_reads only hits"
    );

    let spans = parse_spans(
        &std::fs::read_to_string(out_dir.join("spans-hot_reads.tsv")).expect("span file"),
    );
    assert!(!spans.is_empty());
    for (name, start, end, parent, request) in &spans {
        assert!(start <= end, "{name}");
        if let Some(p) = parent {
            let (pname, ps, pe, _, preq) = &spans[*p];
            assert!(
                ps <= start && end <= pe,
                "{name} lies outside its parent {pname}"
            );
            assert_eq!(
                request, preq,
                "{name} and its parent {pname} share a request id"
            );
        }
    }

    let summary =
        std::fs::read_to_string(out_dir.join("layers-hot_reads.tsv")).expect("summary file");
    let mut rows = BTreeMap::new();
    for line in summary.lines().filter(|l| !l.starts_with('#')) {
        let f: Vec<&str> = line.split('\t').collect();
        let (median, total): (f64, f64) =
            (f[2].parse().expect("median"), f[3].parse().expect("total"));
        rows.insert(f[0].to_string(), (median, total));
    }
    for (layer, (median, total)) in &rows {
        if layer != "engine.unaccounted" {
            assert!(
                *median >= 0.0 && *total >= 0.0,
                "{layer} has a negative self time"
            );
        }
    }
    assert!(rows.contains_key("engine.unaccounted"), "{summary}");

    // The layer spans time the shadow, not the engine. They describe the
    // engine only if the shadow does its work: the run already fails when
    // their cache counts differ, and here each request's `shadow` span
    // must take about as long as its `Engine::handle` span, with the
    // handle time not covered by layer spans non-negative on the median.
    let mut handle: BTreeMap<u64, f64> = BTreeMap::new();
    let mut shadow: BTreeMap<u64, f64> = BTreeMap::new();
    for (name, start, end, _, request) in &spans {
        let ns = (end - start) as f64;
        if name.starts_with("engine.handle.") {
            handle.insert(*request, ns);
        } else if name == "shadow" {
            shadow.insert(*request, ns);
        }
    }
    assert_eq!(
        handle.len(),
        shadow.len(),
        "one handle and one shadow span per request"
    );
    let mut ratios: Vec<f64> = handle
        .iter()
        .map(|(request, h)| shadow[request] / h.max(1.0))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    assert!(
        (0.5..=2.0).contains(&median),
        "the median request's shadow span is {median:.2}x its Engine::handle span"
    );
    assert!(
        metrics["engine.unaccounted_us"] >= 0.0,
        "the layer spans cover more than the median Engine::handle span: {}",
        metrics["engine.unaccounted_us"]
    );
}
