//! Tests for the observability crate: histogram percentile math, the
//! registry's allocation-free updates, span-tree parent links and the
//! JSON round-trip.

use obs::alloc::thread_allocs;
use obs::metrics::Histogram;
use obs::{QueryTrace, Registry, Span, SpanId};

#[global_allocator]
static GLOBAL: obs::alloc::Counting = obs::alloc::Counting;

// ---------------------------------------------------------------- metrics

#[test]
fn empty_histogram_is_all_zeroes() {
    let h = Histogram::default();
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.percentile(0.0), 0);
    assert_eq!(h.percentile(0.5), 0);
    assert_eq!(h.percentile(1.0), 0);
}

#[test]
fn single_sample_percentiles_collapse_to_it() {
    let mut h = Histogram::default();
    h.record(42);
    for p in [0.0, 0.01, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(h.percentile(p), 42, "p={p}");
    }
    assert_eq!(h.min(), 42);
    assert_eq!(h.max(), 42);
    assert_eq!(h.sum(), 42);
}

#[test]
fn zero_lands_in_the_zero_bucket() {
    let mut h = Histogram::default();
    h.record(0);
    h.record(0);
    assert_eq!(h.count(), 2);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), 0);
    assert_eq!(h.percentile(0.5), 0);
    assert_eq!(h.percentile(0.99), 0);
}

#[test]
fn max_value_lands_in_the_top_bucket() {
    let mut h = Histogram::default();
    h.record(u64::MAX);
    assert_eq!(h.count(), 1);
    assert_eq!(h.max(), u64::MAX);
    // The top bucket's representative is clamped to the observed max.
    assert_eq!(h.percentile(0.99), u64::MAX);
}

#[test]
fn percentiles_are_monotone_and_bucket_accurate() {
    let mut h = Histogram::default();
    // 90 small samples and 10 large ones: p50 must report the small
    // bucket, p95/p99 the large one.
    for _ in 0..90 {
        h.record(10); // bucket [8, 16)
    }
    for _ in 0..10 {
        h.record(1000); // bucket [512, 1024)
    }
    let p50 = h.percentile(0.50);
    let p95 = h.percentile(0.95);
    let p99 = h.percentile(0.99);
    assert!((8..16).contains(&p50), "p50={p50}");
    assert!((512..1024).contains(&p95), "p95={p95}");
    assert!((512..1024).contains(&p99), "p99={p99}");
    assert!(p50 <= p95 && p95 <= p99);
    // p=1.0 is the max sample.
    assert_eq!(h.percentile(1.0), h.max());
}

#[test]
fn percentile_results_stay_within_observed_range() {
    let mut h = Histogram::default();
    for v in [3u64, 5, 6, 7] {
        h.record(v);
    }
    for p in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
        let v = h.percentile(p);
        assert!((3..=7).contains(&v), "p={p} v={v}");
    }
}

#[test]
fn registry_counters_and_histograms() {
    let reg = Registry::new();
    reg.incr("queries", 1);
    reg.incr("queries", 2);
    reg.observe("rows", 4);
    reg.observe("rows", 1000);
    assert_eq!(reg.counter("queries"), 3);
    assert_eq!(reg.counter("missing"), 0);
    let h = reg.histogram("rows").expect("histogram");
    assert_eq!(h.count, 2);
    assert_eq!(h.sum, 1004);
    assert!(reg.histogram("missing").is_none());

    let snap = reg.snapshot();
    assert_eq!(snap.counters, vec![("queries".to_string(), 3)]);
    assert_eq!(snap.histograms.len(), 1);

    reg.reset();
    assert_eq!(reg.counter("queries"), 0);
    assert!(reg.snapshot().counters.is_empty());
}

#[test]
fn updating_an_existing_metric_does_not_allocate() {
    let reg = Registry::new();
    reg.incr("engine.queries", 1);
    reg.set_max("engine.stats_tables", 3);
    reg.set_gauge("engine.snapshots_live", 1);
    reg.observe("engine.query_ns", 1_000);

    let before = thread_allocs();
    reg.incr("engine.queries", 1);
    reg.set_max("engine.stats_tables", 4);
    reg.set_gauge("engine.snapshots_live", 2);
    reg.observe("engine.query_ns", 2_000);
    assert_eq!(thread_allocs() - before, 0, "a known name was copied again");

    assert_eq!(reg.counter("engine.queries"), 2);
    assert_eq!(reg.counter("engine.stats_tables"), 4);
    assert_eq!(reg.gauge("engine.snapshots_live"), 2);
    assert_eq!(reg.histogram("engine.query_ns").map(|h| h.count), Some(2));
}

// ------------------------------------------------------------------ trace

/// A finished span with no counters.
fn span(name: &str, parent: Option<SpanId>, start_ns: u64, dur_ns: u64) -> Span {
    Span {
        name: name.to_string(),
        parent,
        start_ns,
        dur_ns,
        counters: Vec::new(),
    }
}

#[test]
#[should_panic(expected = "names a parent that is not in the trace")]
fn a_span_cannot_precede_its_parent() {
    let mut t = QueryTrace::new("q");
    let root = t.push(span("query", None, 0, 10));
    let parse = t.push(span("parse", Some(root), 0, 5));
    // `parse` is span 1 of `t`; a trace holding one span has no span 1.
    let mut other = QueryTrace::new("other");
    other.push(span("query", None, 0, 10));
    other.push(span("orphan", Some(parse), 0, 5));
}

#[test]
fn json_lines_round_trip() {
    let mut trace = QueryTrace::new("//book[author=\"Codd\"]");
    let root = trace.push(span("query", None, 0, 300));
    trace.push(span("parse", Some(root), 0, 100));
    trace.push(Span {
        counters: vec![("rows_scanned".into(), 128), ("index_probes".into(), 7)],
        ..span("execute", Some(root), 100, 150)
    });

    let text = format!("{}\n{}\n", trace.to_json(), trace.to_json());
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "one JSON object per line");

    for line in lines {
        let v = obs::json::parse(line).expect("valid JSON");
        assert_eq!(
            v.get("label").and_then(|l| l.as_str()),
            Some("//book[author=\"Codd\"]")
        );
        let spans = v.get("spans").and_then(|s| s.as_array()).expect("spans");
        assert_eq!(spans.len(), 3);
        // Parent links survive the round trip.
        assert_eq!(spans[0].get("parent"), Some(&obs::json::Value::Null));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        // Counters survive the round trip.
        let exec = &spans[2];
        assert_eq!(exec.get("name").and_then(|n| n.as_str()), Some("execute"));
        let counters = exec.get("counters").expect("counters");
        assert_eq!(
            counters.get("rows_scanned").and_then(|c| c.as_u64()),
            Some(128)
        );
        assert_eq!(
            counters.get("index_probes").and_then(|c| c.as_u64()),
            Some(7)
        );
        assert_eq!(exec.get("start_ns").and_then(|t| t.as_u64()), Some(100));
        assert_eq!(exec.get("dur_ns").and_then(|t| t.as_u64()), Some(150));
        assert_eq!(v.get("total_ns").and_then(|t| t.as_u64()), Some(300));
    }
}

#[test]
fn json_escaping_survives_round_trip() {
    let nasty = "quote\" backslash\\ newline\n tab\t unicode\u{1F600} ctrl\u{1}";
    let mut trace = QueryTrace::new(nasty);
    trace.push(span("phase \"one\"", None, 0, 1));
    let v = obs::json::parse(&trace.to_json()).expect("valid JSON");
    assert_eq!(v.get("label").and_then(|l| l.as_str()), Some(nasty));
    let spans = v.get("spans").and_then(|s| s.as_array()).unwrap();
    assert_eq!(
        spans[0].get("name").and_then(|n| n.as_str()),
        Some("phase \"one\"")
    );
}
