//! End-to-end profiler coverage: attach over a 4-thread XMark run and
//! the profile must contain worker task spans, per-chunk execution
//! spans, query markers, and a chrome trace that `obs::json` can parse
//! back. Also pins the satellite contract that `engine.query_ns` is
//! recorded for *every* query, traced or not, successful or not.
//!
//! This file owns the process-global profiler for its whole binary (one
//! `#[test]` attaches), so everything lives in a single test.

use ppf_core::{ExecOptions, QueryLimits, XmlDb};
use sqlexec::ParallelMode;

fn xmark_db(scale: f64) -> XmlDb {
    let doc = xmark::generate_xmark(xmark::XMarkConfig { scale, seed: 42 });
    let mut db = XmlDb::new(&xmark::xmark_schema()).unwrap();
    // Keep the path filters live, so the queries carry regex work.
    db.set_path_marking(false);
    db.load(&doc).unwrap();
    db.finalize().unwrap();
    db
}

#[test]
fn profiled_pipeline_produces_worker_chunk_and_query_events() {
    ppf_pool::set_threads(4);
    let mut db = xmark_db(0.012);
    db.set_exec_options(ExecOptions {
        parallel: ParallelMode::ForceOn,
        ..ExecOptions::default()
    });
    sqlexec::clear_filter_caches(db.db());

    let queries = [
        "//site//item//keyword",
        "/site/people/person/name",
        "//item",
    ];
    assert!(obs::profile::attach(), "profiler already attached");
    // The coordinator helps drain its own fan-outs and can finish every
    // chunk before a pool worker wakes (one round of these queries left
    // no worker lane in 9 of 60 runs on a 2-core host); five rounds make
    // a worker lane all but certain.
    for _ in 0..5 {
        for q in queries {
            db.query(q).unwrap();
        }
    }
    // Errors are profiled and measured like successes.
    assert!(db
        .query_with_limits("//item", QueryLimits::default().with_max_rows(1))
        .is_err());
    let profile = obs::profile::detach().expect("attached above");

    assert!(profile.total_events() > 0, "empty profile");
    let timelines = profile.timelines();
    let workers: Vec<_> = timelines
        .iter()
        .filter(|t| t.name.starts_with("ppf-pool-"))
        .collect();
    assert!(!workers.is_empty(), "no pool worker lanes: {timelines:?}");

    let chunks: u64 = timelines.iter().map(|t| t.chunks).sum();
    assert!(chunks >= 2, "no partitioned chunk spans: {timelines:?}");
    let chunk_rows: u64 = timelines.iter().map(|t| t.chunk_rows).sum();
    assert!(chunk_rows > 0, "chunk spans carry no row counts");

    let queries_seen: u64 = timelines.iter().map(|t| t.queries).sum();
    assert!(queries_seen >= 4, "query markers missing: {timelines:?}");

    // The chrome trace is valid JSON with per-lane thread names.
    let json = profile.to_chrome_trace();
    let doc = obs::json::parse(&json).expect("chrome trace parses");
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).unwrap();
    assert!(
        events.len() >= profile.lanes.len(),
        "missing metadata events"
    );

    // Satellite: every query fed the end-to-end latency histogram.
    let snap = obs::Registry::global().snapshot();
    let (_, query_ns) = snap
        .histograms
        .iter()
        .find(|(name, _)| name == "engine.query_ns")
        .expect("engine.query_ns histogram exists");
    assert!(
        query_ns.count >= 4,
        "expected all queries (errors included) in engine.query_ns, got {}",
        query_ns.count
    );
}
