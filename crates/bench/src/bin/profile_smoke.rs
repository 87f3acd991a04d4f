//! CI profiling smoke gate: a profiled XMark run must produce worker and
//! chunk events and a parseable chrome trace, and the profiler's
//! *detached* hot path must stay under 2% of a warm query — the
//! always-on cost every query pays for having the hooks compiled in.
//!
//! Exit is non-zero on any failure. No artifacts are required; the
//! trace is parsed in-process.

use std::hint::black_box;
use std::time::Instant;

use obs::profile::{self, EventKind};
use ppf_bench::{generate_xmark, xmark_queries, xmark_schema, XMarkConfig};
use ppf_core::XmlDb;

/// Detached-overhead ceiling, as a fraction of a warm query.
const MAX_OVERHEAD: f64 = 0.02;
/// Calls used to time the detached `record()` fast path.
const CALIBRATION_CALLS: u64 = 5_000_000;

fn main() {
    let mut failures: Vec<String> = Vec::new();

    ppf_pool::set_threads(4);
    let doc = generate_xmark(XMarkConfig {
        scale: 0.02,
        seed: 42,
    });
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    db.set_path_marking(false);
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    // Force the parallel pipeline so chunk events appear even at smoke
    // scale, where Auto's fork rule stays serial.
    db.set_exec_options(sqlexec::ExecOptions {
        parallel: sqlexec::ParallelMode::ForceOn,
        ..sqlexec::ExecOptions::default()
    });
    sqlexec::clear_filter_caches(db.db());

    // Warm every query once, then time the warm workload — the
    // denominator of the overhead contract.
    for (name, query) in xmark_queries() {
        db.query(query).expect(name);
    }
    let t0 = Instant::now();
    for (name, query) in xmark_queries() {
        db.query(query).expect(name);
    }
    let warm_workload_ns = t0.elapsed().as_nanos() as u64;
    let queries_run = xmark_queries().len() as u64;

    // Profiled pass: same warm workload with the profiler attached.
    assert!(profile::attach(), "profiler already attached");
    for (name, query) in xmark_queries() {
        db.query(query).expect(name);
    }
    let prof = profile::detach().expect("attached above");

    let timelines = prof.timelines();
    let worker_events: u64 = timelines
        .iter()
        .filter(|t| t.name.starts_with("ppf-pool-"))
        .map(|t| t.events)
        .sum();
    let chunk_events: u64 = timelines.iter().map(|t| t.chunks).sum();
    println!(
        "profile_smoke: {} events ({} on pool workers), {} chunk spans, {} lanes",
        prof.total_events(),
        worker_events,
        chunk_events,
        timelines.len(),
    );
    if prof.total_events() == 0 {
        failures.push("profiled run recorded zero events".into());
    }
    if worker_events == 0 {
        failures.push("no events on any ppf-pool-* worker lane".into());
    }
    if chunk_events == 0 {
        failures.push("no chunk-execution spans recorded".into());
    }

    // The chrome trace must be valid JSON with the trace_event shape.
    let trace = prof.to_chrome_trace();
    match obs::json::parse(&trace) {
        Ok(doc) => {
            let n = doc
                .get("traceEvents")
                .and_then(|v| v.as_array())
                .map_or(0, |a| a.len());
            println!("profile_smoke: chrome trace parses ({n} trace events)");
            if n == 0 {
                failures.push("chrome trace has no traceEvents".into());
            }
        }
        Err(e) => failures.push(format!("chrome trace is not parseable JSON: {e}")),
    }

    // Detached overhead: time the fast path the hooks always pay, then
    // scale by how many record() calls one profiled query makes.
    assert!(!profile::is_attached());
    let t0 = Instant::now();
    for i in 0..CALIBRATION_CALLS {
        profile::record(black_box(EventKind::ChunkStart), black_box(i));
    }
    let per_call_ns = t0.elapsed().as_nanos() as f64 / CALIBRATION_CALLS as f64;
    let events_per_query = prof.total_events() as f64 / queries_run as f64;
    let warm_query_ns = warm_workload_ns as f64 / queries_run as f64;
    let overhead = events_per_query * per_call_ns / warm_query_ns.max(1.0);
    println!(
        "profile_smoke: detached record() {per_call_ns:.2} ns/call, \
         {events_per_query:.0} events/query, warm query {:.0} ns \
         => overhead {:.3}% (gate {:.0}%)",
        warm_query_ns,
        overhead * 100.0,
        MAX_OVERHEAD * 100.0,
    );
    if overhead >= MAX_OVERHEAD {
        failures.push(format!(
            "detached profiler overhead {:.3}% breaches the {:.0}% gate",
            overhead * 100.0,
            MAX_OVERHEAD * 100.0
        ));
    }

    if failures.is_empty() {
        println!("profile_smoke: OK");
    } else {
        for f in &failures {
            eprintln!("profile_smoke FAILED: {f}");
        }
        std::process::exit(1);
    }
}
