//! Concurrency stress: many threads hammer one [`ppf_core::SharedEngine`]
//! with the Figure-4 XMark query mix while a control thread snapshots the
//! process-wide metrics registry mid-flight. Every concurrent answer must
//! equal the serial baseline, counters must only grow, and the workers'
//! queries must actually overlap. Two more tests start the workers on
//! engines whose query caches are empty, so their first runs race to
//! translate, cache and plan the same statements: they must agree with
//! the serial answers, and they must all run the one statement the
//! cache keeps.
//!
//! Lives in its own integration-test binary: it reads process-wide
//! registry counters.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Barrier};

use ppf_bench::{build_xmark, generate_xmark, xmark_queries, xmark_schema, XMarkConfig};
use ppf_core::{SharedEngine, XmlDb};

const WORKERS: usize = 4;
const ROUNDS: usize = 3;

#[test]
fn concurrent_queries_agree_with_serial_and_stats_stay_sane() {
    let data = build_xmark(0.03, 42);
    let ppf_bench::BenchData { ppf, .. } = data;
    let engine = SharedEngine::new(ppf);
    let queries = xmark_queries();

    // Serial baseline — also warms the XPath-keyed query cache, so the
    // concurrent phase exercises the shared-cache read path too.
    let expected: Vec<(String, Vec<i64>)> = queries
        .iter()
        .map(|(name, q)| {
            let ids = engine
                .query(q)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .ids();
            (name.to_string(), ids)
        })
        .collect();

    let reg = obs::Registry::global();
    let queries_before = reg.counter("engine.queries");

    let done = Arc::new(AtomicBool::new(false));
    // Workers' `engine.query` calls running right now, and the most seen
    // at once.
    let in_flight = Arc::new(AtomicU64::new(0));
    let peak = Arc::new(AtomicU64::new(0));
    let start = Arc::new(Barrier::new(WORKERS + 1));
    let expected = Arc::new(expected);

    // Control thread: counters from the shared registry must never move
    // backwards while the workers run.
    let control = {
        let done = done.clone();
        std::thread::spawn(move || {
            let reg = obs::Registry::global();
            let mut last = reg.counter("engine.queries");
            let mut snapshots = 0u64;
            while !done.load(Relaxed) {
                let now = reg.counter("engine.queries");
                assert!(
                    now >= last,
                    "engine.queries went backwards: {last} -> {now}"
                );
                last = now;
                snapshots += 1;
                std::thread::yield_now();
            }
            snapshots
        })
    };

    let workers: Vec<_> = (0..WORKERS)
        .map(|w| {
            let engine = engine.clone();
            let expected = expected.clone();
            let start = start.clone();
            let (in_flight, peak) = (in_flight.clone(), peak.clone());
            std::thread::spawn(move || {
                let queries = xmark_queries();
                start.wait();
                for round in 0..ROUNDS {
                    for ((name, q), (_, ids)) in queries.iter().zip(expected.iter()) {
                        peak.fetch_max(in_flight.fetch_add(1, Relaxed) + 1, Relaxed);
                        let r = engine.query(q);
                        in_flight.fetch_sub(1, Relaxed);
                        let r =
                            r.unwrap_or_else(|e| panic!("worker {w} round {round} {name}: {e}"));
                        assert_eq!(
                            &r.ids(),
                            ids,
                            "worker {w} round {round}: {name} diverged from serial"
                        );
                    }
                }
            })
        })
        .collect();
    start.wait();
    for h in workers {
        h.join().unwrap();
    }
    done.store(true, Relaxed);
    let snapshots = control.join().unwrap();
    assert!(snapshots > 0, "control thread never snapshotted");

    let total = WORKERS * ROUNDS * queries.len();
    let queries_after = reg.counter("engine.queries");
    assert!(
        queries_after - queries_before >= total as u64,
        "registry missed queries: {queries_before} -> {queries_after}, expected +{total}"
    );
    let peak = peak.load(Relaxed);
    assert!(
        peak >= 2,
        "four workers × three rounds never overlapped: peak {peak}"
    );
}

/// A freshly loaded XMark store: its query cache is empty.
fn fresh_xmark(doc: &xmldom::Document) -> XmlDb {
    let mut db = XmlDb::new(&xmark_schema()).expect("schema");
    db.load(doc).expect("load");
    db.finalize().expect("finalize");
    db
}

#[test]
fn cold_queries_racing_to_plan_agree_with_serial() {
    let doc = generate_xmark(XMarkConfig {
        scale: 0.03,
        seed: 42,
    });
    let queries = xmark_queries();
    // The baseline runs on an engine of its own, so the workers below
    // find every query cold.
    let baseline = fresh_xmark(&doc);
    let expected: Arc<Vec<Vec<i64>>> = Arc::new(
        queries
            .iter()
            .map(|(name, q)| {
                baseline
                    .query(q)
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
                    .ids()
            })
            .collect(),
    );

    for round in 0..ROUNDS {
        let engine = SharedEngine::new(fresh_xmark(&doc));
        let start = Arc::new(Barrier::new(WORKERS));
        let workers: Vec<_> = (0..WORKERS)
            .map(|w| {
                let (engine, expected, start) = (engine.clone(), expected.clone(), start.clone());
                std::thread::spawn(move || {
                    let queries = xmark_queries();
                    // Every worker starts at the same moment and walks
                    // the mix in the same order, so the first run of each
                    // query (translation, up-front planning and the
                    // subquery plans made during execution) overlaps.
                    start.wait();
                    for ((name, q), ids) in queries.iter().zip(expected.iter()) {
                        let r = engine
                            .query(q)
                            .unwrap_or_else(|e| panic!("worker {w} round {round} {name}: {e}"));
                        assert_eq!(
                            &r.ids(),
                            ids,
                            "worker {w} round {round}: cold {name} diverged from serial"
                        );
                    }
                })
            })
            .collect();
        for h in workers {
            h.join().unwrap();
        }
    }
}

#[test]
fn concurrent_cold_runs_share_one_statement() {
    let doc = generate_xmark(XMarkConfig {
        scale: 0.03,
        seed: 42,
    });
    let queries = xmark_queries();
    for round in 0..ROUNDS {
        let engine = SharedEngine::new(fresh_xmark(&doc));
        let start = Barrier::new(WORKERS);
        // Each worker's statement for each query, from its first run.
        let cold: Vec<Vec<_>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..WORKERS)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        queries
                            .iter()
                            .map(|(name, q)| engine.query(q).expect(name).stmt)
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, (name, q)) in queries.iter().enumerate() {
            let warm = engine.query(q).expect(name).stmt;
            for (w, stmts) in cold.iter().enumerate() {
                let same = match (&stmts[i], &warm) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                assert!(
                    same,
                    "round {round} worker {w}: the first run of {name} ran a statement the cache did not keep"
                );
            }
        }
    }
}
