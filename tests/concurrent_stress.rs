//! Concurrency stress: many threads hammer one [`ppf_core::SharedEngine`]
//! with the Figure-4 XMark query mix while a control thread snapshots the
//! process-wide metrics registry mid-flight. Every concurrent answer must
//! equal the serial baseline, counters must only grow, and the in-flight
//! gauge must actually observe overlapping queries.
//!
//! Lives in its own integration-test binary: it reads process-wide
//! registry counters.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Barrier};

use ppf_bench::{build_xmark, xmark_queries};
use ppf_core::SharedEngine;

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
            std::thread::spawn(move || {
                let queries = xmark_queries();
                start.wait();
                for round in 0..ROUNDS {
                    for ((name, q), (_, ids)) in queries.iter().zip(expected.iter()) {
                        let r = engine
                            .query(q)
                            .unwrap_or_else(|e| panic!("worker {w} round {round} {name}: {e}"));
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
    assert!(
        ppf_core::concurrent_queries_peak() >= 2,
        "four workers × three rounds never overlapped: peak {}",
        ppf_core::concurrent_queries_peak()
    );
}
