//! Thread-scaling gate for the parallel-execution work: runs the fig4
//! (XMark) workload with the work-stealing pool sized at 1, 2 and 4
//! threads, plus a concurrent multi-query throughput measurement against
//! one `SharedEngine`, and emits `BENCH_3.json` with the full table.
//!
//! After the scaling table, a profiled 4-thread pass re-runs the whole
//! workload with the event profiler attached and writes the chrome trace
//! to `BENCH_3_trace.json` (load it in Perfetto) plus a `profile` object
//! in `BENCH_3.json` with per-worker utilization, steal-success rate and
//! chunk skew — the attribution columns printed when a gate fails.
//!
//! Exit is non-zero when an invariant fails:
//!   * on ANY host, 4 threads may not make the warm total more than 5%
//!     slower than 1 thread (`speedup_t4_vs_t1 >= 0.95`) — the
//!     no-regression floor that catches contention bugs even on small
//!     CI hosts;
//!   * no single query's warm 4-thread time may exceed 1.15× its warm
//!     1-thread time;
//!   * the 4-thread ForceOn verification pass must partition something;
//!   * the 1-thread column must stay flat: when a same-scale
//!     `BENCH_2.json` from the serial perf gate is present (CI runs
//!     `perf_check` first, so it is fresh from the same machine), the
//!     1-thread warm total may not regress past 1.5× of it;
//!   * every configuration must return identical result cardinalities.
//!
//! There is no speedup gate: `Auto` forks only a branch whose planned
//! work reaches `FORK_MIN_WORK`, which no fig4 query does at the default
//! scale 0.1, so the 4-thread column is expected to match the 1-thread
//! one, not beat it.

use std::fmt::Write as _;
use std::time::Instant;

use ppf_bench::{generate_xmark, xmark_queries, xmark_schema, XMarkConfig};
use ppf_core::{ExecOptions, QueryLimits, SharedEngine, XmlDb};

const OUTPUT_PATH: &str = "BENCH_3.json";
const TRACE_PATH: &str = "BENCH_3_trace.json";
const SERIAL_BENCH_PATH: &str = "BENCH_2.json";
const THREADS: &[usize] = &[1, 2, 4];
const COLD_ROUNDS: usize = 2;
const WARM_ROUNDS: usize = 5;
const CLIENTS: usize = 4;
const CLIENT_ROUNDS: usize = 2;
/// No-regression floor enforced on every host: 4 threads may not be more
/// than 5% slower than 1 thread, or the parallel path is costing us.
const MIN_SPEEDUP_FLOOR: f64 = 0.95;
/// Per-query no-harm bound, any host: no single query's warm 4-thread
/// time may exceed 1.15× its warm 1-thread time (the totals floor can
/// hide one query paying for the others' wins).
const MAX_QUERY_HARM: f64 = 1.15;
/// Allowed 1-thread regression vs the serial gate's committed numbers.
const MAX_SERIAL_REGRESSION: f64 = 1.5;
/// Interleaved t1/t4 rounds used to confirm a first-pass no-harm hit.
const CONFIRM_ROUNDS: usize = 7;

fn bench_scale() -> f64 {
    std::env::var("PPF_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

/// The default options with every branch pipeline forced to fork.
fn force_on() -> ExecOptions {
    ExecOptions {
        parallel: sqlexec::ParallelMode::ForceOn,
        ..ExecOptions::default()
    }
}

fn build_db(doc: &xmldom::Document) -> XmlDb {
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    // Keep every REGEXP_LIKE in the generated SQL, as the serial perf
    // gate does.
    db.set_path_marking(false);
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// One query measured at one pool size.
#[derive(Clone, Copy, Default)]
struct Cell {
    cold_ns: u64,
    warm_ns: u64,
    rows: usize,
    par_tasks: u64,
    par_chunks: u64,
    par_rows: u64,
    par_chunk_rows_max: u64,
}

impl Cell {
    /// Largest chunk over the even-share chunk size: 1.0 means perfectly
    /// balanced partitions, larger values mean one worker got the long
    /// pole. Zero when the query never fanned out.
    fn chunk_skew(&self) -> f64 {
        if self.par_chunks == 0 || self.par_rows == 0 {
            return 0.0;
        }
        let even = self.par_rows as f64 / self.par_chunks as f64;
        self.par_chunk_rows_max as f64 / even.max(1e-9)
    }
}

/// Pool-counter deltas accumulated over one thread-count column (the
/// pool is rebuilt by `set_threads`, so counters restart per column).
#[derive(Clone, Copy, Default)]
struct PoolCounters {
    steals: u64,
    steal_attempts: u64,
    lifo_hits: u64,
}

impl PoolCounters {
    fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steals as f64 / self.steal_attempts as f64
        }
    }
}

fn measure_at(
    doc: &xmldom::Document,
    threads: usize,
    verify_failures: &mut Vec<String>,
) -> (Vec<Cell>, f64, PoolCounters) {
    ppf_pool::set_threads(threads);
    let pool = ppf_pool::global();
    let counters_before = (
        pool.steal_count(),
        pool.steal_attempt_count(),
        pool.lifo_hit_count(),
    );
    let dbs: Vec<XmlDb> = (0..COLD_ROUNDS).map(|_| build_db(doc)).collect();
    let mut cells = Vec::new();
    for (name, query) in xmark_queries() {
        let mut cell = Cell {
            cold_ns: u64::MAX,
            warm_ns: u64::MAX,
            ..Cell::default()
        };
        for db in &dbs {
            sqlexec::clear_filter_caches(db.db());
            let t0 = Instant::now();
            let r = db.query(query).expect(name);
            let ns = t0.elapsed().as_nanos() as u64;
            if ns < cell.cold_ns {
                cell.cold_ns = ns;
            }
            // Keep the largest fan-out observed over all runs.
            cell.par_tasks = cell.par_tasks.max(r.stats.par_tasks);
            cell.par_chunks = cell.par_chunks.max(r.stats.par_chunks);
            cell.par_rows = cell.par_rows.max(r.stats.par_rows);
            cell.par_chunk_rows_max = cell.par_chunk_rows_max.max(r.stats.par_chunk_rows_max);
            cell.rows = r.rows.rows.len();
        }
        for round in 0..WARM_ROUNDS {
            let t0 = Instant::now();
            let r = dbs[0].query(query).expect(name);
            if std::env::var_os("PPF_TS_DEBUG").is_some() {
                eprintln!(
                    "DBG t{threads} {name} warm#{round}: {}ns par {}/{}",
                    t0.elapsed().as_nanos(),
                    r.stats.par_tasks,
                    r.stats.par_chunks
                );
            }
            cell.warm_ns = cell.warm_ns.min(t0.elapsed().as_nanos() as u64);
            cell.par_tasks = cell.par_tasks.max(r.stats.par_tasks);
            cell.par_chunks = cell.par_chunks.max(r.stats.par_chunks);
            cell.par_rows = cell.par_rows.max(r.stats.par_rows);
            cell.par_chunk_rows_max = cell.par_chunk_rows_max.max(r.stats.par_chunk_rows_max);
        }
        if threads > 1 {
            // Untimed ForceOn verification pass: every branch pipeline
            // must fork and still reproduce the Auto/serial result, even
            // where Auto's fork rule declines (at scale 0.1 it declines
            // every branch). Its par counters fold into the cell so the
            // JSON shows what the query *can* partition, not just what
            // Auto chose.
            let r = dbs[0]
                .query_with_options(query, QueryLimits::none(), force_on())
                .expect(name);
            if r.rows.rows.len() != cell.rows {
                verify_failures.push(format!(
                    "{name}: ForceOn at {threads} threads returned {} row(s), Auto returned {}",
                    r.rows.rows.len(),
                    cell.rows
                ));
            }
            cell.par_tasks = cell.par_tasks.max(r.stats.par_tasks);
            cell.par_chunks = cell.par_chunks.max(r.stats.par_chunks);
            cell.par_rows = cell.par_rows.max(r.stats.par_rows);
            cell.par_chunk_rows_max = cell.par_chunk_rows_max.max(r.stats.par_chunk_rows_max);
        }
        cells.push(cell);
    }

    // Concurrent multi-query throughput: CLIENTS threads replay the whole
    // workload against one SharedEngine (already warm — this measures the
    // engine under concurrency, not cache warm-up).
    let engine = SharedEngine::new(dbs.into_iter().next().expect("one store"));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let engine = engine.clone();
            s.spawn(move || {
                for _ in 0..CLIENT_ROUNDS {
                    for (name, query) in xmark_queries() {
                        engine.query(query).expect(name);
                    }
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let qps = (CLIENTS * CLIENT_ROUNDS * xmark_queries().len()) as f64 / secs.max(1e-9);
    let counters = PoolCounters {
        steals: pool.steal_count().saturating_sub(counters_before.0),
        steal_attempts: pool.steal_attempt_count().saturating_sub(counters_before.1),
        lifo_hits: pool.lifo_hit_count().saturating_sub(counters_before.2),
    };
    (cells, qps, counters)
}

/// Extract this run's per-query warm total from the serial gate's
/// `BENCH_2.json` (fig4 group only), without a JSON parser dependency.
fn serial_fig4_warm_total(json: &str) -> Option<u64> {
    let mut total = 0u64;
    let mut found = false;
    let mut in_fig4 = false;
    for line in json.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"group\": ") {
            in_fig4 = rest.starts_with("\"fig4\"");
        }
        if in_fig4 {
            if let Some(rest) = line.strip_prefix("\"warm_ns\": ") {
                total += rest.trim_end_matches(',').parse::<u64>().ok()?;
                found = true;
            }
        }
    }
    found.then_some(total)
}

fn extract_f64(json: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Summary of the profiled 4-thread pass, emitted as the `profile`
/// object in `BENCH_3.json` and printed as attribution when a gate
/// fails.
struct ProfileSummary {
    events: u64,
    dropped: u64,
    window_ms: f64,
    steal_attempts: u64,
    steal_successes: u64,
    chunk_skew: f64,
    workers: Vec<obs::WorkerTimeline>,
    window_ns: u64,
}

impl ProfileSummary {
    fn steal_success_rate(&self) -> f64 {
        if self.steal_attempts == 0 {
            0.0
        } else {
            self.steal_successes as f64 / self.steal_attempts as f64
        }
    }
}

/// Re-run the workload at 4 threads, cold db, with the event profiler
/// attached; write the chrome trace and distill the attribution numbers.
fn profiled_pass(doc: &xmldom::Document) -> ProfileSummary {
    ppf_pool::set_threads(4);
    let mut db = build_db(doc);
    db.set_exec_options(force_on());
    sqlexec::clear_filter_caches(db.db());
    assert!(
        obs::profile::attach(),
        "profiler already attached (another profile in this process?)"
    );
    // ForceOn: the profiled pass is about the parallel machinery
    // (worker timelines, steals, chunk balance), and at this scale
    // Auto's fork rule declines every fork — which would leave nothing
    // on the timeline to attribute.
    for (name, query) in xmark_queries() {
        db.query(query).expect(name);
    }
    let profile = obs::profile::detach().expect("profiler was attached");
    std::fs::write(TRACE_PATH, profile.to_chrome_trace()).expect("write chrome trace");

    let window_ns = profile.window_ns();
    let timelines = profile.timelines();
    let (mut attempts, mut successes) = (0u64, 0u64);
    let (mut chunk_rows, mut chunks, mut chunk_max) = (0u64, 0u64, 0u64);
    for t in &timelines {
        attempts += t.steal_attempts;
        successes += t.steal_successes;
        chunk_rows += t.chunk_rows;
        chunks += t.chunks;
        chunk_max = chunk_max.max(t.chunk_rows_max);
    }
    let chunk_skew = if chunks == 0 || chunk_rows == 0 {
        0.0
    } else {
        chunk_max as f64 / (chunk_rows as f64 / chunks as f64).max(1e-9)
    };
    ProfileSummary {
        events: profile.total_events() as u64,
        dropped: profile.dropped,
        window_ms: window_ns as f64 / 1e6,
        steal_attempts: attempts,
        steal_successes: successes,
        chunk_skew,
        workers: timelines,
        window_ns,
    }
}

/// Re-measure one query's warm time at 1 and 4 threads with the rounds
/// interleaved back-to-back. The main columns are measured minutes
/// apart, so on a noisy host (hypervisor steal, frequency shifts) a
/// query's t4/t1 ratio can reflect *when* each column ran rather than
/// what the engine did. Interleaving makes any drift hit both columns
/// equally; the min over rounds is the drift-free estimate for each.
fn confirm_pair(doc: &xmldom::Document, query: &str) -> (u64, u64) {
    let db = build_db(doc);
    // Fill the filter-scan memo before timing anything.
    for _ in 0..2 {
        let _ = db.query(query);
    }
    let mut best1 = u64::MAX;
    let mut best4 = u64::MAX;
    for _ in 0..CONFIRM_ROUNDS {
        ppf_pool::set_threads(1);
        let t0 = Instant::now();
        let _ = db.query(query).expect("confirm t1");
        best1 = best1.min(t0.elapsed().as_nanos() as u64);
        ppf_pool::set_threads(4);
        let t0 = Instant::now();
        let _ = db.query(query).expect("confirm t4");
        best4 = best4.min(t0.elapsed().as_nanos() as u64);
    }
    (best1, best4)
}

fn main() {
    let scale = bench_scale();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = generate_xmark(XMarkConfig { scale, seed: 42 });

    let queries = xmark_queries();
    let mut failures = Vec::new();
    let mut columns: Vec<(usize, Vec<Cell>, f64, PoolCounters)> = Vec::new();
    for &t in THREADS {
        let (cells, qps, counters) = measure_at(&doc, t, &mut failures);
        columns.push((t, cells, qps, counters));
    }
    let prof = profiled_pass(&doc);
    ppf_pool::set_threads(1);

    // Result cardinalities must agree across every pool size.
    for (i, (name, _)) in queries.iter().enumerate() {
        let rows: Vec<usize> = columns
            .iter()
            .map(|(_, cells, _, _)| cells[i].rows)
            .collect();
        if rows.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!(
                "{name}: row counts diverge across pool sizes: {rows:?}"
            ));
        }
    }

    // Confirmation pass: any query whose first-pass t4/t1 ratio exceeds
    // the no-harm bound is re-measured with the two pool sizes
    // interleaved, and the re-measured warm times replace the originals
    // (in the gate *and* the JSON). A ratio that survives interleaving
    // is a real regression; one that does not was clock drift between
    // column measurements.
    let idx_of = |t: usize| columns.iter().position(|(threads, ..)| *threads == t);
    if let (Some(i1), Some(i4)) = (idx_of(1), idx_of(4)) {
        for (qi, (name, query)) in queries.iter().enumerate() {
            let w1 = columns[i1].1[qi].warm_ns;
            let w4 = columns[i4].1[qi].warm_ns;
            let ratio = w4 as f64 / w1.max(1) as f64;
            if ratio > MAX_QUERY_HARM {
                let (c1, c4) = confirm_pair(&doc, query);
                println!(
                    "  confirm {name}: first-pass t4/t1 {ratio:.3}x, interleaved {:.3}x",
                    c4 as f64 / c1.max(1) as f64
                );
                columns[i1].1[qi].warm_ns = c1;
                columns[i4].1[qi].warm_ns = c4;
            }
        }
        ppf_pool::set_threads(1);
    }

    let column = |t: usize| columns.iter().find(|(threads, ..)| *threads == t);
    let warm_total = |t: usize| -> u64 {
        column(t)
            .map(|(_, cells, _, _)| cells.iter().map(|c| c.warm_ns).sum())
            .unwrap_or(0)
    };
    let par_total = |t: usize| -> (u64, u64) {
        column(t)
            .map(|(_, cells, _, _)| {
                (
                    cells.iter().map(|c| c.par_tasks).sum(),
                    cells.iter().map(|c| c.par_chunks).sum(),
                )
            })
            .unwrap_or((0, 0))
    };
    let t1 = warm_total(1);
    let t4 = warm_total(4);
    let speedup4 = t1 as f64 / t4.max(1) as f64;

    // ----- gates (all evaluated before the JSON is written, so the
    // artifact can carry the outcome and is always on disk when the
    // process exits nonzero) -----

    // Partitioning must actually engage once the pool has threads. Auto
    // may rightly fork nothing at this scale; the ForceOn verification
    // pass, folded into the column's par counters, is what makes this
    // non-zero.
    let (tasks4, _) = par_total(4);
    if tasks4 == 0 {
        failures.push("4-thread run never partitioned (par_tasks_t4 = 0)".into());
    }
    let (tasks1, chunks1) = par_total(1);
    if tasks1 != 0 || chunks1 != 0 {
        failures.push(format!(
            "1-thread run partitioned: par {tasks1}/{chunks1} (must be the serial engine)"
        ));
    }
    if prof.events == 0 {
        failures.push("profiled 4-thread pass recorded zero events".into());
    }
    // The no-regression floor holds on every host.
    let speedup_failed = speedup4 < MIN_SPEEDUP_FLOOR;
    if speedup_failed {
        failures.push(format!(
            "4-thread speedup {speedup4:.3}x below the {MIN_SPEEDUP_FLOOR}x no-regression floor"
        ));
    }
    // Per-query no-harm: the totals can hide one query paying for the
    // rest; no query may individually regress past the bound.
    if let (Some((_, c1, _, _)), Some((_, c4, _, _))) = (column(1), column(4)) {
        for (i, (name, _)) in queries.iter().enumerate() {
            let ratio = c4[i].warm_ns as f64 / (c1[i].warm_ns.max(1)) as f64;
            if ratio > MAX_QUERY_HARM {
                failures.push(format!(
                    "{name}: warm t4 is {ratio:.3}x warm t1 (per-query no-harm limit \
                     {MAX_QUERY_HARM}x)"
                ));
            }
        }
    }
    match std::fs::read_to_string(SERIAL_BENCH_PATH) {
        Ok(serial) if extract_f64(&serial, "scale") == Some(scale) => {
            if let Some(serial_warm) = serial_fig4_warm_total(&serial) {
                let ratio = t1 as f64 / serial_warm.max(1) as f64;
                println!("  1-thread warm vs serial gate ({SERIAL_BENCH_PATH}): {ratio:.3}x");
                if ratio > MAX_SERIAL_REGRESSION {
                    failures.push(format!(
                        "1-thread warm total regressed {ratio:.3}x vs {SERIAL_BENCH_PATH} \
                         (limit {MAX_SERIAL_REGRESSION}x)"
                    ));
                }
            }
        }
        Ok(_) => println!(
            "note: {SERIAL_BENCH_PATH} is from a different scale; skipping flat-serial check"
        ),
        Err(_) => println!("note: no {SERIAL_BENCH_PATH}; skipping flat-serial check"),
    }
    let gate_outcome = if failures.is_empty() {
        "pass".to_string()
    } else {
        format!("fail: {}", failures.join("; ").replace('"', "'"))
    };

    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"bench\": \"thread_scaling\",").unwrap();
    writeln!(s, "  \"scale\": {scale},").unwrap();
    writeln!(s, "  \"cores\": {cores},").unwrap();
    writeln!(s, "  \"gate_outcome\": \"{gate_outcome}\",").unwrap();
    writeln!(s, "  \"totals\": {{").unwrap();
    for &t in THREADS {
        let (tasks, chunks) = par_total(t);
        writeln!(s, "    \"warm_ns_t{t}\": {},", warm_total(t)).unwrap();
        writeln!(s, "    \"par_tasks_t{t}\": {tasks},").unwrap();
        writeln!(s, "    \"par_chunks_t{t}\": {chunks},").unwrap();
    }
    for (t, _, qps, _) in &columns {
        writeln!(s, "    \"concurrent_qps_t{t}\": {qps:.1},").unwrap();
    }
    for (t, _, _, pc) in &columns {
        writeln!(s, "    \"steal_attempts_t{t}\": {},", pc.steal_attempts).unwrap();
        writeln!(s, "    \"steal_successes_t{t}\": {},", pc.steals).unwrap();
        writeln!(
            s,
            "    \"steal_success_rate_t{t}\": {:.3},",
            pc.steal_success_rate()
        )
        .unwrap();
        writeln!(s, "    \"lifo_hits_t{t}\": {},", pc.lifo_hits).unwrap();
    }
    writeln!(s, "    \"speedup_t4_vs_t1\": {speedup4:.3},").unwrap();
    writeln!(s, "    \"per_query_harm_limit\": {MAX_QUERY_HARM},").unwrap();
    writeln!(s, "    \"speedup_floor\": {MIN_SPEEDUP_FLOOR}").unwrap();
    writeln!(s, "  }},").unwrap();
    writeln!(s, "  \"profile\": {{").unwrap();
    writeln!(s, "    \"trace_file\": \"{TRACE_PATH}\",").unwrap();
    writeln!(s, "    \"events\": {},", prof.events).unwrap();
    writeln!(s, "    \"dropped_events\": {},", prof.dropped).unwrap();
    writeln!(s, "    \"window_ms\": {:.3},", prof.window_ms).unwrap();
    writeln!(s, "    \"steal_attempts\": {},", prof.steal_attempts).unwrap();
    writeln!(s, "    \"steal_successes\": {},", prof.steal_successes).unwrap();
    writeln!(
        s,
        "    \"steal_success_rate\": {:.3},",
        prof.steal_success_rate()
    )
    .unwrap();
    writeln!(s, "    \"chunk_skew\": {:.3},", prof.chunk_skew).unwrap();
    writeln!(s, "    \"workers\": [").unwrap();
    for (i, w) in prof.workers.iter().enumerate() {
        writeln!(s, "      {{").unwrap();
        writeln!(s, "        \"name\": \"{}\",", w.name).unwrap();
        writeln!(
            s,
            "        \"utilization\": {:.3},",
            w.utilization(prof.window_ns)
        )
        .unwrap();
        writeln!(s, "        \"busy_ms\": {:.3},", w.busy_ns as f64 / 1e6).unwrap();
        writeln!(s, "        \"park_ms\": {:.3},", w.park_ns as f64 / 1e6).unwrap();
        writeln!(s, "        \"tasks\": {},", w.tasks).unwrap();
        writeln!(s, "        \"chunks\": {}", w.chunks).unwrap();
        writeln!(
            s,
            "      }}{}",
            if i + 1 < prof.workers.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(s, "    ]").unwrap();
    writeln!(s, "  }},").unwrap();
    writeln!(s, "  \"queries\": [").unwrap();
    for (i, (name, query)) in queries.iter().enumerate() {
        writeln!(s, "    {{").unwrap();
        writeln!(s, "      \"name\": \"{name}\",").unwrap();
        writeln!(s, "      \"query\": \"{}\",", query.replace('\"', "\\\"")).unwrap();
        writeln!(s, "      \"rows\": {},", columns[0].1[i].rows).unwrap();
        for (j, (t, cells, _, _)) in columns.iter().enumerate() {
            let c = cells[i];
            writeln!(s, "      \"cold_ns_t{t}\": {},", c.cold_ns).unwrap();
            writeln!(s, "      \"warm_ns_t{t}\": {},", c.warm_ns).unwrap();
            writeln!(
                s,
                "      \"par_t{t}\": \"{}/{}\",",
                c.par_tasks, c.par_chunks
            )
            .unwrap();
            writeln!(s, "      \"par_rows_t{t}\": {},", c.par_rows).unwrap();
            writeln!(
                s,
                "      \"chunk_skew_t{t}\": {:.3}{}",
                c.chunk_skew(),
                if j + 1 < columns.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(s, "    }}{}", if i + 1 < queries.len() { "," } else { "" }).unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    std::fs::write(OUTPUT_PATH, &s).expect("write BENCH_3.json");

    println!("thread_scaling: scale={scale} cores={cores}");
    for (t, _, qps, pc) in &columns {
        let (tasks, chunks) = par_total(*t);
        println!(
            "  threads={t}: warm total {:>12}ns  par {}/{}  concurrent {:>7.1} q/s  steals {}/{}  lifo {}",
            warm_total(*t),
            tasks,
            chunks,
            qps,
            pc.steals,
            pc.steal_attempts,
            pc.lifo_hits,
        );
    }
    println!("  speedup at 4 threads: {speedup4:.3}x (floor: {MIN_SPEEDUP_FLOOR}x)");
    println!(
        "  profiled pass: {} events over {:.1} ms, steals {}/{} ({:.0}% hit), chunk skew {:.2} ({})",
        prof.events,
        prof.window_ms,
        prof.steal_successes,
        prof.steal_attempts,
        prof.steal_success_rate() * 100.0,
        prof.chunk_skew,
        TRACE_PATH,
    );

    if speedup_failed {
        // Print the attribution columns so the trace points at the
        // culprit without re-running anything.
        eprintln!("REGRESSION: 4-thread speedup {speedup4:.3}x (floor {MIN_SPEEDUP_FLOOR}x)");
        eprintln!(
            "  attribution (profiled 4-thread pass): steals {}/{} ({:.0}% hit), chunk skew {:.2}",
            prof.steal_successes,
            prof.steal_attempts,
            prof.steal_success_rate() * 100.0,
            prof.chunk_skew,
        );
        for w in &prof.workers {
            eprintln!(
                "    {:<14} util {:>5.1}%  busy {:>8.2} ms  park {:>8.2} ms  tasks {:>4}  chunks {:>4}",
                w.name,
                w.utilization(prof.window_ns) * 100.0,
                w.busy_ns as f64 / 1e6,
                w.park_ns as f64 / 1e6,
                w.tasks,
                w.chunks,
            );
        }
        eprintln!("  full timeline: {TRACE_PATH} (load in Perfetto: ui.perfetto.dev)");
    }

    if failures.is_empty() {
        println!("thread_scaling: OK (BENCH_3.json written)");
    } else {
        for f in &failures {
            eprintln!("thread_scaling FAILED: {f}");
        }
        std::process::exit(1);
    }
}
