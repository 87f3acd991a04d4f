//! `ppf-bench` — the experiment harness for the paper's evaluation (§5).
//!
//! Builds the five competing systems over the same generated documents:
//!
//! | harness name | paper name                         | implementation |
//! |--------------|------------------------------------|----------------|
//! | `Ppf`        | PPF (schema-aware)                 | `ppf_core::XmlDb` |
//! | `EdgePpf`    | Edge-like PPF (schema-oblivious)   | `ppf_core::EdgeDb` |
//! | `Native`     | MonetDB/XQuery (main-memory proxy) | `xpath::evaluate` |
//! | `Accel`      | XPath Accelerator                  | `accel::AccelDb` |
//! | `Naive`      | commercial RDBMS built-in XPath    | `accel::translate_naive` |
//!
//! The `paper_tables` binary and the `cost_ledger` test drive this
//! module; EXPERIMENTS.md records the tables next to the paper's
//! Appendix C.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use accel::AccelDb;
use ppf_core::{EdgeDb, XmlDb};
use sqlexec::Executor;
use xmldom::Document;
use xmlschema::Schema;

pub use xmark::{
    dblp_queries, dblp_schema, generate_dblp, generate_xmark, xmark_queries, xmark_schema,
    DblpConfig, XMarkConfig,
};

/// The §4.5 ablation's queries: chains the path marking strips of every
/// `Paths` filter (plain, predicated, and under a wildcard) and a
/// recursive query that keeps its filters either way. `pred_chain` and
/// `wildcard` are XMark Q23 and Q1.
pub const ABLATION_CHAINS: [(&str, &str); 5] = [
    (
        "deep_chain",
        "/site/open_auctions/open_auction/interval/start",
    ),
    ("person_chain", "/site/people/person/address/city"),
    (
        "pred_chain",
        "/site/people/person[address and (phone or homepage)]",
    ),
    ("recursive", "//parlist/listitem//keyword"),
    ("wildcard", "/site/regions/*/item"),
];

/// All five systems loaded with the same document.
pub struct BenchData {
    pub doc: Document,
    pub schema: Schema,
    pub ppf: XmlDb,
    pub edge: EdgeDb,
    pub accel: AccelDb,
}

/// The competing systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum System {
    Ppf,
    EdgePpf,
    Native,
    Accel,
    Naive,
}

impl System {
    pub const ALL: [System; 5] = [
        System::Ppf,
        System::EdgePpf,
        System::Native,
        System::Accel,
        System::Naive,
    ];

    /// Label used in the output tables (mirroring Appendix C's columns).
    pub fn label(self) -> &'static str {
        match self {
            System::Ppf => "PPF",
            System::EdgePpf => "Edge-like PPF",
            System::Native => "Native (MonetDB proxy)",
            System::Accel => "XPath Accel.",
            System::Naive => "Naive FK (commercial proxy)",
        }
    }
}

fn build(doc: Document, schema: Schema) -> BenchData {
    let mut ppf = XmlDb::new(&schema).expect("schema db");
    ppf.load(&doc).expect("ppf load");
    ppf.finalize().expect("ppf indexes");

    let mut edge = EdgeDb::new();
    edge.load(&doc).expect("edge load");
    edge.finalize().expect("edge indexes");

    let mut accel = AccelDb::new();
    accel.load(&doc).expect("accel load");
    accel.finalize().expect("accel indexes");

    BenchData {
        doc,
        schema,
        ppf,
        edge,
        accel,
    }
}

/// Build all systems over an XMark-like document.
pub fn build_xmark(scale: f64, seed: u64) -> BenchData {
    build(generate_xmark(XMarkConfig { scale, seed }), xmark_schema())
}

/// Build all systems over a DBLP-like document.
pub fn build_dblp(scale: f64, seed: u64) -> BenchData {
    build(generate_dblp(DblpConfig { scale, seed }), dblp_schema())
}

/// Run a query on a system; returns the result cardinality, or `Err` when
/// the system does not support the query (expected for `Naive` on most).
pub fn run_query(data: &BenchData, system: System, query: &str) -> Result<usize, String> {
    match system {
        System::Ppf => data
            .ppf
            .query(query)
            .map(|r| r.rows.rows.len())
            .map_err(|e| e.to_string()),
        System::EdgePpf => data
            .edge
            .query(query)
            .map(|r| r.rows.rows.len())
            .map_err(|e| e.to_string()),
        System::Native => {
            let expr = xpath::parse_xpath(query).map_err(|e| e.to_string())?;
            xpath::evaluate(&data.doc, &expr)
                .map(|items| items.len())
                .map_err(|e| e.to_string())
        }
        System::Accel => data
            .accel
            .query(query)
            .map(|r| r.rows.rows.len())
            .map_err(|e| e.to_string()),
        System::Naive => {
            let expr = xpath::parse_xpath(query).map_err(|e| e.to_string())?;
            let stmt = accel::translate_naive(&data.schema, &expr).map_err(|e| e.to_string())?;
            let exec = Executor::new(data.ppf.db());
            exec.run(&stmt)
                .map(|rs| rs.rows.len())
                .map_err(|e| e.to_string())
        }
    }
}

/// Operator counters attached to one measured query, so the harness can
/// report *why* a system is fast or slow (fewer rows scanned, fewer index
/// probes, fewer surviving path-filter candidates), not just wall-clock.
/// Counters a system does not expose stay zero (`Native` has none; the
/// `Accel`/`Naive` proxies have executor counters but no PPF pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryCounters {
    /// Result cardinality.
    pub rows: usize,
    pub rows_scanned: u64,
    pub index_probes: u64,
    pub predicate_evals: u64,
    /// `REGEXP_LIKE` path filters in the generated statement.
    pub path_filters: u64,
    /// `Paths` rows fetched as path-filter candidates.
    pub path_candidates: u64,
    /// `Paths` rows surviving their step's filters.
    pub path_survivors: u64,
    /// Pike-VM matches run by the path filters.
    pub vm_match_calls: u64,
    pub vm_steps: u64,
    /// Parallel fan-outs (partitioned branch pipelines).
    pub par_tasks: u64,
    /// Chunks executed across those fan-outs.
    pub par_chunks: u64,
    /// Work-stealing pool size when the query ran.
    pub pool_threads: u64,
}

impl QueryCounters {
    fn from_ppf(r: &ppf_core::QueryResult) -> QueryCounters {
        QueryCounters {
            rows: r.rows.rows.len(),
            rows_scanned: r.stats.rows_scanned,
            index_probes: r.stats.index_probes,
            predicate_evals: r.stats.predicate_evals,
            path_filters: r.engine.path_filters,
            path_candidates: r.engine.path_candidates,
            path_survivors: r.engine.path_survivors,
            vm_match_calls: r.engine.vm_match_calls,
            vm_steps: r.engine.vm_steps,
            par_tasks: r.stats.par_tasks,
            par_chunks: r.stats.par_chunks,
            pool_threads: r.engine.pool_threads,
        }
    }

    fn from_exec_stats(rows: usize, stats: sqlexec::ExecStats) -> QueryCounters {
        QueryCounters {
            rows,
            rows_scanned: stats.rows_scanned,
            index_probes: stats.index_probes,
            predicate_evals: stats.predicate_evals,
            ..QueryCounters::default()
        }
    }
}

/// Like [`run_query`], but returns the operator counters alongside the
/// cardinality.
pub fn run_query_counted(
    data: &BenchData,
    system: System,
    query: &str,
) -> Result<QueryCounters, String> {
    match system {
        System::Ppf => data
            .ppf
            .query(query)
            .map(|r| QueryCounters::from_ppf(&r))
            .map_err(|e| e.to_string()),
        System::EdgePpf => data
            .edge
            .query(query)
            .map(|r| QueryCounters::from_ppf(&r))
            .map_err(|e| e.to_string()),
        System::Native => run_query(data, system, query).map(|rows| QueryCounters {
            rows,
            ..QueryCounters::default()
        }),
        System::Accel => data
            .accel
            .query(query)
            .map(|r| QueryCounters::from_exec_stats(r.rows.rows.len(), r.stats))
            .map_err(|e| e.to_string()),
        System::Naive => {
            let expr = xpath::parse_xpath(query).map_err(|e| e.to_string())?;
            let stmt = accel::translate_naive(&data.schema, &expr).map_err(|e| e.to_string())?;
            let exec = Executor::new(data.ppf.db());
            let rs = exec.run(&stmt).map_err(|e| e.to_string())?;
            Ok(QueryCounters::from_exec_stats(rs.rows.len(), exec.stats()))
        }
    }
}

/// One timed measurement: median wall-clock of `reps` runs plus the
/// cardinality (the paper reports the average of 5 cold runs; medians are
/// steadier for in-memory reruns).
pub fn time_query(
    data: &BenchData,
    system: System,
    query: &str,
    reps: usize,
) -> Result<(usize, Duration), String> {
    time_median(reps, || run_query(data, system, query))
}

/// Median wall-clock of `reps` runs of `run`, with the last run's output.
pub fn time_median<T>(
    reps: usize,
    mut run: impl FnMut() -> Result<T, String>,
) -> Result<(T, Duration), String> {
    let mut times = Vec::with_capacity(reps);
    let mut out = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        out = Some(run()?);
        times.push(t0.elapsed());
        // Adaptive repetition: once a single run exceeds a few seconds,
        // more repetitions add nothing but wall-clock (the paper likewise
        // reports "~" for a cell that never finished).
        if times.last().expect("just pushed") > &Duration::from_secs(3) {
            break;
        }
    }
    times.sort();
    Ok((out.expect("at least one run"), times[times.len() / 2]))
}

/// Per-query sanity check used by the harness and integration tests: the
/// SQL systems must agree with the native evaluator on cardinality.
pub fn check_agreement(data: &BenchData, query: &str) -> Result<usize, String> {
    let expected = run_query(data, System::Native, query)?;
    for system in [System::Ppf, System::EdgePpf] {
        let got = run_query(data, system, query)?;
        if got != expected {
            return Err(format!(
                "{} returned {got}, native returned {expected} for {query}",
                system.label()
            ));
        }
    }
    Ok(expected)
}

/// Lines of Rust per crate — every `.rs` file under `crates/*/src` and
/// the root package's `src/` (as `ppfx`) — so bench JSONs record how
/// much code produced their numbers.
pub fn rust_lines() -> BTreeMap<String, usize> {
    fn count(dir: &Path) -> usize {
        let mut n = 0;
        for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let p = entry.path();
            if p.is_dir() {
                n += count(&p);
            } else if p.extension().is_some_and(|ext| ext == "rs") {
                n += std::fs::read_to_string(&p).map_or(0, |s| s.lines().count());
            }
        }
        n
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = BTreeMap::from([("ppfx".to_string(), count(&root.join("src")))]);
    for krate in std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
    {
        let name = krate.file_name().to_string_lossy().into_owned();
        out.insert(name, count(&krate.path().join("src")));
    }
    out
}
