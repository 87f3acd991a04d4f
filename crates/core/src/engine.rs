//! High-level façade: an XML database backed by the relational engine.
//!
//! [`XmlDb`] is the schema-aware system of the paper (shredding per §3,
//! PPF translation per §4); [`EdgeDb`] is the schema-oblivious variant of
//! §5.1. Both run the generated SQL on the `sqlexec`/`relstore` engine and
//! return element ids in document order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use obs::QueryTrace;
use relstore::{Database, Value};
use shred::{EdgeStore, SchemaAwareStore};
use sqlexec::plan::SelectPlan;
pub use sqlexec::{CancelToken, ExecOptions, QueryLimits};
use sqlexec::{ExecStats, Executor, Expr as Sql, ResultSet, Select, SelectStmt};
use xmldom::Document;
use xmlschema::Schema;

pub use crate::error::{EngineError, QueryError, ReloadError};
use crate::translate::{translate, Mapping, OutputKind, TranslateOptions, Translation};

/// Engine-level query-cache locks recovered after being poisoned by a
/// panicking holder (the cache is cleared on recovery: a panic mid-insert
/// leaves no trustworthy entry set).
static CACHE_POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Query-cache lock poison recoveries since process start.
pub fn cache_poison_recoveries() -> u64 {
    CACHE_POISON_RECOVERIES.load(Relaxed)
}

/// Lock a cache map, recovering from poisoning by clearing it. Losing
/// warm plans costs a re-translate on the next query; keeping state a
/// panicking thread may have half-written could serve wrong answers.
fn lock_cache<'a, K: std::cmp::Eq + std::hash::Hash, V>(
    m: &'a Mutex<HashMap<K, V>>,
) -> std::sync::MutexGuard<'a, HashMap<K, V>> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        CACHE_POISON_RECOVERIES.fetch_add(1, Relaxed);
        let mut guard = poisoned.into_inner();
        guard.clear();
        guard
    })
}

/// Compute planner statistics for every table in `db` that lacks them
/// — called after any load/finalize mutation, right where the plan
/// cache is also invalidated (the mutation already dropped each touched
/// table's previous statistics; untouched tables keep theirs). Build
/// effort is mirrored into the registry: `engine.stats_builds` (rebuild
/// passes), `engine.stats_tables` (tables covered last pass),
/// `engine.stats_build_ns` (per-pass wall time histogram).
fn rebuild_stats(db: &Database) {
    let t0 = std::time::Instant::now();
    for table in db.tables() {
        if relstore::stats::lookup(table).is_none() {
            relstore::stats::analyze(table);
        }
    }
    let reg = obs::Registry::global();
    reg.incr("engine.stats_builds", 1);
    reg.set_max("engine.stats_tables", db.len() as u64);
    reg.observe("engine.stats_build_ns", t0.elapsed().as_nanos() as u64);
}

/// Best-effort human message out of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Count a failed query in the process-wide registry, classified by
/// lifecycle phase, and refresh the poison-recovery mirrors (a contained
/// panic is exactly when they move).
fn record_query_error(err: &QueryError) {
    let reg = obs::Registry::global();
    reg.incr("engine.query_errors", 1);
    reg.incr(&format!("engine.query_errors.{}", err.kind()), 1);
    match err {
        QueryError::Limit(_) => reg.incr("engine.limit_aborts", 1),
        QueryError::Cancelled(_) => reg.incr("engine.query_cancelled", 1),
        _ => {}
    }
    mirror_poison_counters(reg);
}

/// Mirror the monotone poison-recovery counters that regexlite and this
/// module keep in their own statics into the registry, so one `.metrics`
/// snapshot shows every layer's recoveries.
fn mirror_poison_counters(reg: &obs::Registry) {
    reg.set_max("regex.poison_recoveries", regexlite::poison_recoveries());
    reg.set_max("engine.cache_poison_recoveries", cache_poison_recoveries());
}

/// Pipeline-level counters, collected on every query (the hooks are
/// always compiled in; only per-step wall-time measurement is gated, by
/// `EXPLAIN ANALYZE`). Timings are wall-clock per phase; the remaining
/// fields measure how much work the PPF machinery did. What the executor
/// counts itself (probes, regex matches) is in [`QueryResult::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// XPath parsing.
    pub parse_ns: u64,
    /// XPath → SQL translation (PPF splitting, pattern building).
    pub translate_ns: u64,
    /// Up-front planning of every UNION branch (the executor re-plans
    /// from its own cache during execution; this measures planning cost).
    pub plan_ns: u64,
    /// SQL execution.
    pub execute_ns: u64,
    /// Result assembly and SQL text rendering.
    pub publish_ns: u64,
    /// Primitive path fragments identified by the translator.
    pub ppf_count: u64,
    /// UNION branches after §4.4 SQL splitting.
    pub union_branches: u64,
    /// `REGEXP_LIKE` path filters in the generated statement (after the
    /// §4.5 marking removed the redundant ones).
    pub path_filters: u64,
    /// Rows of the `Paths` table fetched as path-filter candidates.
    pub path_candidates: u64,
    /// `Paths` rows surviving their step's filters (regex included).
    pub path_survivors: u64,
    /// Rows entering join steps (every non-leading plan step: structural
    /// Dewey joins, FK joins, and `Paths` lookups alike).
    pub join_rows_in: u64,
    /// Rows surviving those join steps' residual conditions.
    pub join_rows_out: u64,
    /// 1 when this query hit the engine's XPath-keyed cache and skipped
    /// parse, translate and plan entirely (their `*_ns` fields are 0).
    pub plan_cache_hits: u64,
    /// Regex programs compiled by this query: one per distinct
    /// `REGEXP_LIKE` pattern text its translation builds, none during
    /// execution (the statement owns its compiled patterns), and 0 on a
    /// query-cache hit.
    pub regex_compiles: u64,
    /// Path-filter probes answered from the memoised surviving-row set.
    /// A copy of [`ExecStats::path_memo_hits`], kept because the served-path
    /// benchmark reads it here.
    pub path_memo_hits: u64,
    /// Path-filter probes that had to scan `Paths` and run the regex (a
    /// copy of [`ExecStats::path_memo_misses`], for the same reader).
    pub path_memo_misses: u64,
}

/// Engine queries currently in flight, and the high-water mark.
static QUERIES_IN_FLIGHT: AtomicU64 = AtomicU64::new(0);
static QUERIES_PEAK: AtomicU64 = AtomicU64::new(0);

/// RAII in-flight counter; decrements on every exit path of `run_query`
/// (errors included) so the gauge cannot drift.
struct InFlight;

impl InFlight {
    fn enter() -> (InFlight, u64) {
        let cur = QUERIES_IN_FLIGHT.fetch_add(1, Relaxed) + 1;
        QUERIES_PEAK.fetch_max(cur, Relaxed);
        (InFlight, cur)
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        QUERIES_IN_FLIGHT.fetch_sub(1, Relaxed);
    }
}

/// A query answer: the SQL text that ran (if any), the rows, and
/// execution counters.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub sql: Option<String>,
    pub output: OutputKind,
    pub rows: ResultSet,
    pub stats: ExecStats,
    /// Pipeline phase timings and PPF-level work counters.
    pub engine: EngineStats,
    /// The [`EngineSnapshot`] version this query ran against, when it
    /// came through a [`SharedEngine`] (0 for direct `XmlDb`/`EdgeDb`
    /// queries, which have no snapshot identity). Every row of one
    /// result comes from exactly this version — queries pin their
    /// snapshot at admission and never see a mid-flight swap.
    pub snapshot_version: u64,
}

impl QueryResult {
    /// Element ids of the result, in document order.
    pub fn ids(&self) -> Vec<i64> {
        self.rows
            .rows
            .iter()
            .filter_map(|r| r.first().and_then(Value::as_int))
            .collect()
    }
}

/// A fully-prepared query, cached under its XPath text: the translated
/// statement (behind `Arc`, so the `Select` addresses that key cached
/// plans stay stable for the lifetime of the entry), the translate-time
/// counters, and the plan snapshot captured from the first execution
/// (top-level branches planned eagerly, subquery blocks as execution
/// discovers them). Entries are dropped wholesale whenever the backing
/// store mutates — the tables drop their own filter memos when they
/// mutate, but the statement and plans themselves can go stale (path marking depends on loaded documents).
///
/// `Arc` + `Mutex` (not `Rc` + `RefCell`) because [`SharedEngine`] runs
/// queries against one cache from many threads at once.
struct CachedQuery {
    stmt: Option<Arc<SelectStmt>>,
    output: OutputKind,
    ppf_count: u64,
    union_branches: u64,
    path_filters: u64,
    plans: Mutex<HashMap<usize, Arc<SelectPlan>>>,
}

type QueryCache = Mutex<HashMap<String, Arc<CachedQuery>>>;

/// Cached distinct XPath strings before the cache is cleared wholesale.
const QUERY_CACHE_CAP: usize = 256;

fn empty_result(output: OutputKind) -> QueryResult {
    QueryResult {
        sql: None,
        output,
        rows: ResultSet {
            columns: vec!["id".into(), "dewey_pos".into()],
            rows: Vec::new(),
        },
        stats: ExecStats::default(),
        engine: EngineStats::default(),
        snapshot_version: 0,
    }
}

/// The engine body [`XmlDb`] and [`EdgeDb`] share. The module is private
/// so neither `Engine` nor `Store` can be named outside this file; the
/// two public aliases are the whole surface.
mod body {
    use super::*;

    /// What a shredding store gives the engine: documents in, relations
    /// out, and the mapping the translator needs to target them.
    pub trait Store {
        fn load(&mut self, doc: &Document) -> Result<shred::LoadedDoc, shred::ShredError>;
        fn create_indexes(&mut self) -> Result<(), shred::ShredError>;
        fn db(&self) -> &Database;
        fn mapping(&self) -> Mapping<'_>;
    }

    impl Store for SchemaAwareStore {
        fn load(&mut self, doc: &Document) -> Result<shred::LoadedDoc, shred::ShredError> {
            SchemaAwareStore::load(self, doc)
        }
        fn create_indexes(&mut self) -> Result<(), shred::ShredError> {
            SchemaAwareStore::create_indexes(self)
        }
        fn db(&self) -> &Database {
            SchemaAwareStore::db(self)
        }
        fn mapping(&self) -> Mapping<'_> {
            Mapping::SchemaAware {
                schema: self.schema(),
                marking: self.marking(),
            }
        }
    }

    impl Store for EdgeStore {
        fn load(&mut self, doc: &Document) -> Result<shred::LoadedDoc, shred::ShredError> {
            EdgeStore::load(self, doc)
        }
        fn create_indexes(&mut self) -> Result<(), shred::ShredError> {
            EdgeStore::create_indexes(self)
        }
        fn db(&self) -> &Database {
            EdgeStore::db(self)
        }
        fn mapping(&self) -> Mapping<'_> {
            Mapping::EdgeLike
        }
    }

    pub struct Engine<S> {
        pub(super) store: S,
        pub(super) opts: TranslateOptions,
        pub(super) exec: ExecOptions,
        pub(super) cache: QueryCache,
        pub(super) docs: u64,
    }

    impl<S: Store> Engine<S> {
        /// Load a document; returns its tree-node → element-id mapping.
        /// Invalidates cached query plans (the translation itself can
        /// change: §4.5 path marking depends on which paths exist) and
        /// refreshes planner statistics for the mutated tables. The cache
        /// is cleared only *after* the mutation succeeds — a document
        /// that fails schema validation (checked before any row is
        /// written) must not cost the warm plans; each mutated table has
        /// already dropped its own statistics and filter memo, which
        /// covers any partially-written rows on the rare mid-shred
        /// failure.
        pub fn load(&mut self, doc: &Document) -> Result<shred::LoadedDoc, EngineError> {
            let loaded = self
                .store
                .load(doc)
                .map_err(|e| QueryError::exec(e.to_string()))?;
            self.docs += 1;
            lock_cache(&self.cache).clear();
            rebuild_stats(self.store.db());
            Ok(loaded)
        }

        /// Parse and load an XML string. A parse failure happens before
        /// any store mutation, so it leaves the query cache warm.
        pub fn load_xml(&mut self, xml: &str) -> Result<shred::LoadedDoc, EngineError> {
            let doc = xmldom::parse(xml).map_err(|e| QueryError::parse(e.to_string()))?;
            self.load(&doc)
        }

        /// Build the §3.1 indexes; call once after bulk loading. Also the
        /// canonical statistics collection point: indexing drops every
        /// table's statistics, so they are recomputed here for the final
        /// loaded shape. As with [`Engine::load`], warm plans are dropped
        /// only once the mutation has succeeded.
        pub fn finalize(&mut self) -> Result<(), EngineError> {
            self.store
                .create_indexes()
                .map_err(|e| QueryError::exec(e.to_string()))?;
            lock_cache(&self.cache).clear();
            rebuild_stats(self.store.db());
            Ok(())
        }

        pub fn db(&self) -> &Database {
            self.store.db()
        }

        /// Plan and execute every later query under `opts`. Cached plans
        /// were built under the previous options, so they are dropped.
        pub fn set_exec_options(&mut self, opts: ExecOptions) {
            self.exec = opts;
            lock_cache(&self.cache).clear();
        }

        /// Documents successfully loaded into this store.
        pub fn doc_count(&self) -> u64 {
            self.docs
        }

        /// Translate an XPath string to its SQL.
        pub fn translate(&self, xpath: &str) -> Result<Translation, EngineError> {
            let expr = xpath::parse_xpath(xpath).map_err(|e| QueryError::parse(e.to_string()))?;
            self.translate_expr(&expr)
        }

        fn translate_expr(&self, expr: &xpath::Expr) -> Result<Translation, EngineError> {
            translate(expr, self.store.mapping(), self.opts)
                .map_err(|e| QueryError::translate(e.to_string()))
        }

        /// The SQL text for an XPath query (`None` when statically empty).
        pub fn sql_for(&self, xpath: &str) -> Result<Option<String>, EngineError> {
            Ok(self
                .translate(xpath)?
                .stmt
                .as_ref()
                .map(sqlexec::render_stmt))
        }

        /// Run an XPath query through the PPF translation.
        pub fn query(&self, xpath: &str) -> Result<QueryResult, EngineError> {
            Ok(self.query_traced(xpath)?.0)
        }

        /// Run an XPath query under resource limits: a deadline, a
        /// scanned-row budget and/or a [`CancelToken`], checked
        /// cooperatively at the executor's loop boundaries. Violations
        /// come back as [`QueryError::Limit`] / [`QueryError::Cancelled`];
        /// other in-flight queries are unaffected.
        pub fn query_with_limits(
            &self,
            xpath: &str,
            limits: QueryLimits,
        ) -> Result<QueryResult, EngineError> {
            Ok(self.query_traced_with_limits(xpath, limits)?.0)
        }

        /// Run a query and also return its span tree (parse → translate →
        /// plan → execute → publish, with per-phase counters attached).
        /// Repeat runs of the same XPath hit the engine's query cache and
        /// skip the first three phases (their spans appear with zero
        /// duration; `EngineStats::plan_cache_hits` is set).
        pub fn query_traced(&self, xpath: &str) -> Result<(QueryResult, QueryTrace), EngineError> {
            self.query_traced_with_limits(xpath, QueryLimits::none())
        }

        /// [`Engine::query_traced`] under resource limits (see
        /// [`Engine::query_with_limits`]).
        pub fn query_traced_with_limits(
            &self,
            xpath: &str,
            limits: QueryLimits,
        ) -> Result<(QueryResult, QueryTrace), EngineError> {
            run_query(
                self.db(),
                xpath,
                &self.cache,
                &|e| self.translate_expr(e),
                limits,
                self.exec,
            )
        }
    }
}

/// The schema-aware PPF system (the paper's main configuration).
pub type XmlDb = body::Engine<SchemaAwareStore>;

impl XmlDb {
    pub fn new(schema: &Schema) -> Result<XmlDb, EngineError> {
        Ok(XmlDb {
            store: SchemaAwareStore::new(schema).map_err(|e| QueryError::exec(e.to_string()))?,
            opts: TranslateOptions::default(),
            exec: ExecOptions::default(),
            cache: QueryCache::default(),
            docs: 0,
        })
    }

    /// Toggle the §4.5 path-filter omission (for the ablation benchmark).
    pub fn set_path_marking(&mut self, on: bool) {
        self.opts.use_path_marking = on;
        lock_cache(&self.cache).clear();
    }

    /// Toggle FK joins for single child/parent steps (§4.2; off = always
    /// Dewey joins, for the ablation benchmark).
    pub fn set_fk_joins(&mut self, on: bool) {
        self.opts.use_fk_joins = on;
        lock_cache(&self.cache).clear();
    }

    pub fn store(&self) -> &SchemaAwareStore {
        &self.store
    }
}

/// The schema-oblivious (Edge-like) PPF system of §5.1.
pub type EdgeDb = body::Engine<EdgeStore>;

impl Default for EdgeDb {
    fn default() -> Self {
        Self::new()
    }
}

impl EdgeDb {
    pub fn new() -> EdgeDb {
        EdgeDb {
            store: EdgeStore::new(),
            opts: TranslateOptions {
                use_path_marking: false,
                ..TranslateOptions::default()
            },
            exec: ExecOptions::default(),
            cache: QueryCache::default(),
            docs: 0,
        }
    }
}

/// `REGEXP_LIKE` occurrences in an expression tree (path filters).
fn filters_in_expr(e: &Sql) -> u64 {
    match e {
        Sql::RegexpLike { subject, .. } => 1 + filters_in_expr(subject),
        Sql::And(xs) | Sql::Or(xs) => xs.iter().map(filters_in_expr).sum(),
        Sql::Not(x) | Sql::IsNull { expr: x, .. } => filters_in_expr(x),
        Sql::Cmp { lhs, rhs, .. } | Sql::Arith { lhs, rhs, .. } => {
            filters_in_expr(lhs) + filters_in_expr(rhs)
        }
        Sql::Between { expr, lo, hi, .. } => {
            filters_in_expr(expr) + filters_in_expr(lo) + filters_in_expr(hi)
        }
        Sql::Concat(a, b) => filters_in_expr(a) + filters_in_expr(b),
        Sql::Exists(s) | Sql::ScalarSubquery(s) => filters_in_select(s),
        Sql::Literal(_) | Sql::Column { .. } | Sql::CountStar => 0,
    }
}

fn filters_in_select(s: &Select) -> u64 {
    s.where_clause.as_ref().map_or(0, filters_in_expr)
        + s.projections
            .iter()
            .map(|p| filters_in_expr(&p.expr))
            .sum::<u64>()
}

fn path_filters_in_stmt(stmt: &SelectStmt) -> u64 {
    stmt.branches.iter().map(filters_in_select).sum()
}

/// The instrumented query pipeline shared by [`XmlDb`] and [`EdgeDb`]:
/// parse → translate → plan → execute → publish, each phase a span in the
/// returned trace, with work counters attached and mirrored into the
/// process-wide [`obs`] metrics registry.
fn run_query(
    db: &Database,
    xpath: &str,
    cache: &QueryCache,
    translate_expr: &dyn Fn(&xpath::Expr) -> Result<Translation, EngineError>,
    limits: QueryLimits,
    opts: ExecOptions,
) -> Result<(QueryResult, QueryTrace), EngineError> {
    // End-to-end latency is recorded for *every* query — errors and
    // limit aborts included — so the `engine.query_ns` histogram's
    // p50/p95/p99 describe what callers actually experienced, not just
    // the successes.
    let t0 = std::time::Instant::now();
    let result = run_query_inner(db, xpath, cache, translate_expr, limits, opts);
    obs::Registry::global().observe("engine.query_ns", t0.elapsed().as_nanos() as u64);
    if let Err(e) = &result {
        record_query_error(e);
    }
    result
}

fn run_query_inner(
    db: &Database,
    xpath: &str,
    cache: &QueryCache,
    translate_expr: &dyn Fn(&xpath::Expr) -> Result<Translation, EngineError>,
    limits: QueryLimits,
    opts: ExecOptions,
) -> Result<(QueryResult, QueryTrace), EngineError> {
    let (_in_flight, in_flight_now) = InFlight::enter();
    let mut trace = QueryTrace::new(xpath);
    let mut engine = EngineStats::default();
    let root = trace.start("query");

    let cached = lock_cache(cache).get(xpath).cloned();
    let entry = match cached {
        Some(entry) => {
            // Warm hit: parse, translate and plan were all done the first
            // time this XPath ran. The phases still appear in the trace —
            // as zero-duration spans — so every record keeps the same
            // five-phase shape; their `*_ns` stats stay 0.
            engine.plan_cache_hits = 1;
            let s = trace.start("parse");
            trace.end(s);
            let span = trace.start("translate");
            trace.counter(span, "ppfs", entry.ppf_count);
            trace.counter(span, "union_branches", entry.union_branches);
            trace.counter(span, "path_filters", entry.path_filters);
            trace.end(span);
            entry
        }
        None => {
            let span = trace.start("parse");
            let t0 = std::time::Instant::now();
            let expr = xpath::parse_xpath(xpath).map_err(|e| QueryError::parse(e.to_string()))?;
            engine.parse_ns = t0.elapsed().as_nanos() as u64;
            trace.end(span);

            let span = trace.start("translate");
            let t0 = std::time::Instant::now();
            let t = translate_expr(&expr)?;
            engine.translate_ns = t0.elapsed().as_nanos() as u64;
            engine.regex_compiles = t.regex_compiles as u64;
            let mut union_branches = 0;
            let mut path_filters = 0;
            if let Some(stmt) = &t.stmt {
                union_branches = stmt.branches.len() as u64;
                path_filters = path_filters_in_stmt(stmt);
            }
            trace.counter(span, "ppfs", t.ppf_count as u64);
            trace.counter(span, "union_branches", union_branches);
            trace.counter(span, "path_filters", path_filters);
            trace.end(span);

            let entry = Arc::new(CachedQuery {
                stmt: t.stmt.map(Arc::new),
                output: t.output,
                ppf_count: t.ppf_count as u64,
                union_branches,
                path_filters,
                plans: Mutex::new(HashMap::new()),
            });
            let mut map = lock_cache(cache);
            if map.len() >= QUERY_CACHE_CAP {
                map.clear();
            }
            map.insert(xpath.to_string(), entry.clone());
            entry
        }
    };
    engine.ppf_count = entry.ppf_count;
    engine.union_branches = entry.union_branches;
    engine.path_filters = entry.path_filters;

    let mut result = match entry.stmt.as_deref() {
        None => {
            // Statically empty: plan/execute/publish phases are trivial
            // but still appear in the trace, so every record has the same
            // five-phase shape.
            for name in ["plan", "execute", "publish"] {
                let s = trace.start(name);
                trace.end(s);
            }
            empty_result(entry.output)
        }
        Some(stmt) => {
            let span = trace.start("plan");
            if engine.plan_cache_hits == 0 {
                let t0 = std::time::Instant::now();
                let mut plan_steps = 0u64;
                let mut plans = lock_cache(&entry.plans);
                for branch in &stmt.branches {
                    let plan = Arc::new(
                        sqlexec::plan::plan_select_with(db, branch, &[], &opts)
                            .map_err(QueryError::from)?,
                    );
                    plan_steps += plan.steps.len() as u64;
                    plans.insert(branch as *const Select as usize, plan);
                }
                engine.plan_ns = t0.elapsed().as_nanos() as u64;
                trace.counter(span, "steps", plan_steps);
            }
            trace.end(span);

            let span = trace.start("execute");
            let exec = Executor::with_options(db, opts);
            exec.seed_plans(&lock_cache(&entry.plans));
            exec.set_limits(limits.clone());
            let t0 = std::time::Instant::now();
            // Contain any panic that escapes the executor: one bad query
            // must degrade to an error, not take down every query in the
            // process.
            let run_outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(stmt)));
            let rows = match run_outcome {
                Ok(Ok(rows)) => rows,
                Ok(Err(e)) => return Err(QueryError::from(e)),
                Err(payload) => {
                    return Err(QueryError::exec(format!(
                        "panic during execution: {}",
                        panic_message(payload.as_ref())
                    )))
                }
            };
            engine.execute_ns = t0.elapsed().as_nanos() as u64;
            // Keep every plan this run produced (subquery blocks are
            // planned lazily during execution) for future warm runs.
            lock_cache(&entry.plans).extend(exec.plan_snapshot());
            for (plan, ops) in exec.profiled_steps() {
                for (i, (step, op)) in plan.steps.iter().zip(&ops).enumerate() {
                    if step.table == shred::naming::PATHS_TABLE {
                        engine.path_candidates += op.rows_in;
                        engine.path_survivors += op.rows_out;
                    }
                    if i > 0 {
                        engine.join_rows_in += op.rows_in;
                        engine.join_rows_out += op.rows_out;
                    }
                }
            }
            let stats = exec.stats();
            engine.path_memo_hits = stats.path_memo_hits;
            engine.path_memo_misses = stats.path_memo_misses;
            trace.counter(span, "rows_scanned", stats.rows_scanned);
            trace.counter(span, "index_probes", stats.index_probes);
            trace.counter(span, "predicate_evals", stats.predicate_evals);
            trace.counter(span, "subqueries", stats.subqueries);
            trace.counter(span, "path_candidates", engine.path_candidates);
            trace.counter(span, "path_survivors", engine.path_survivors);
            trace.counter(span, "join_rows_in", engine.join_rows_in);
            trace.counter(span, "join_rows_out", engine.join_rows_out);
            trace.counter(span, "vm_match_calls", stats.regex.match_calls);
            trace.counter(span, "vm_steps", stats.regex.vm_steps);
            trace.counter(span, "dfa_matches", stats.regex.dfa_matches);
            trace.counter(span, "path_memo_hits", stats.path_memo_hits);
            trace.counter(span, "merge_probes", stats.merge_probes);
            trace.end(span);

            let span = trace.start("publish");
            let t0 = std::time::Instant::now();
            let row_count = rows.rows.len() as u64;
            let result = QueryResult {
                sql: Some(sqlexec::render_stmt(stmt)),
                output: entry.output,
                rows,
                stats,
                engine: EngineStats::default(),
                snapshot_version: 0,
            };
            engine.publish_ns = t0.elapsed().as_nanos() as u64;
            trace.counter(span, "rows", row_count);
            trace.end(span);
            result
        }
    };
    trace.end(root);
    result.engine = engine;

    let reg = obs::Registry::global();
    reg.incr("engine.queries", 1);
    reg.observe("engine.parse_ns", engine.parse_ns);
    reg.observe("engine.translate_ns", engine.translate_ns);
    reg.observe("engine.plan_ns", engine.plan_ns);
    reg.observe("engine.execute_ns", engine.execute_ns);
    reg.observe("engine.publish_ns", engine.publish_ns);
    reg.observe("engine.result_rows", result.rows.rows.len() as u64);
    reg.incr("engine.ppfs", engine.ppf_count);
    reg.incr("engine.path_filters", engine.path_filters);
    reg.incr("engine.path_candidates", engine.path_candidates);
    reg.incr("engine.path_survivors", engine.path_survivors);
    reg.incr("engine.rows_scanned", result.stats.rows_scanned);
    reg.incr("engine.index_probes", result.stats.index_probes);
    reg.incr("engine.vm_steps", result.stats.regex.vm_steps);
    reg.incr("engine.plan_cache_hits", engine.plan_cache_hits);
    reg.incr("engine.dfa_matches", result.stats.regex.dfa_matches);
    reg.incr("engine.dfa_fallbacks", result.stats.regex.dfa_fallbacks);
    reg.incr("engine.path_memo_hits", result.stats.path_memo_hits);
    reg.incr("engine.merge_probes", result.stats.merge_probes);
    // Histogram max = the observed high-water mark of concurrency.
    reg.observe("engine.concurrent_queries", in_flight_now);
    mirror_poison_counters(reg);

    Ok((result, trace))
}

// ---------------------------------------------------------------------
// Copy-on-write snapshots & hot reload.
// ---------------------------------------------------------------------

/// One engine's snapshot ledger: how many of its snapshots are alive
/// (serving + superseded-but-pinned) and how many have fully drained and
/// dropped. `live - 1` is the number of superseded versions still pinned
/// by in-flight queries. Shared by the engine and every snapshot it has
/// made, so a snapshot can check itself out when its last pin drops.
#[derive(Default)]
struct SnapshotCounts {
    live: AtomicU64,
    retired: AtomicU64,
}

/// One immutable serving version of the engine: a finalized [`XmlDb`]
/// (store + statistics + its own XPath query cache) plus identity
/// metadata. Snapshots are held behind `Arc` and swapped atomically by
/// [`SharedEngine::reload_with`]; a query pins its snapshot at admission
/// and therefore always sees one consistent version. The snapshot is
/// dropped — and counted in `engine.snapshots_retired` — only when the
/// last pinned query releases it.
pub struct EngineSnapshot {
    db: XmlDb,
    version: u64,
    loaded_at: std::time::SystemTime,
    counts: Arc<SnapshotCounts>,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("version", &self.version)
            .field("docs", &self.doc_count())
            .field("tables", &self.table_count())
            .field("rows", &self.row_count())
            .finish()
    }
}

impl EngineSnapshot {
    fn new(db: XmlDb, version: u64, counts: Arc<SnapshotCounts>) -> EngineSnapshot {
        let live = counts.live.fetch_add(1, Relaxed) + 1;
        obs::Registry::global().set_gauge("engine.snapshots_live", live);
        EngineSnapshot {
            db,
            version,
            loaded_at: std::time::SystemTime::now(),
            counts,
        }
    }

    /// Monotone version stamp; bumped by one on every successful reload.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// When this snapshot's store finished building.
    pub fn loaded_at(&self) -> std::time::SystemTime {
        self.loaded_at
    }

    /// Seconds since the Unix epoch when this snapshot was built (0 if
    /// the clock is before the epoch).
    pub fn loaded_at_unix(&self) -> u64 {
        self.loaded_at
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    }

    /// Documents loaded into this snapshot's store.
    pub fn doc_count(&self) -> u64 {
        self.db.doc_count()
    }

    /// Relations in this snapshot's store.
    pub fn table_count(&self) -> usize {
        self.db.db().len()
    }

    /// Total rows across all relations.
    pub fn row_count(&self) -> usize {
        self.db.db().total_rows()
    }

    /// The snapshot's relational store (read-only).
    pub fn db(&self) -> &Database {
        self.db.db()
    }

    /// Relations currently carrying planner statistics.
    pub fn stats_tables(&self) -> usize {
        self.db()
            .tables()
            .filter(|t| relstore::stats::lookup(t).is_some())
            .count()
    }

    /// Path-filter scans memoized on this snapshot's relations — freed
    /// with the snapshot, like the statistics.
    pub fn filter_memo_entries(&self) -> usize {
        self.db()
            .tables()
            .map(relstore::Table::filter_memo_len)
            .sum()
    }

    /// Hash-join build sides built on this snapshot's relations — freed
    /// with the snapshot, like the filter memo.
    pub fn hash_sides(&self) -> usize {
        self.db()
            .tables()
            .map(relstore::Table::hash_sides_len)
            .sum()
    }

    /// Run an XPath query against exactly this version (see
    /// [`XmlDb::query_with_limits`]). The result carries this snapshot's
    /// version stamp.
    pub fn query_with_limits(
        &self,
        xpath: &str,
        limits: QueryLimits,
    ) -> Result<QueryResult, EngineError> {
        let mut r = self.db.query_with_limits(xpath, limits)?;
        r.snapshot_version = self.version;
        Ok(r)
    }

    /// Translate an XPath against this version's schema/marking.
    pub fn translate(&self, xpath: &str) -> Result<Translation, EngineError> {
        self.db.translate(xpath)
    }
}

impl Drop for EngineSnapshot {
    fn drop(&mut self) {
        let live = self.counts.live.fetch_sub(1, Relaxed) - 1;
        self.counts.retired.fetch_add(1, Relaxed);
        let reg = obs::Registry::global();
        reg.incr("engine.snapshots_retired", 1);
        reg.set_gauge("engine.snapshots_live", live);
    }
}

struct EngineShared {
    /// The serving snapshot. The mutex guards only the pointer swap —
    /// queries clone the `Arc` and release the lock before running, so
    /// the critical section is a refcount bump.
    current: Mutex<Arc<EngineSnapshot>>,
    /// Held for the whole of one reload (staging included), so a second
    /// concurrent reload gets a typed [`ReloadError::Busy`] instead of
    /// building a snapshot that would immediately be overwritten.
    reloading: Mutex<()>,
    snapshots: Arc<SnapshotCounts>,
}

/// A cloneable, thread-safe handle over a loaded [`XmlDb`] for running
/// **concurrent read-only queries**, now with **hot reload**: the
/// serving state is an immutable [`EngineSnapshot`] swapped atomically
/// by [`SharedEngine::reload_with`]. Each query pins the current
/// snapshot `Arc` at admission, so in-flight queries always see one
/// consistent version while the next one is staged entirely off the
/// serving path; a failed or panicking reload leaves the old snapshot
/// serving untouched.
///
/// Construction consumes the `XmlDb` (load and finalize first; the
/// mutating API takes `&mut self` and is therefore unreachable through
/// the shared handle). All clones see one serving snapshot; per-query
/// [`EngineStats`] merge into the process-wide [`obs::Registry`] exactly
/// as serial queries do, plus the reload counters
/// (`engine.reload_{attempts,failures,swaps,busy}`) and the
/// snapshot-drain gauges (`engine.snapshots_live`,
/// `engine.snapshots_retired`).
#[derive(Clone)]
pub struct SharedEngine {
    shared: Arc<EngineShared>,
}

impl SharedEngine {
    /// Wrap a fully-loaded database for concurrent use, as snapshot
    /// version 1.
    pub fn new(db: XmlDb) -> SharedEngine {
        let snapshots = Arc::new(SnapshotCounts::default());
        let snap = Arc::new(EngineSnapshot::new(db, 1, snapshots.clone()));
        obs::Registry::global().set_gauge("engine.snapshot_version", 1);
        SharedEngine {
            shared: Arc::new(EngineShared {
                current: Mutex::new(snap),
                reloading: Mutex::new(()),
                snapshots,
            }),
        }
    }

    /// This engine's snapshots currently alive (serving +
    /// superseded-but-pinned); mirrored as `engine.snapshots_live`.
    pub fn snapshots_live(&self) -> u64 {
        self.shared.snapshots.live.load(Relaxed)
    }

    /// This engine's snapshots fully drained and dropped — each took its
    /// tables, their statistics and their filter memos with it. Mirrored
    /// as `engine.snapshots_retired`.
    pub fn snapshots_retired(&self) -> u64 {
        self.shared.snapshots.retired.load(Relaxed)
    }

    /// Pin the serving snapshot. The returned `Arc` keeps that exact
    /// version alive (and queryable) even across concurrent reloads;
    /// drop it to let a superseded snapshot retire.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// The serving snapshot's version stamp.
    pub fn version(&self) -> u64 {
        self.snapshot().version
    }

    /// Stage a replacement snapshot and swap it in atomically.
    ///
    /// `build` runs entirely off the serving path (parse → shred →
    /// finalize → stats on its own staging [`XmlDb`]); queries keep
    /// being answered from the old snapshot for its whole duration.
    /// Every failure mode — a typed build error or a panic mid-build
    /// (contained here) — leaves the old snapshot serving untouched and
    /// is reported as a [`ReloadError`], counted under
    /// `engine.reload_failures`. Only one reload stages at a time;
    /// concurrent calls get [`ReloadError::Busy`] immediately
    /// (`engine.reload_busy`). On success the new snapshot (version =
    /// old + 1) is swapped in with one pointer store and returned;
    /// queries admitted after the swap see it, queries already in flight
    /// finish on the version they pinned.
    pub fn reload_with<F>(&self, build: F) -> Result<Arc<EngineSnapshot>, ReloadError>
    where
        F: FnOnce() -> Result<XmlDb, ReloadError>,
    {
        let reg = obs::Registry::global();
        reg.incr("engine.reload_attempts", 1);
        let Ok(_staging) = self.shared.reloading.try_lock() else {
            reg.incr("engine.reload_busy", 1);
            return Err(ReloadError::Busy);
        };
        let t0 = std::time::Instant::now();
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
        let db = match built {
            Ok(Ok(db)) => db,
            Ok(Err(e)) => {
                reg.incr("engine.reload_failures", 1);
                reg.incr(&format!("engine.reload_failures.{}", e.kind()), 1);
                return Err(e);
            }
            Err(payload) => {
                let e = ReloadError::panic(panic_message(payload.as_ref()));
                reg.incr("engine.reload_failures", 1);
                reg.incr(&format!("engine.reload_failures.{}", e.kind()), 1);
                return Err(e);
            }
        };
        // Swap: one pointer store under the lock. The old snapshot's Arc
        // keeps serving every query that pinned it; it retires when the
        // last one finishes. The staging XmlDb arrives with a fresh
        // (empty) XPath query cache and its own tables, which own their
        // statistics and (still empty) filter memos — nothing is keyed
        // from outside, so there is no invalidation to forget and
        // nothing of the old snapshot outlives its last pin.
        let snap = {
            let mut cur = self
                .shared
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let snap = Arc::new(EngineSnapshot::new(
                db,
                cur.version + 1,
                self.shared.snapshots.clone(),
            ));
            *cur = snap.clone();
            snap
        };
        reg.incr("engine.reload_swaps", 1);
        reg.observe("engine.reload_ns", t0.elapsed().as_nanos() as u64);
        reg.set_gauge("engine.snapshot_version", snap.version);
        Ok(snap)
    }

    /// Run an XPath query (safe from any thread, any number at a time).
    /// The result's `snapshot_version` stamps which version answered.
    pub fn query(&self, xpath: &str) -> Result<QueryResult, EngineError> {
        self.query_with_limits(xpath, QueryLimits::none())
    }

    /// Run an XPath query under resource limits — a deadline, a
    /// scanned-row budget and/or a [`CancelToken`] another thread can
    /// fire. An aborted query returns [`QueryError::Limit`] /
    /// [`QueryError::Cancelled`]; other in-flight queries on this engine
    /// keep running.
    pub fn query_with_limits(
        &self,
        xpath: &str,
        limits: QueryLimits,
    ) -> Result<QueryResult, EngineError> {
        self.snapshot().query_with_limits(xpath, limits)
    }

    /// Run a query and return its span tree (see [`XmlDb::query_traced`]).
    pub fn query_traced(&self, xpath: &str) -> Result<(QueryResult, QueryTrace), EngineError> {
        self.query_traced_with_limits(xpath, QueryLimits::none())
    }

    /// [`SharedEngine::query_traced`] under resource limits (see
    /// [`XmlDb::query_with_limits`]).
    pub fn query_traced_with_limits(
        &self,
        xpath: &str,
        limits: QueryLimits,
    ) -> Result<(QueryResult, QueryTrace), EngineError> {
        let snap = self.snapshot();
        let (mut r, trace) = snap.db.query_traced_with_limits(xpath, limits)?;
        r.snapshot_version = snap.version;
        Ok((r, trace))
    }

    /// Translate an XPath to its SQL statement without executing it (the
    /// server's `explain`/`analyze` verbs plan from this). For plan
    /// rendering against the same version, pin [`SharedEngine::snapshot`]
    /// and use its `db()` instead.
    pub fn translate(&self, xpath: &str) -> Result<Translation, EngineError> {
        self.snapshot().translate(xpath)
    }

    /// The generated SQL for an XPath (`None` when statically empty).
    pub fn sql_for(&self, xpath: &str) -> Result<Option<String>, EngineError> {
        self.snapshot().db.sql_for(xpath)
    }
}

/// Process-wide peak of simultaneously running engine queries.
pub fn concurrent_queries_peak() -> u64 {
    QUERIES_PEAK.load(Relaxed)
}

/// Engine queries in flight right now (the live gauge behind
/// [`concurrent_queries_peak`]; the server's `health` verb reports it).
pub fn concurrent_queries_in_flight() -> u64 {
    QUERIES_IN_FLIGHT.load(Relaxed)
}
