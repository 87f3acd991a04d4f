//! High-level façade: an XML database backed by the relational engine.
//!
//! [`XmlDb`] is the schema-aware system of the paper (shredding per §3,
//! PPF translation per §4); [`EdgeDb`] is the schema-oblivious variant of
//! §5.1. Both run the generated SQL on the `sqlexec`/`relstore` engine and
//! return element ids in document order.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use obs::{QueryTrace, Span};
use relstore::{Database, Value};
use shred::{EdgeStore, SchemaAwareStore};
pub use sqlexec::{CancelToken, ExecOptions, QueryLimits};
use sqlexec::{ExecStats, Executor, Expr as Sql, Prepared, ResultSet, Rows, Select, SelectStmt};
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

/// Lock a cache, recovering from poisoning by emptying it. Losing warm
/// plans costs a re-translate on the next query; keeping state a
/// panicking thread may have half-written could serve wrong answers.
fn lock_cache<T: Default>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        m.clear_poison();
        CACHE_POISON_RECOVERIES.fetch_add(1, Relaxed);
        let mut guard = poisoned.into_inner();
        *guard = T::default();
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
    /// The whole query, as the `engine.query_ns` histogram records it:
    /// at least the sum of the four phases, and the gap is time no phase
    /// accounts for (cache lookups, binding literals into a cached
    /// shape's statement, result assembly, registry updates).
    pub query_ns: u64,
    /// XPath parsing, and lifting the compared string literals out of
    /// the parsed query to key its shape.
    pub parse_ns: u64,
    /// XPath → SQL translation (PPF splitting, pattern building).
    pub translate_ns: u64,
    /// Up-front planning of every UNION branch on a query-cache miss.
    /// The plans go into the prepared statement's slots, where this run
    /// and every later run of the cached query read them (subquery
    /// blocks are planned into their slots when a run first reaches
    /// them, inside `execute_ns`).
    pub plan_ns: u64,
    /// SQL execution.
    pub execute_ns: u64,
    /// Primitive path fragments identified by the translator.
    pub ppf_count: u64,
    /// UNION branches after §4.4 SQL splitting.
    pub union_branches: u64,
    /// Plan steps across the UNION branches planned up front (0 on a
    /// query-cache hit, which plans nothing).
    pub plan_steps: u64,
    /// `REGEXP_LIKE` path filters in the generated statement (after the
    /// §4.5 marking removed the redundant ones).
    pub path_filters: u64,
    /// Path-filter candidates: rows of the `Paths` table fetched by a
    /// step that reads it, plus rows tested against a key set the
    /// planner folded from elided `Paths` joins.
    pub path_candidates: u64,
    /// Candidates passing their path filter: `Paths` rows surviving
    /// their step's filters (regex included), plus rows whose `path_id`
    /// is in such a set.
    pub path_survivors: u64,
    /// Rows entering join steps (every non-leading plan step: structural
    /// Dewey joins, FK joins, and `Paths` lookups alike).
    pub join_rows_in: u64,
    /// Rows surviving those join steps' residual conditions.
    pub join_rows_out: u64,
    /// 1 when this query hit the engine's XPath-keyed cache and skipped
    /// parse, translate and plan entirely (their `*_ns` fields are 0).
    pub plan_cache_hits: u64,
    /// 1 when the text missed but its shape hit: a query differing only
    /// in the string literals it compares paths with was translated
    /// before. Parse and plan ran; translate did not (`translate_ns` and
    /// `regex_compiles` are 0).
    pub shape_hits: u64,
    /// Regex programs compiled by this query: one per distinct
    /// `REGEXP_LIKE` pattern text its translation builds, none during
    /// execution (the statement owns its compiled patterns), and 0 on a
    /// query-cache or shape hit.
    pub regex_compiles: u64,
    /// Path-filter probes answered from the memoised surviving-row set.
    /// A copy of [`ExecStats::path_memo_hits`], kept because the served-path
    /// benchmark reads it here.
    pub path_memo_hits: u64,
    /// Path-filter probes that had to scan `Paths` and run the regex (a
    /// copy of [`ExecStats::path_memo_misses`], for the same reader).
    pub path_memo_misses: u64,
}

/// A query answer and the one record of how it was computed: the
/// statement that ran (if any), the rows, and the counters and phase
/// timings. The SQL text and the span tree are built from it only on
/// request ([`QueryResult::sql`], [`QueryResult::trace`]).
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The cached prepared statement that ran, with its plans (`None`
    /// when the translation proved the query empty).
    pub stmt: Option<Arc<Prepared>>,
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

    /// The SQL text of the statement that ran (`None` when statically
    /// empty), rendered on each call.
    pub fn sql(&self) -> Option<String> {
        self.stmt.as_deref().map(|p| sqlexec::render_stmt(p.stmt()))
    }

    /// The query's span tree, built from this result: a `query` root
    /// spanning [`EngineStats::query_ns`], with `parse → translate →
    /// plan → execute` laid end to end under it. Each phase carries the
    /// work counters of that phase; a query-cache hit shows the first
    /// three with zero duration.
    pub fn trace(&self, label: &str) -> QueryTrace {
        let e = &self.engine;
        let s = &self.stats;
        let mut trace = QueryTrace::new(label);
        let root = trace.push(Span {
            name: "query".into(),
            parent: None,
            start_ns: 0,
            dur_ns: e.query_ns,
            counters: vec![("rows".into(), self.rows.rows.len() as u64)],
        });
        let mut start_ns = 0;
        let mut phase = |name: &str, dur_ns: u64, counters: &[(&str, u64)]| {
            trace.push(Span {
                name: name.into(),
                parent: Some(root),
                start_ns,
                dur_ns,
                counters: counters.iter().map(|&(n, v)| (n.into(), v)).collect(),
            });
            start_ns += dur_ns;
        };
        phase("parse", e.parse_ns, &[]);
        phase(
            "translate",
            e.translate_ns,
            &[
                ("ppfs", e.ppf_count),
                ("union_branches", e.union_branches),
                ("path_filters", e.path_filters),
            ],
        );
        phase("plan", e.plan_ns, &[("steps", e.plan_steps)]);
        phase(
            "execute",
            e.execute_ns,
            &[
                ("rows_scanned", s.rows_scanned),
                ("index_probes", s.index_probes),
                ("predicate_evals", s.predicate_evals),
                ("subqueries", s.subqueries),
                ("path_candidates", e.path_candidates),
                ("path_survivors", e.path_survivors),
                ("join_rows_in", e.join_rows_in),
                ("join_rows_out", e.join_rows_out),
                ("vm_match_calls", s.regex.match_calls),
                ("vm_steps", s.regex.vm_steps),
                ("dfa_matches", s.regex.dfa_matches),
                ("path_memo_hits", s.path_memo_hits),
            ],
        );
        trace
    }
}

/// A query as the cache keeps it: the prepared statement (numbered,
/// with one plan slot per `SELECT` block that the first run to reach the
/// block fills) and the translate-time counters. Every run of the entry,
/// on any thread, shares the statement and its plans through `Arc`.
#[derive(Clone)]
struct CachedQuery {
    prepared: Option<Arc<Prepared>>,
    output: OutputKind,
    ppf_count: u64,
    union_branches: u64,
    path_filters: u64,
}

impl CachedQuery {
    fn new(t: Translation) -> CachedQuery {
        let mut union_branches = 0;
        let mut path_filters = 0;
        if let Some(stmt) = &t.stmt {
            union_branches = stmt.branches.len() as u64;
            path_filters = path_filters_in_stmt(stmt);
        }
        CachedQuery {
            prepared: t.stmt.map(|stmt| Arc::new(Prepared::new(stmt))),
            output: t.output,
            ppf_count: t.ppf_count as u64,
            union_branches,
            path_filters,
        }
    }

    /// This shape's query with slot `i` bound to `literals[i]`: a clone
    /// of the statement, prepared with empty plan slots. Without slots
    /// the prepared statement, plans included, is shared.
    fn bind(&self, literals: &[String]) -> CachedQuery {
        let mut bound = self.clone();
        if !literals.is_empty() {
            if let Some(prepared) = &mut bound.prepared {
                let mut stmt = prepared.stmt().clone();
                shape::bind(&mut stmt, literals);
                *prepared = Arc::new(Prepared::new(stmt));
            }
        }
        bound
    }
}

/// The engine's query cache, two indexes behind one lock. `texts` holds
/// every XPath text run since the last clear, ready to execute.
/// `shapes` holds translations keyed by the query with its compared
/// string literals lifted out ([`shape`]), so a text that misses skips
/// translation when another text of its shape ran before.
///
/// Both are dropped wholesale whenever the backing store mutates or an
/// option changes. The tables drop their own filter memos when they
/// mutate, but statements and plans can go stale (path marking depends
/// on loaded documents).
#[derive(Default)]
struct QueryCache {
    texts: HashMap<String, Arc<CachedQuery>>,
    shapes: HashMap<String, Arc<CachedQuery>>,
}

impl QueryCache {
    fn clear(&mut self) {
        self.texts.clear();
        self.shapes.clear();
    }
}

/// Entries each index holds before it is cleared wholesale.
const QUERY_CACHE_CAP: usize = 256;

/// The entry under `key`: the one already there, else `value`, inserted
/// after clearing a full `map`. Overlapping first runs of one query each
/// build an entry; keeping the first makes them all run that one.
fn get_or_insert_capped<V: Clone>(map: &mut HashMap<String, V>, key: String, value: V) -> V {
    if map.len() >= QUERY_CACHE_CAP && !map.contains_key(&key) {
        map.clear();
    }
    map.entry(key).or_insert(value).clone()
}

/// Query shapes: an XPath query with every string literal it compares a
/// path with replaced by a numbered slot.
///
/// Translation copies such a literal into `Cmp { rhs: Literal }` and
/// reads it nowhere else, so one translation of the shape serves every
/// text of it: bind the text's literals into a clone of the statement.
/// Everything else stays in the shape. Numbers decide positional and
/// `count()` predicates, `contains()`/`starts-with()` arguments are
/// compiled into regexes, and a literal compared with a literal is not
/// a path condition.
///
/// A slot travels through the translator as a string literal no XPath
/// 1.0 literal can equal: it holds both `'` and `"`, and a literal has no
/// escapes, so it can hold only one of them. Equal literals share one
/// slot, so a shape also fixes which of its literals are equal.
mod shape {
    use relstore::Value;
    use sqlexec::{Expr as Sql, Select, SelectStmt};
    use xpath::Expr;

    /// What every slot token starts with; no XPath literal contains it.
    const SLOT: &str = "'\"slot";

    /// Replaces each compared literal in `expr` by its slot's token and
    /// returns the literals, indexed by slot.
    pub(super) fn lift(expr: &mut Expr) -> Vec<String> {
        let mut literals: Vec<String> = Vec::new();
        compared_literals(expr, &mut |lit| {
            let slot = match literals.iter().position(|l| l == lit) {
                Some(slot) => slot,
                None => {
                    literals.push(std::mem::take(lit));
                    literals.len() - 1
                }
            };
            *lit = format!("{SLOT}{slot}");
        });
        literals
    }

    /// The cache key of a lifted query: its derived `Debug` rendering,
    /// which spells out every variant and field and escapes strings, so
    /// distinct trees never share a key (unlike `Display`). Sized from
    /// the text so the rendering seldom reallocates.
    pub(super) fn key(lifted: &Expr, text: &str) -> String {
        use std::fmt::Write;
        let mut key = String::with_capacity(16 * text.len());
        write!(key, "{lifted:?}").expect("formatting into a String");
        key
    }

    /// Calls `f` on every string literal compared with a path, in a fixed
    /// order.
    fn compared_literals(e: &mut Expr, f: &mut impl FnMut(&mut String)) {
        match e {
            Expr::Path(p) => path(p, f),
            Expr::Union(ps) => ps.iter_mut().for_each(|p| path(p, f)),
            Expr::Compare { lhs, rhs, .. } => match (&mut **lhs, &mut **rhs) {
                (Expr::Path(p), Expr::Literal(lit)) | (Expr::Literal(lit), Expr::Path(p)) => {
                    path(p, f);
                    f(lit);
                }
                (lhs, rhs) => {
                    compared_literals(lhs, f);
                    compared_literals(rhs, f);
                }
            },
            Expr::Arith { lhs, rhs, .. } => {
                compared_literals(lhs, f);
                compared_literals(rhs, f);
            }
            Expr::Contains(a, b) | Expr::StartsWith(a, b) => {
                compared_literals(a, f);
                compared_literals(b, f);
            }
            Expr::And(xs) | Expr::Or(xs) => xs.iter_mut().for_each(|x| compared_literals(x, f)),
            Expr::Not(x) | Expr::Count(x) | Expr::StringLength(x) | Expr::NormalizeSpace(x) => {
                compared_literals(x, f)
            }
            Expr::Number(_) | Expr::Literal(_) | Expr::Position | Expr::Last => {}
        }
    }

    fn path(p: &mut xpath::LocationPath, f: &mut impl FnMut(&mut String)) {
        for step in &mut p.steps {
            for pred in &mut step.predicates {
                compared_literals(pred, f);
            }
        }
    }

    /// Replaces every slot token in `stmt` by its literal.
    pub(super) fn bind(stmt: &mut SelectStmt, literals: &[String]) {
        for branch in &mut stmt.branches {
            bind_select(branch, literals);
        }
        for key in &mut stmt.order_by {
            bind_expr(&mut key.expr, literals);
        }
        debug_assert!(
            !format!("{stmt:?}").contains(SLOT),
            "a slot token was not a whole literal of the statement: {stmt:?}"
        );
    }

    fn bind_select(s: &mut Select, literals: &[String]) {
        for p in &mut s.projections {
            bind_expr(&mut p.expr, literals);
        }
        if let Some(w) = &mut s.where_clause {
            bind_expr(w, literals);
        }
    }

    fn bind_expr(e: &mut Sql, literals: &[String]) {
        match e {
            Sql::Literal(Value::Str(s)) => {
                if let Some(slot) = s.strip_prefix(SLOT).and_then(|n| n.parse::<usize>().ok()) {
                    s.clone_from(&literals[slot]);
                }
            }
            Sql::Exists(s) | Sql::ScalarSubquery(s) => bind_select(s, literals),
            other => other.operands_mut().for_each(|x| bind_expr(x, literals)),
        }
    }
}

/// A statically empty answer, with the columns a non-empty result of the
/// same kind reports.
fn empty_result(output: OutputKind) -> QueryResult {
    let columns: Vec<String> = match output {
        OutputKind::Elements => vec!["id".into()],
        OutputKind::AttributeValue | OutputKind::TextValue => vec!["id".into(), "value".into()],
    };
    QueryResult {
        stmt: None,
        output,
        rows: ResultSet {
            rows: Rows::new(columns.len()),
            columns,
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
        pub(super) cache: Mutex<QueryCache>,
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
            self.query_with_limits(xpath, QueryLimits::none())
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
            cache: Mutex::default(),
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
            cache: Mutex::default(),
            docs: 0,
        }
    }
}

/// `REGEXP_LIKE` occurrences in an expression tree (path filters).
fn filters_in_expr(e: &Sql) -> u64 {
    match e {
        Sql::Exists(s) | Sql::ScalarSubquery(s) => filters_in_select(s),
        other => {
            u64::from(matches!(other, Sql::RegexpLike { .. }))
                + other.operands().map(filters_in_expr).sum::<u64>()
        }
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
/// parse → translate → plan → execute, each phase timed into the
/// result's [`EngineStats`], with work counters mirrored into the
/// process-wide [`obs`] metrics registry.
fn run_query(
    db: &Database,
    xpath: &str,
    cache: &Mutex<QueryCache>,
    translate_expr: &dyn Fn(&xpath::Expr) -> Result<Translation, EngineError>,
    limits: QueryLimits,
    opts: ExecOptions,
) -> Result<QueryResult, EngineError> {
    // End-to-end latency is recorded for *every* query — errors and
    // limit aborts included — so the `engine.query_ns` histogram's
    // p50/p95/p99 describe what callers actually experienced, not just
    // the successes.
    let t0 = std::time::Instant::now();
    let mut result = run_query_inner(db, xpath, cache, translate_expr, limits, opts);
    let query_ns = t0.elapsed().as_nanos() as u64;
    obs::Registry::global().observe("engine.query_ns", query_ns);
    match &mut result {
        Ok(r) => r.engine.query_ns = query_ns,
        Err(e) => record_query_error(e),
    }
    result
}

fn run_query_inner(
    db: &Database,
    xpath: &str,
    cache: &Mutex<QueryCache>,
    translate_expr: &dyn Fn(&xpath::Expr) -> Result<Translation, EngineError>,
    limits: QueryLimits,
    opts: ExecOptions,
) -> Result<QueryResult, EngineError> {
    let mut engine = EngineStats::default();

    let cached = lock_cache(cache).texts.get(xpath).cloned();
    let entry = match cached {
        Some(entry) => {
            // Warm hit: parse, translate and plan were all done the first
            // time this XPath ran; their `*_ns` stats stay 0.
            engine.plan_cache_hits = 1;
            entry
        }
        None => {
            let parse =
                |text: &str| xpath::parse_xpath(text).map_err(|e| QueryError::parse(e.to_string()));
            let t0 = std::time::Instant::now();
            let mut lifted = parse(xpath)?;
            let literals = shape::lift(&mut lifted);
            let key = shape::key(&lifted, xpath);
            engine.parse_ns = t0.elapsed().as_nanos() as u64;

            let cached_shape = lock_cache(cache).shapes.get(&key).cloned();
            let query = match cached_shape {
                Some(shape) => {
                    engine.shape_hits = 1;
                    shape.bind(&literals)
                }
                None => {
                    let t0 = std::time::Instant::now();
                    let (t, is_template) = match translate_expr(&lifted) {
                        Ok(t) => (t, true),
                        Err(e) if literals.is_empty() => return Err(e),
                        // A translate error may quote the query: translate
                        // the text as written, so a failure reports the
                        // user's literals and never a slot token.
                        Err(_) => (translate_expr(&parse(xpath)?)?, false),
                    };
                    engine.translate_ns = t0.elapsed().as_nanos() as u64;
                    engine.regex_compiles = t.regex_compiles as u64;
                    let query = CachedQuery::new(t);
                    if is_template {
                        let shape = Arc::new(query);
                        let shape = get_or_insert_capped(&mut lock_cache(cache).shapes, key, shape);
                        shape.bind(&literals)
                    } else {
                        query
                    }
                }
            };

            let entry = Arc::new(query);
            get_or_insert_capped(&mut lock_cache(cache).texts, xpath.to_string(), entry)
        }
    };
    engine.ppf_count = entry.ppf_count;
    engine.union_branches = entry.union_branches;
    engine.path_filters = entry.path_filters;

    let mut result = match &entry.prepared {
        None => empty_result(entry.output),
        Some(prepared) => {
            let exec = Executor::with_options(db, opts);
            if engine.plan_cache_hits == 0 {
                let t0 = std::time::Instant::now();
                exec.plan(prepared).map_err(QueryError::from)?;
                engine.plan_ns = t0.elapsed().as_nanos() as u64;
                engine.plan_steps = prepared
                    .stmt()
                    .branches
                    .iter()
                    .filter_map(|b| prepared.plan(b.ordinal))
                    .map(|plan| plan.steps.len() as u64)
                    .sum();
            }

            exec.set_limits(limits.clone());
            let t0 = std::time::Instant::now();
            // Contain any panic that escapes the executor: one bad query
            // must degrade to an error, not take down every query in the
            // process.
            let run_outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                exec.run_prepared(prepared)
            }));
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
            exec.for_each_step(|plan, ops| {
                for (i, (step, op)) in plan.steps.iter().zip(ops).enumerate() {
                    if step.table == shred::naming::PATHS_TABLE {
                        engine.path_candidates += op.rows_in;
                        engine.path_survivors += op.rows_out;
                    }
                    let paths_set = step.set.as_ref().map(|s| s.keys.table.as_str());
                    if paths_set == Some(shred::naming::PATHS_TABLE) {
                        engine.path_candidates += op.set_tested;
                        engine.path_survivors += op.set_passed;
                    }
                    if i > 0 {
                        engine.join_rows_in += op.rows_in;
                        engine.join_rows_out += op.rows_out;
                    }
                }
            });
            let stats = exec.stats();
            engine.path_memo_hits = stats.path_memo_hits;
            engine.path_memo_misses = stats.path_memo_misses;
            QueryResult {
                stmt: Some(prepared.clone()),
                output: entry.output,
                rows,
                stats,
                engine: EngineStats::default(),
                snapshot_version: 0,
            }
        }
    };
    result.engine = engine;

    let reg = obs::Registry::global();
    reg.incr("engine.queries", 1);
    reg.observe("engine.parse_ns", engine.parse_ns);
    reg.observe("engine.translate_ns", engine.translate_ns);
    reg.observe("engine.plan_ns", engine.plan_ns);
    reg.observe("engine.execute_ns", engine.execute_ns);
    reg.observe("engine.result_rows", result.rows.rows.len() as u64);
    reg.incr("engine.ppfs", engine.ppf_count);
    reg.incr("engine.path_filters", engine.path_filters);
    reg.incr("engine.path_candidates", engine.path_candidates);
    reg.incr("engine.path_survivors", engine.path_survivors);
    reg.incr("engine.rows_scanned", result.stats.rows_scanned);
    reg.incr("engine.index_probes", result.stats.index_probes);
    reg.incr("engine.vm_steps", result.stats.regex.vm_steps);
    reg.incr("engine.plan_cache_hits", engine.plan_cache_hits);
    reg.incr("engine.shape_hits", engine.shape_hits);
    reg.incr("engine.dfa_matches", result.stats.regex.dfa_matches);
    reg.incr("engine.dfa_fallbacks", result.stats.regex.dfa_fallbacks);
    reg.incr("engine.path_memo_hits", result.stats.path_memo_hits);
    mirror_poison_counters(reg);

    Ok(result)
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
