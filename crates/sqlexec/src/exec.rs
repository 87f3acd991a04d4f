//! SQL execution: expression evaluation (3-valued logic) and the pipeline
//! interpreter for [`SelectPlan`]s. The `UNION` / `DISTINCT` / `ORDER BY`
//! statement tail is in the `tail` submodule.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use relstore::{Database, RowId, Table, Value};

use crate::ast::{ArithOp, CmpOp, Expr, RegexPattern, Select, SelectStmt};
use crate::plan::{plan_select_with, Access, ExecError, MergeMode, SelectPlan, Step};

mod tail;
use tail::{finish_rows, project_row, KeyKind, KeyedRow};

/// A query result: named columns and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

/// Execution counters, for tests and the experiment harness (they make
/// "PPF scans fewer rows / does fewer probes" measurable, not just faster).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows produced by table scans and index lookups.
    pub rows_scanned: u64,
    /// Number of index probes (equality or range).
    pub index_probes: u64,
    /// Subquery executions (EXISTS and scalar).
    pub subqueries: u64,
    /// Residual and late-filter predicate evaluations.
    pub predicate_evals: u64,
    /// Probes answered by the sort-merge cursor instead of a B-tree
    /// descent (subset of `index_probes`).
    pub merge_probes: u64,
    /// Path-filter scans answered from the table's memo (column × pattern
    /// → surviving rows) without touching its rows.
    pub path_memo_hits: u64,
    /// Path-filter scans that had to run and populated the memo.
    pub path_memo_misses: u64,
    /// Probe-side buffer acquisitions that could not be served from the
    /// executor's pools (a steady-state hot loop should stop adding these
    /// after warm-up).
    pub probe_allocs: u64,
    /// Partitioned branch executions (one per fan-out, regardless of how
    /// many chunks it split into).
    pub par_tasks: u64,
    /// Chunks executed across all parallel operations — `par_chunks /
    /// par_tasks` is the average degree of partitioning actually achieved.
    pub par_chunks: u64,
    /// Statements aborted by a resource limit (deadline or row budget).
    pub limit_aborts: u64,
    /// Statements aborted by their [`CancelToken`].
    pub query_cancelled: u64,
    /// Forks the `Auto` rule approved but gave up because the pool was
    /// already saturated with other queries' scopes (the branch ran
    /// serially instead).
    pub par_degraded: u64,
    /// Input rows distributed across parallel chunks (all fan-outs).
    pub par_rows: u64,
    /// Largest single chunk, in input rows — `par_chunk_rows_max /
    /// (par_rows / par_chunks)` is the partition skew: 1.0 means the
    /// split was perfectly balanced, higher means one worker got a
    /// disproportionate share (Dewey boundary alignment can force this).
    pub par_chunk_rows_max: u64,
}

impl ExecStats {
    /// Field-wise accumulate — merges a partition worker's counters into
    /// the coordinator's.
    pub fn absorb(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.index_probes += other.index_probes;
        self.subqueries += other.subqueries;
        self.predicate_evals += other.predicate_evals;
        self.merge_probes += other.merge_probes;
        self.path_memo_hits += other.path_memo_hits;
        self.path_memo_misses += other.path_memo_misses;
        self.probe_allocs += other.probe_allocs;
        self.par_tasks += other.par_tasks;
        self.par_chunks += other.par_chunks;
        self.limit_aborts += other.limit_aborts;
        self.query_cancelled += other.query_cancelled;
        self.par_degraded += other.par_degraded;
        self.par_rows += other.par_rows;
        self.par_chunk_rows_max = self.par_chunk_rows_max.max(other.par_chunk_rows_max);
    }
}

/// Per-plan-step execution counters. One `OpStats` accumulates across every
/// invocation of its step — a step inside a nested loop or a correlated
/// subquery is invoked many times, and `invocations` counts the rescans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Times the step ran (> 1 ⇒ nested-loop rescans / subquery re-execution).
    pub invocations: u64,
    /// Rows the access path fetched and examined.
    pub rows_in: u64,
    /// Rows surviving this step's residual filters (input to the next step).
    pub rows_out: u64,
    /// Index / hash probes actually performed (NULL-key probes are skipped
    /// by the executor and not counted).
    pub index_probes: u64,
    /// Residual predicate evaluations (short-circuited ANDs count what ran).
    pub predicate_evals: u64,
    /// Inclusive wall time — this step and everything nested below it.
    /// Accumulated only while profiling is enabled (`set_profiling`).
    pub elapsed_ns: u64,
}

impl OpStats {
    fn absorb(&mut self, other: &OpStats) {
        self.invocations += other.invocations;
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.index_probes += other.index_probes;
        self.predicate_evals += other.predicate_evals;
        self.elapsed_ns += other.elapsed_ns;
    }
}

/// A flattened index: every (key, rows) pair in key order, for the
/// sort-merge cursor. Borrows the B-tree's own keys — building one costs a
/// single traversal and `len` pointer pairs, no key copies.
type MergeEntries<'db> = Arc<Vec<(&'db [Value], &'db [RowId])>>;

/// Flattened indexes keyed by (table address, index position): the
/// database borrow is immutable for `'db`, so an address names one
/// table, and a probe builds its key without allocating.
type MergeArrays<'db> = HashMap<(usize, usize), MergeEntries<'db>>;

/// Fan-out merge-map locks recovered from poisoning (see
/// [`SharedExecCaches`]): a worker that panics while flattening an index
/// poisons the map its siblings share.
static CACHE_POISON_RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Fan-out merge-map locks recovered from poisoning since process start.
pub fn cache_poison_recoveries() -> u64 {
    CACHE_POISON_RECOVERIES.load(Relaxed)
}

/// Drop the path-filter memo (which rows of a column survive a pattern —
/// see [`Table::filter_memo_get`]) and the hash-join build sides (see
/// [`Table::hash_side`]) of every table in `db`. Tests call this to
/// observe true cold-cache behaviour; correctness never requires it (a
/// table drops its own derived state when it mutates).
pub fn clear_filter_caches(db: &Database) {
    for t in db.tables() {
        t.clear_filter_memo();
        t.clear_hash_sides();
    }
}

/// Cooperative cancellation handle for one query. Clone it, hand one copy
/// to the executor via [`QueryLimits::cancel_token`], keep the other;
/// [`CancelToken::cancel`] makes the executor abort with
/// [`ExecError::Cancelled`] at its next loop-boundary check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; safe from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(Relaxed)
    }
}

/// Per-query resource limits, all optional and all enforced
/// *cooperatively*: the executor checks them at scan/join/filter loop
/// boundaries, so an over-budget query stops within one check interval
/// ([`LIMIT_CHECK_INTERVAL`] rows) of crossing the line, not instantly.
#[derive(Debug, Clone, Default)]
pub struct QueryLimits {
    /// Abort with [`ExecError::Limit`] once `Instant::now()` passes this.
    pub deadline: Option<Instant>,
    /// Abort with [`ExecError::Limit`] once the statement has scanned
    /// this many rows. Rows scanned bound the executor's materialized
    /// state (candidate buffers, result rows), so this doubles as the
    /// memory budget. Under partitioned execution each worker inherits
    /// the full budget, so enforcement is approximate by up to the
    /// fan-out factor.
    pub max_rows_scanned: Option<u64>,
    /// Abort with [`ExecError::Cancelled`] once this token fires.
    pub cancel: Option<CancelToken>,
}

impl QueryLimits {
    /// No limits — the default for every query that doesn't opt in.
    pub fn none() -> QueryLimits {
        QueryLimits::default()
    }

    /// Set a deadline `timeout` from now.
    pub fn with_timeout(mut self, timeout: Duration) -> QueryLimits {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Set an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> QueryLimits {
        self.deadline = Some(deadline);
        self
    }

    /// Set the scanned-row budget.
    pub fn with_max_rows(mut self, rows: u64) -> QueryLimits {
        self.max_rows_scanned = Some(rows);
        self
    }

    /// Attach a cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> QueryLimits {
        self.cancel = Some(token);
        self
    }

    /// True when every limit is absent (the executor skips all checks).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rows_scanned.is_none() && self.cancel.is_none()
    }

    /// Poll the cancel token and the deadline (not the row budget, which
    /// only the owning executor tracks). Usable from pool workers, which
    /// hold a clone of the coordinator's limits.
    pub(crate) fn check_interrupt(&self) -> Result<(), ExecError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(ExecError::cancelled("cancel token fired".to_string()));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(ExecError::limit("deadline exceeded".to_string()));
            }
        }
        Ok(())
    }
}

/// Rows between deadline/cancel checks. Row-budget accounting is exact;
/// only the clock read and the token load are decimated.
const LIMIT_CHECK_INTERVAL: u64 = 256;

/// Intra-query parallelism strategy for the one parallel operator, the
/// branch pipeline over a structural join's outer run: `Auto` partitions
/// when the branch's planned work reaches [`FORK_MIN_WORK`], `ForceOff`
/// pins the serial pipeline, and `ForceOn` partitions whenever there are
/// at least two rows to split — the A/B lever equivalence tests use.
/// Partition workers always run `ForceOff`: parallelism never nests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelMode {
    #[default]
    Auto,
    ForceOff,
    ForceOn,
}

/// Every plan and execution choice a caller may pin, as one value. An
/// [`Executor`] carries it, its planner reads it, and its partition
/// workers get a copy (with `parallel: ForceOff`), so nothing about how
/// a query runs is read from the thread or the process. `Default` is the
/// serving behaviour; tests and benches build the variants they compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Intra-query parallelism strategy.
    pub parallel: ParallelMode,
    /// Merge cursor vs index nested-loop for two-sided ranges.
    pub merge: MergeMode,
    /// Whether the planner reads table statistics. Off, every estimate
    /// falls back to fixed selectivity constants (the pre-statistics
    /// planner, kept so the cost ledger can show what statistics buy).
    pub stats: bool,
    /// Panic inside every partitioned-branch pool task (fault injection
    /// for the panic-containment tests and the server's `poison` fault).
    #[doc(hidden)]
    pub worker_panic: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            parallel: ParallelMode::Auto,
            merge: MergeMode::Auto,
            stats: true,
            worker_panic: false,
        }
    }
}

/// `Auto` forks a branch only when its planned work reaches this: the
/// depth-0 row count times the planner's `est_fetched` of every later
/// step. Below it a fork costs more than it saves. At serve scale
/// (XMark 1.0) only Q11 clears it.
const FORK_MIN_WORK: f64 = 100_000.0;

/// `Auto`'s fork rule for a branch of `n` depth-0 rows and planned
/// `work` on a pool of `threads ≥ 2` lanes: the chunk count, or `None`
/// to run serially. A pure function of the plan, so a query makes the
/// same decision on every run.
fn auto_fork_chunks(n: usize, work: f64, threads: usize) -> Option<usize> {
    (n >= 2 && work >= FORK_MIN_WORK).then(|| fork_chunks(n, threads))
}

/// Chunks a forked branch of `n ≥ 2` rows splits into, under `Auto` and
/// `ForceOn` alike: two per pool lane, and no chunk without a row.
fn fork_chunks(n: usize, threads: usize) -> usize {
    n.min(2 * threads)
}

/// One `Auto` decision for a branch of `rows` depth-0 rows and planned
/// `work`. Plain values, so recording it on the served path allocates
/// nothing; [`Executor::par_decisions`] renders it for EXPLAIN ANALYZE.
#[derive(Debug, Clone, Copy)]
struct ParDecision {
    /// `serial`, `fork`, or `degraded` (the rule approved a fork but the
    /// pool was saturated).
    kind: &'static str,
    rows: usize,
    work: f64,
    /// The chunk count of a fork.
    chunks: Option<usize>,
}

impl std::fmt::Display for ParDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(rows={},work={:.0}", self.kind, self.rows, self.work)?;
        if let Some(chunks) = self.chunks {
            write!(f, ",chunks={chunks}")?;
        }
        f.write_str(")")
    }
}

/// Row-emission callback threaded through the nested-loop machinery;
/// returning `Ok(false)` stops the enclosing loops early.
type EmitFn<'a, 'db> =
    dyn FnMut(&Executor<'db>, &mut Vec<Binding<'db>>) -> Result<bool, ExecError> + 'a;

/// One bound alias during execution.
#[derive(Clone)]
struct Binding<'db> {
    alias: Arc<str>,
    table: &'db Table,
    rid: RowId,
}

/// The Dewey-position column structural joins window on (`shred`'s naming;
/// duplicated here because `sqlexec` sits below `shred` in the crate DAG).
const DEWEY_COL: &str = "dewey_pos";

/// Nudge partition boundaries so no cut lands between a row and its Dewey
/// descendant: while the row left of a boundary is a byte-prefix (i.e. an
/// ancestor — the binary Dewey encoding is 3 bytes per component) of the
/// row right of it, the boundary slides right, keeping each subtree run
/// with its root. Correctness never depends on this — every outer row's
/// whole join window is processed by the worker that owns the row — but
/// aligned chunks keep each worker's merge cursor walking one contiguous,
/// monotone Dewey range. Tables without a Dewey column are left as split.
fn align_ranges_to_dewey(table: &Table, rows: &[RowId], ranges: &mut Vec<std::ops::Range<usize>>) {
    let Some(ci) = table.schema.col(DEWEY_COL) else {
        return;
    };
    if table.schema.columns[ci].ty != relstore::ColType::Bytes {
        return;
    }
    let dewey = |i: usize| -> Option<&[u8]> {
        match &table.row(rows[i])[ci] {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    };
    let mut bounds: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    for b in bounds.iter_mut().skip(1) {
        while *b < rows.len() {
            match (dewey(*b - 1), dewey(*b)) {
                (Some(anc), Some(desc)) if desc.len() > anc.len() && desc.starts_with(anc) => {
                    *b += 1;
                }
                _ => break,
            }
        }
    }
    bounds.push(rows.len());
    bounds.dedup();
    *ranges = bounds
        .windows(2)
        .map(|w| w[0]..w[1])
        .filter(|r| !r.is_empty())
        .collect();
}

/// Everything one partition worker hands back to the coordinator.
struct WorkerResult {
    outcome: Result<(), ExecError>,
    rows: Vec<KeyedRow>,
    /// Depth-0 row-loop counters (the worker's share of the outer run).
    depth0: OpStats,
    /// The worker executor's global counters (depths ≥ 1, subqueries).
    stats: ExecStats,
    step_stats: HashMap<usize, Vec<OpStats>>,
    plans: HashMap<usize, Arc<SelectPlan>>,
}

/// Caches shared by every worker executor of one fan-out (and seeded
/// from the coordinator's own), so a partition worker's fresh `Executor`
/// does not re-flatten merge index arrays per chunk — O(index) work that
/// would dwarf a small chunk. The map lock is held across a flattening,
/// so an array is built exactly once per fan-out.
struct SharedExecCaches<'db> {
    merge: Mutex<MergeArrays<'db>>,
}

/// Lock a shared-cache map, recovering from poisoning (entries are pure
/// caches; a panicking builder leaves no partial entry because inserts
/// happen after construction completes).
fn lock_cache<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|poisoned| {
        CACHE_POISON_RECOVERIES.fetch_add(1, Relaxed);
        poisoned.into_inner()
    })
}

/// A coordinator's whole plan snapshot behind one `Arc`, keyed by
/// `Select` address.
type PlanSnapshot = Arc<HashMap<usize, Arc<SelectPlan>>>;

/// The SQL executor. Borrow a database, run statements.
pub struct Executor<'db> {
    db: &'db Database,
    pub(crate) opts: ExecOptions,
    stats: RefCell<ExecStats>,
    /// Per-statement plan cache keyed by `Select` address; cleared at each
    /// top-level `run` so addresses cannot dangle across statements.
    plans: RefCell<HashMap<usize, Arc<SelectPlan>>>,
    /// Plans seeded from a previous statement execution (the engine's
    /// query cache re-uses `Select` ASTs behind shared pointers, keeping
    /// addresses stable). Consulted by `plan_for` after `plans`; never
    /// cleared by `run`.
    seeded: RefCell<HashMap<usize, Arc<SelectPlan>>>,
    /// Zero-copy variant of `seeded` for partition workers: the whole
    /// coordinator snapshot behind one `Arc`, consulted read-only by
    /// `plan_for` instead of being cloned entry-by-entry into each
    /// worker executor.
    seeded_shared: RefCell<Option<PlanSnapshot>>,
    /// Caches shared with (or inherited from) a fan-out's sibling
    /// executors; see [`SharedExecCaches`]. Reset per statement.
    shared_caches: RefCell<Option<Arc<SharedExecCaches<'db>>>>,
    /// `par_decision` log for EXPLAIN ANALYZE: one entry per branch the
    /// `Auto` fork rule decided while executing the current statement.
    /// Cleared per statement.
    par_log: RefCell<Vec<ParDecision>>,
    /// Slot holding the current `COUNT(*)` aggregate while its projection
    /// is evaluated.
    count_result: std::cell::Cell<Option<i64>>,
    /// Flattened indexes for the sort-merge cursor. Valid for this
    /// executor's lifetime — the database borrow is immutable.
    merge_arrays: RefCell<MergeArrays<'db>>,
    /// Sort-merge cursor positions keyed by (Select address, step depth);
    /// cleared per `run` alongside the plan cache.
    merge_cursors: RefCell<HashMap<(usize, usize), usize>>,
    /// Pool of probe-row buffers (one live per nested-loop depth);
    /// acquiring past the pool counts into `ExecStats::probe_allocs`.
    row_buf_pool: RefCell<Vec<Vec<RowId>>>,
    /// Scratch composite-key buffer for `IndexEq` probes, reused across
    /// probes instead of a fresh `Vec<Value>` each.
    key_scratch: RefCell<Vec<Value>>,
    /// Per-step counters keyed by `Select` address (same key as the plan
    /// cache), one slot per plan step; cleared at each top-level `run`.
    step_stats: RefCell<HashMap<usize, Vec<OpStats>>>,
    /// When true, `OpStats::elapsed_ns` is measured (two `Instant` reads
    /// per step invocation); counters are maintained regardless.
    profiling: std::cell::Cell<bool>,
    /// Per-query limits ([`Executor::set_limits`]); `limits_active`
    /// mirrors `!limits.is_unlimited()` so the per-row hot path pays one
    /// `Cell` read when no limits are set.
    limits: RefCell<QueryLimits>,
    limits_active: Cell<bool>,
    /// Rows charged against `QueryLimits::max_rows_scanned` so far.
    rows_charged: Cell<u64>,
    /// Rows since the last deadline/cancel check.
    limit_tick: Cell<u64>,
}

impl<'db> Executor<'db> {
    /// An executor under the default (serving) [`ExecOptions`].
    pub fn new(db: &'db Database) -> Executor<'db> {
        Executor::with_options(db, ExecOptions::default())
    }

    /// An executor whose planner and pipeline follow `opts`.
    pub fn with_options(db: &'db Database, opts: ExecOptions) -> Executor<'db> {
        Executor {
            db,
            opts,
            stats: RefCell::new(ExecStats::default()),
            plans: RefCell::new(HashMap::new()),
            seeded: RefCell::new(HashMap::new()),
            seeded_shared: RefCell::new(None),
            shared_caches: RefCell::new(None),
            par_log: RefCell::new(Vec::new()),
            count_result: std::cell::Cell::new(None),
            merge_arrays: RefCell::new(HashMap::new()),
            merge_cursors: RefCell::new(HashMap::new()),
            row_buf_pool: RefCell::new(Vec::new()),
            key_scratch: RefCell::new(Vec::new()),
            step_stats: RefCell::new(HashMap::new()),
            profiling: std::cell::Cell::new(false),
            limits: RefCell::new(QueryLimits::none()),
            limits_active: Cell::new(false),
            rows_charged: Cell::new(0),
            limit_tick: Cell::new(0),
        }
    }

    /// Enable per-step wall-time measurement (used by `EXPLAIN ANALYZE`).
    pub fn set_profiling(&self, on: bool) {
        self.profiling.set(on);
    }

    /// Install per-query resource limits. They apply to every statement
    /// this executor runs until replaced; the row budget resets at each
    /// top-level [`Executor::run`].
    pub fn set_limits(&self, limits: QueryLimits) {
        self.limits_active.set(!limits.is_unlimited());
        *self.limits.borrow_mut() = limits;
        self.rows_charged.set(0);
        self.limit_tick.set(0);
    }

    /// The limits currently installed (cloned; used to propagate the
    /// coordinator's limits into partition workers).
    pub fn limits(&self) -> QueryLimits {
        self.limits.borrow().clone()
    }

    /// Charge `n` scanned rows against the limits. Row-budget violations
    /// surface immediately; the deadline and cancel token are polled every
    /// [`LIMIT_CHECK_INTERVAL`] charged rows. Callers guard with
    /// `limits_active` so the unlimited path costs one `Cell` read.
    #[inline]
    fn charge_rows(&self, n: u64) -> Result<(), ExecError> {
        if !self.limits_active.get() {
            return Ok(());
        }
        let charged = self.rows_charged.get() + n;
        self.rows_charged.set(charged);
        let limits = self.limits.borrow();
        if let Some(max) = limits.max_rows_scanned {
            if charged > max {
                return Err(ExecError::limit(format!(
                    "row budget exceeded: scanned {charged} rows (budget {max})"
                )));
            }
        }
        let tick = self.limit_tick.get() + n;
        if tick >= LIMIT_CHECK_INTERVAL {
            self.limit_tick.set(0);
            self.check_deadline(&limits)?;
        } else {
            self.limit_tick.set(tick);
        }
        Ok(())
    }

    fn check_deadline(&self, limits: &QueryLimits) -> Result<(), ExecError> {
        limits.check_interrupt()
    }

    /// Force a deadline/cancel poll now (loop boundaries that process an
    /// unbounded amount of work per row, e.g. the branch fan-out).
    fn check_limits_now(&self) -> Result<(), ExecError> {
        if !self.limits_active.get() {
            return Ok(());
        }
        self.check_deadline(&self.limits.borrow())
    }

    /// Per-step counters for a `Select` executed by the current statement
    /// (`None` if the block never ran — e.g. a short-circuited subquery).
    /// Slots align with the plan's steps in execution order.
    pub fn step_stats(&self, sel: &Select) -> Option<Vec<OpStats>> {
        self.step_stats
            .borrow()
            .get(&(sel as *const Select as usize))
            .cloned()
    }

    /// The plan the current statement actually used for `sel`, if that
    /// block was planned. `EXPLAIN ANALYZE` renders subquery blocks from
    /// this plan so they are the very `Select` clones the executor
    /// profiled (re-planning would produce fresh clones whose addresses
    /// match no recorded counters).
    pub fn cached_plan(&self, sel: &Select) -> Option<Arc<SelectPlan>> {
        self.plans
            .borrow()
            .get(&(sel as *const Select as usize))
            .cloned()
    }

    /// Every (plan, per-step counters) pair the current statement
    /// recorded, across all executed blocks (branches and subqueries), in
    /// no particular order. Lets callers roll counters up by table — e.g.
    /// "rows examined vs surviving on the `Paths` table" — without
    /// knowing the statement's shape.
    pub fn profiled_steps(&self) -> Vec<(Arc<SelectPlan>, Vec<OpStats>)> {
        let plans = self.plans.borrow();
        self.step_stats
            .borrow()
            .iter()
            .filter_map(|(key, ops)| plans.get(key).map(|p| (p.clone(), ops.clone())))
            .collect()
    }

    /// Snapshot of every plan the current statement used, keyed by
    /// `Select` address. The engine's query cache captures this after the
    /// first execution and replays it via [`Executor::seed_plans`] into
    /// fresh executors — sound because the cached statement's `Select`s
    /// live behind shared pointers and keep their addresses.
    pub fn plan_snapshot(&self) -> HashMap<usize, Arc<SelectPlan>> {
        self.plans.borrow().clone()
    }

    /// Pre-load plans captured by [`Executor::plan_snapshot`] so the next
    /// `run` skips planning for those `Select` blocks.
    pub fn seed_plans(&self, snapshot: &HashMap<usize, Arc<SelectPlan>>) {
        self.seeded
            .borrow_mut()
            .extend(snapshot.iter().map(|(k, v)| (*k, v.clone())));
    }

    /// Zero-copy [`Executor::seed_plans`]: share the whole snapshot map
    /// behind one `Arc` instead of rebuilding it per worker executor.
    fn seed_plans_shared(&self, snapshot: Arc<HashMap<usize, Arc<SelectPlan>>>) {
        *self.seeded_shared.borrow_mut() = Some(snapshot);
    }

    /// The shared-cache handle for a fan-out launched by this executor,
    /// created on first use and pre-seeded with everything this executor
    /// already built. Repeated fan-outs within one statement reuse it.
    fn share_caches(&self) -> Arc<SharedExecCaches<'db>> {
        if let Some(sc) = self.shared_caches.borrow().as_ref() {
            return sc.clone();
        }
        let sc = Arc::new(SharedExecCaches {
            merge: Mutex::new(self.merge_arrays.borrow().clone()),
        });
        *self.shared_caches.borrow_mut() = Some(sc.clone());
        sc
    }

    /// Attach a sibling fan-out's shared caches (worker side).
    fn attach_shared_caches(&self, sc: Arc<SharedExecCaches<'db>>) {
        *self.shared_caches.borrow_mut() = Some(sc);
    }

    /// The coordinator plan snapshot handed to one fan-out's workers:
    /// current plans plus anything seeded, shared behind one `Arc`.
    fn snapshot_for_workers(&self) -> Arc<HashMap<usize, Arc<SelectPlan>>> {
        let mut s = self.plan_snapshot();
        s.extend(self.seeded.borrow().iter().map(|(k, v)| (*k, v.clone())));
        if let Some(shared) = self.seeded_shared.borrow().as_ref() {
            for (k, v) in shared.iter() {
                s.entry(*k).or_insert_with(|| v.clone());
            }
        }
        Arc::new(s)
    }

    /// Record one fork-or-serial decision of a statement with `branches`
    /// top-level branches. The log reserves a slot per branch at its
    /// first decision, so it allocates once however many arms there are.
    fn log_par_decision(&self, decision: ParDecision, branches: usize) {
        let mut log = self.par_log.borrow_mut();
        if log.capacity() == 0 {
            log.reserve_exact(branches);
        }
        log.push(decision);
    }

    /// The `par_decision` entries the current statement recorded, in
    /// decision order (empty unless `Auto` ran a branch on a multi-thread
    /// pool).
    pub fn par_decisions(&self) -> Vec<String> {
        self.par_log
            .borrow()
            .iter()
            .map(|d| d.to_string())
            .collect()
    }

    /// Counters accumulated since construction (or the last reset).
    pub fn stats(&self) -> ExecStats {
        *self.stats.borrow()
    }

    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = ExecStats::default();
    }

    /// Parse and run a SQL string.
    pub fn query(&self, sql: &str) -> Result<ResultSet, ExecError> {
        let stmt = crate::parser::parse_sql(sql).map_err(|e| ExecError::parse(e.to_string()))?;
        self.run(&stmt)
    }

    /// Run a statement AST. Limit and cancellation aborts are counted
    /// into [`ExecStats`] here, on the way out.
    pub fn run(&self, stmt: &SelectStmt) -> Result<ResultSet, ExecError> {
        self.rows_charged.set(0);
        self.limit_tick.set(0);
        // Up-front poll so an already-expired deadline or pre-fired token
        // aborts deterministically, even for queries too small to ever
        // reach an in-loop check.
        let result = self.check_limits_now().and_then(|()| self.run_inner(stmt));
        match &result {
            Ok(_) => self.record_plan_qerror(),
            Err(e) => {
                let mut stats = self.stats.borrow_mut();
                match e {
                    ExecError::Limit(_) => stats.limit_aborts += 1,
                    ExecError::Cancelled(_) => stats.query_cancelled += 1,
                    _ => {}
                }
            }
        }
        result
    }

    /// Feed per-step estimation quality into the global registry
    /// histogram `sqlexec.plan_qerror` (fixed-point ×100, so 100 = a
    /// perfect estimate). Per-step counters are always recorded —
    /// profiling only gates timing — so this costs one map walk per
    /// statement. Actual rows-per-invocation is compared against the
    /// planner's `est_rows` for the same step.
    fn record_plan_qerror(&self) {
        let reg = obs::Registry::global();
        for (plan, ops) in self.profiled_steps() {
            for (step, op) in plan.steps.iter().zip(&ops) {
                if op.invocations == 0 {
                    continue;
                }
                let act = op.rows_out as f64 / op.invocations as f64;
                let q = crate::plan::qerror(step.est_rows, act);
                reg.observe("sqlexec.plan_qerror", (q * 100.0) as u64);
            }
        }
    }

    fn run_inner(&self, stmt: &SelectStmt) -> Result<ResultSet, ExecError> {
        self.plans.borrow_mut().clear();
        self.merge_cursors.borrow_mut().clear();
        self.step_stats.borrow_mut().clear();
        self.par_log.borrow_mut().clear();
        *self.shared_caches.borrow_mut() = None;
        if stmt.branches.is_empty() {
            return Err(ExecError::exec("statement has no SELECT branch"));
        }
        let multi = stmt.branches.len() > 1;
        // UNION branches must agree on arity, or dedup/sort would index
        // out of bounds across rows of different widths.
        let arity = stmt.branches[0].projections.len();
        if stmt.branches.iter().any(|b| b.projections.len() != arity) {
            return Err(ExecError::exec(
                "UNION branches project different numbers of columns",
            ));
        }

        // Resolve ORDER BY keys. Keys naming an output column sort on the
        // projected value (required for UNION); otherwise the key expression
        // is evaluated against the FROM bindings of the (single) branch.
        let first = &stmt.branches[0];
        let mut keys: Vec<(KeyKind, bool)> = Vec::new();
        for k in &stmt.order_by {
            let kind = match &k.expr {
                Expr::Column {
                    qualifier: None,
                    name,
                } => {
                    let pos = first.projections.iter().position(|p| {
                        p.alias.as_deref() == Some(name.as_str())
                            || matches!(&p.expr, Expr::Column { name: n, .. } if n == name)
                    });
                    match pos {
                        Some(i) => KeyKind::Output(i),
                        None => KeyKind::Computed(k.expr.clone()),
                    }
                }
                other => KeyKind::Computed(other.clone()),
            };
            if multi && matches!(kind, KeyKind::Computed(_)) {
                return Err(ExecError::exec(
                    "ORDER BY over UNION must reference an output column",
                ));
            }
            keys.push((kind, k.desc));
        }

        let mut all_rows: Vec<KeyedRow> = Vec::new();
        for sel in &stmt.branches {
            match self.branch_rows_parallel(sel, &keys, stmt.branches.len())? {
                Some(rows) => all_rows.extend(rows),
                None => {
                    let mut env: Vec<Binding> = Vec::new();
                    self.select_rows(sel, &mut env, &mut |exec, env| {
                        all_rows.push(project_row(exec, sel, &keys, env)?);
                        Ok(true)
                    })?;
                }
            }
        }
        finish_rows(stmt, &mut all_rows, &keys);

        let columns = first
            .projections
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.alias.clone().unwrap_or_else(|| match &p.expr {
                    Expr::Column { name, .. } => name.clone(),
                    Expr::CountStar => "count".to_string(),
                    _ => format!("col{i}"),
                })
            })
            .collect();
        Ok(ResultSet {
            columns,
            rows: all_rows.into_iter().map(|(_, r)| r).collect(),
        })
    }

    /// Partitioned execution of one top-level branch: fill the first
    /// step's candidate rows once, split the run at Dewey-aligned
    /// boundaries, and drive the remaining pipeline over each slice on a
    /// pool worker with its own `Executor`. Chunk outputs concatenate in
    /// range order, so the result is the serial emission order exactly.
    ///
    /// Returns `None` when this branch should take the serial path — the
    /// mode is `ForceOff`, the pool has one thread, the projection is
    /// `COUNT(*)`, or the plan has no steps. `PPF_THREADS=1` therefore
    /// reproduces the pre-parallel engine byte for byte. `branches` is the
    /// statement's branch count, which sizes the decision log.
    fn branch_rows_parallel(
        &self,
        sel: &Select,
        keys: &[(KeyKind, bool)],
        branches: usize,
    ) -> Result<Option<Vec<KeyedRow>>, ExecError> {
        let mode = self.opts.parallel;
        let pool = ppf_pool::global();
        let threads = pool.threads();
        if mode == ParallelMode::ForceOff
            || threads <= 1
            || sel
                .projections
                .iter()
                .any(|p| matches!(p.expr, Expr::CountStar))
        {
            return Ok(None);
        }
        self.check_limits_now()?;
        let plan = self.plan_for(sel, &[])?;
        if plan.steps.is_empty() {
            return Ok(None);
        }
        let step0 = &plan.steps[0];
        let table = self
            .db
            .table(&step0.table)
            .ok_or_else(|| ExecError::exec(format!("no such table `{}`", step0.table)))?;

        let t0 = self.profiling.get().then(std::time::Instant::now);
        let mut fill_local = OpStats {
            invocations: 1,
            ..OpStats::default()
        };
        let mut env: Vec<Binding<'db>> = Vec::new();
        let mut probe_rows = self.take_row_buf();
        let memo_skip = match self.fill_probe_rows(
            step0,
            table,
            sel,
            0,
            &mut env,
            &mut fill_local,
            &mut probe_rows,
        ) {
            Ok(skip) => skip,
            Err(e) => {
                self.put_row_buf(probe_rows);
                return Err(e);
            }
        };

        let n = probe_rows.len();
        let chunks = match mode {
            ParallelMode::ForceOn => (n >= 2).then(|| fork_chunks(n, threads)),
            _ => {
                // Each outer row drives the planner's expected fetches
                // through every later step.
                let work = n as f64
                    * plan.steps[1..]
                        .iter()
                        .map(|s| s.est_fetched.max(1.0))
                        .product::<f64>();
                let (kind, chunks) = match auto_fork_chunks(n, work, threads) {
                    // Saturation matters only to a fork the rule approved:
                    // a busy pool gains nothing from queueing more chunks.
                    Some(_) if pool.is_saturated() => {
                        self.stats.borrow_mut().par_degraded += 1;
                        ("degraded", None)
                    }
                    Some(c) => ("fork", Some(c)),
                    None => ("serial", None),
                };
                let decision = ParDecision {
                    kind,
                    rows: n,
                    work,
                    chunks,
                };
                self.log_par_decision(decision, branches);
                chunks
            }
        };
        let mut ranges = chunks.map_or_else(Vec::new, |c| ppf_pool::even_ranges(n, c));
        if ranges.len() > 1 {
            align_ranges_to_dewey(table, &probe_rows, &mut ranges);
        }

        if ranges.len() <= 1 {
            // Not worth (or not able to) split: finish serially over the
            // rows already fetched, accumulating into the same step slot.
            let mut rows = Vec::new();
            let outcome = self.run_probe_rows(
                &plan,
                0,
                sel,
                &mut env,
                table,
                &probe_rows,
                memo_skip,
                &mut |exec, env| {
                    rows.push(project_row(exec, sel, keys, env)?);
                    Ok(true)
                },
                &mut fill_local,
            );
            self.put_row_buf(probe_rows);
            if let Some(t0) = t0 {
                fill_local.elapsed_ns = t0.elapsed().as_nanos() as u64;
            }
            self.flush_depth0(sel, &plan, &fill_local);
            outcome?;
            return Ok(Some(rows));
        }
        {
            let mut stats = self.stats.borrow_mut();
            stats.par_tasks += 1;
            stats.par_chunks += ranges.len() as u64;
            stats.par_rows += ranges.iter().map(|r| r.len() as u64).sum::<u64>();
            let widest = ranges.iter().map(|r| r.len() as u64).max().unwrap_or(0);
            stats.par_chunk_rows_max = stats.par_chunk_rows_max.max(widest);
        }
        let worker_opts = ExecOptions {
            parallel: ParallelMode::ForceOff,
            ..self.opts
        };
        let profiling = self.profiling.get();
        let snapshot = self.snapshot_for_workers();
        let sc = self.share_caches();
        let db = self.db;
        let plan_ref = &plan;
        let rows_ref = &probe_rows[..];
        let limits = self.limits();
        let parts = pool.try_map_ranges(&ranges, |_, range| {
            if worker_opts.worker_panic {
                panic!("injected worker panic (test hook)");
            }
            obs::profile::record(obs::profile::EventKind::ChunkStart, range.len() as u64);
            let exec = Executor::with_options(db, worker_opts);
            exec.seed_plans_shared(snapshot.clone());
            exec.attach_shared_caches(sc.clone());
            exec.set_profiling(profiling);
            exec.set_limits(limits.clone());
            let mut env: Vec<Binding> = Vec::new();
            let mut rows = Vec::new();
            let mut depth0 = OpStats::default(); // invocations stay the coordinator's
            let outcome = exec
                .run_probe_rows(
                    plan_ref,
                    0,
                    sel,
                    &mut env,
                    table,
                    &rows_ref[range],
                    memo_skip,
                    &mut |e, env| {
                        rows.push(project_row(e, sel, keys, env)?);
                        Ok(true)
                    },
                    &mut depth0,
                )
                .map(|_| ());
            let result = WorkerResult {
                outcome,
                rows,
                depth0,
                stats: exec.stats(),
                step_stats: exec.step_stats.borrow().clone(),
                plans: exec.plan_snapshot(),
            };
            obs::profile::record(obs::profile::EventKind::ChunkEnd, result.rows.len() as u64);
            result
        });
        self.put_row_buf(probe_rows);
        let parts: Vec<WorkerResult> = parts
            .map_err(|p| ExecError::exec(format!("parallel worker panicked: {}", p.message)))?;

        let mut rows = Vec::new();
        let mut first_err: Option<ExecError> = None;
        for part in parts {
            fill_local.absorb(&part.depth0);
            self.stats.borrow_mut().absorb(&part.stats);
            self.absorb_step_stats(&part.step_stats);
            self.absorb_plans(&part.plans);
            if let Err(e) = part.outcome {
                first_err.get_or_insert(e);
            }
            rows.extend(part.rows);
        }
        if let Some(t0) = t0 {
            fill_local.elapsed_ns = t0.elapsed().as_nanos() as u64;
        }
        self.flush_depth0(sel, &plan, &fill_local);
        match first_err {
            Some(e) => Err(e),
            None => Ok(Some(rows)),
        }
    }

    /// Credit the coordinator-side depth-0 counters (candidate fill plus
    /// any serial completion) to the step-stats slot and the global
    /// counters, exactly as [`Self::exec_steps`] does on the serial path.
    fn flush_depth0(&self, sel: &Select, plan: &SelectPlan, local: &OpStats) {
        {
            let mut map = self.step_stats.borrow_mut();
            let slots = map
                .entry(sel as *const Select as usize)
                .or_insert_with(|| vec![OpStats::default(); plan.steps.len()]);
            slots[0].absorb(local);
        }
        let mut stats = self.stats.borrow_mut();
        stats.rows_scanned += local.rows_in;
        stats.index_probes += local.index_probes;
        stats.predicate_evals += local.predicate_evals;
    }

    /// Merge a partition worker's per-step counters into this executor's
    /// (slot-wise; the worker profiled the same shared plans, so `Select`
    /// addresses line up).
    fn absorb_step_stats(&self, other: &HashMap<usize, Vec<OpStats>>) {
        let mut map = self.step_stats.borrow_mut();
        for (key, ops) in other {
            let slots = map
                .entry(*key)
                .or_insert_with(|| vec![OpStats::default(); ops.len()]);
            for (slot, op) in slots.iter_mut().zip(ops) {
                slot.absorb(op);
            }
        }
    }

    /// Adopt plans a worker cached (subquery blocks the coordinator never
    /// planned itself), so `EXPLAIN ANALYZE` can render every profiled
    /// block.
    fn absorb_plans(&self, other: &HashMap<usize, Arc<SelectPlan>>) {
        let mut map = self.plans.borrow_mut();
        for (key, plan) in other {
            map.entry(*key).or_insert_with(|| plan.clone());
        }
    }

    /// Run one select block, calling `emit` per surviving binding (or once
    /// with the aggregate when the projection is `COUNT(*)`).
    /// `emit` returns `false` to stop early (EXISTS).
    fn select_rows<'e>(
        &'e self,
        sel: &'e Select,
        env: &mut Vec<Binding<'db>>,
        emit: &mut EmitFn<'_, 'db>,
    ) -> Result<(), ExecError>
    where
        'db: 'e,
    {
        let is_count = sel
            .projections
            .iter()
            .any(|p| matches!(p.expr, Expr::CountStar));
        if is_count && sel.projections.len() != 1 {
            return Err(ExecError::exec("COUNT(*) must be the only projection"));
        }

        let plan = self.plan_for(sel, env)?;
        if is_count {
            let mut count: i64 = 0;
            self.exec_steps(&plan, 0, sel, env, &mut |_, _| {
                count += 1;
                Ok(true)
            })?;
            // Deliver the count through a one-off binding-free emit: the
            // caller reads it via `eval(CountStar)` — we stash it.
            self.count_result.set(Some(count));
            emit(self, env)?;
            self.count_result.set(None);
            return Ok(());
        }
        self.exec_steps(&plan, 0, sel, env, emit)?;
        Ok(())
    }

    fn plan_for(&self, sel: &Select, env: &[Binding<'db>]) -> Result<Arc<SelectPlan>, ExecError> {
        let key = sel as *const Select as usize;
        if let Some(p) = self.plans.borrow().get(&key) {
            return Ok(p.clone());
        }
        if let Some(p) = self.seeded.borrow().get(&key) {
            self.plans.borrow_mut().insert(key, p.clone());
            return Ok(p.clone());
        }
        if let Some(shared) = self.seeded_shared.borrow().as_ref() {
            if let Some(p) = shared.get(&key) {
                self.plans.borrow_mut().insert(key, p.clone());
                return Ok(p.clone());
            }
        }
        let outer: Vec<(String, String)> = env
            .iter()
            .map(|b| (b.alias.to_string(), b.table.schema.name.clone()))
            .collect();
        let plan = Arc::new(plan_select_with(self.db, sel, &outer, &self.opts)?);
        self.plans.borrow_mut().insert(key, plan.clone());
        Ok(plan)
    }

    /// Wrapper around [`Self::exec_steps_inner`] that flushes this step's
    /// counters into `step_stats` and the global `ExecStats` on *every*
    /// exit path — including errors, which previously dropped the counts
    /// accumulated before the failure (the EXISTS/scalar-subquery
    /// undercount).
    fn exec_steps<'e>(
        &'e self,
        plan: &SelectPlan,
        depth: usize,
        sel: &'e Select,
        env: &mut Vec<Binding<'db>>,
        emit: &mut EmitFn<'_, 'db>,
    ) -> Result<bool, ExecError> {
        if depth == plan.steps.len() {
            if !plan.late_filters.is_empty() {
                let mut evals = 0u64;
                let mut pass = true;
                for f in &plan.late_filters {
                    evals += 1;
                    match self.eval_truth(f, env) {
                        Ok(Some(true)) => {}
                        Ok(_) => {
                            pass = false;
                            break;
                        }
                        Err(e) => {
                            self.stats.borrow_mut().predicate_evals += evals;
                            return Err(e);
                        }
                    }
                }
                self.stats.borrow_mut().predicate_evals += evals;
                if !pass {
                    return Ok(true);
                }
            }
            return emit(self, env);
        }

        let t0 = self.profiling.get().then(std::time::Instant::now);
        let mut local = OpStats {
            invocations: 1,
            ..OpStats::default()
        };
        let result = self.exec_steps_inner(plan, depth, sel, env, emit, &mut local);
        if let Some(t0) = t0 {
            local.elapsed_ns = t0.elapsed().as_nanos() as u64;
        }
        {
            let mut map = self.step_stats.borrow_mut();
            let slots = map
                .entry(sel as *const Select as usize)
                .or_insert_with(|| vec![OpStats::default(); plan.steps.len()]);
            slots[depth].absorb(&local);
        }
        {
            let mut stats = self.stats.borrow_mut();
            stats.rows_scanned += local.rows_in;
            stats.index_probes += local.index_probes;
            stats.predicate_evals += local.predicate_evals;
        }
        result
    }

    fn exec_steps_inner<'e>(
        &'e self,
        plan: &SelectPlan,
        depth: usize,
        sel: &'e Select,
        env: &mut Vec<Binding<'db>>,
        emit: &mut EmitFn<'_, 'db>,
        local: &mut OpStats,
    ) -> Result<bool, ExecError> {
        let step = &plan.steps[depth];
        let table = self
            .db
            .table(&step.table)
            .ok_or_else(|| ExecError::exec(format!("no such table `{}`", step.table)))?;

        // Materialize candidate row ids from the access path into a
        // pooled buffer (returned to the pool on every exit path below).
        let mut probe_rows = self.take_row_buf();
        let memo_skip =
            match self.fill_probe_rows(step, table, sel, depth, env, local, &mut probe_rows) {
                Ok(skip) => skip,
                Err(e) => {
                    self.put_row_buf(probe_rows);
                    return Err(e);
                }
            };

        let outcome = self.run_probe_rows(
            plan,
            depth,
            sel,
            env,
            table,
            &probe_rows,
            memo_skip,
            emit,
            local,
        );
        self.put_row_buf(probe_rows);
        outcome
    }

    /// The nested-loop row loop for one step invocation, over an
    /// already-materialized candidate list. Shared by the serial pipeline
    /// ([`Self::exec_steps_inner`]) and by partition workers, which run it
    /// over disjoint slices of the coordinator's outer run.
    #[allow(clippy::too_many_arguments)]
    fn run_probe_rows<'e>(
        &'e self,
        plan: &SelectPlan,
        depth: usize,
        sel: &'e Select,
        env: &mut Vec<Binding<'db>>,
        table: &'db Table,
        probe_rows: &[RowId],
        memo_skip: Option<usize>,
        emit: &mut EmitFn<'_, 'db>,
        local: &mut OpStats,
    ) -> Result<bool, ExecError> {
        let step = &plan.steps[depth];
        let mut outcome = Ok(true);
        'rows: for &rid in probe_rows {
            local.rows_in += 1;
            if let Err(e) = self.charge_rows(1) {
                outcome = Err(e);
                break 'rows;
            }
            env.push(Binding {
                alias: step.alias.clone(),
                table,
                rid,
            });
            let mut pass = true;
            for (ri, r) in step.residuals.iter().enumerate() {
                if memo_skip == Some(ri) {
                    continue; // already answered by the path-filter memo
                }
                local.predicate_evals += 1;
                match self.eval_truth(r, env) {
                    Ok(Some(true)) => {}
                    Ok(_) => {
                        pass = false;
                        break;
                    }
                    Err(e) => {
                        env.pop();
                        outcome = Err(e);
                        break 'rows;
                    }
                }
            }
            let keep_going = if pass {
                local.rows_out += 1;
                match self.exec_steps(plan, depth + 1, sel, env, emit) {
                    Ok(k) => k,
                    Err(e) => {
                        env.pop();
                        outcome = Err(e);
                        break 'rows;
                    }
                }
            } else {
                true
            };
            env.pop();
            if !keep_going {
                outcome = Ok(false);
                break 'rows;
            }
        }
        outcome
    }

    /// Materialize the candidate rows for one step invocation. Returns
    /// the index of a residual already answered by the path-filter memo
    /// (so the row loop skips it), if any.
    #[allow(clippy::too_many_arguments)]
    fn fill_probe_rows(
        &self,
        step: &Step,
        table: &'db Table,
        sel: &Select,
        depth: usize,
        env: &mut Vec<Binding<'db>>,
        local: &mut OpStats,
        probe_rows: &mut Vec<RowId>,
    ) -> Result<Option<usize>, ExecError> {
        match &step.access {
            Access::FullScan => {
                if let Some(skip) = self.probe_path_memo(step, table, local, probe_rows)? {
                    return Ok(Some(skip));
                }
                probe_rows.extend(table.rows().map(|(rid, _)| rid));
            }
            Access::HashEq { column, key } => {
                // The side is the table's derived state: built on the
                // first probe of this column and charged to no query.
                let side = table.hash_side(*column);
                let k = self.operand(key, env)?;
                // A NULL key matches nothing; no probe is performed.
                if !k.is_null() {
                    local.index_probes += 1;
                    if let Some(rids) = side.get(&*k) {
                        probe_rows.extend_from_slice(rids);
                    }
                }
            }
            Access::IndexEq { index, keys } => {
                // Probe through the reusable scratch key buffer instead
                // of a fresh Vec<Value> per probe.
                let mut key_vals = self.key_scratch.take();
                key_vals.clear();
                if key_vals.capacity() < keys.len() {
                    self.stats.borrow_mut().probe_allocs += 1;
                }
                let mut any_null = false;
                for k in keys {
                    let v = match self.eval(k, env) {
                        Ok(v) => v,
                        Err(e) => {
                            key_vals.clear();
                            self.key_scratch.replace(key_vals);
                            return Err(e);
                        }
                    };
                    if v.is_null() {
                        any_null = true;
                        break;
                    }
                    key_vals.push(v);
                }
                if !any_null {
                    local.index_probes += 1;
                    probe_rows.extend_from_slice(table.indexes()[*index].get(&key_vals));
                }
                key_vals.clear();
                self.key_scratch.replace(key_vals);
            }
            Access::IndexRange { index, lo, hi } => {
                let ix = &table.indexes()[*index];
                if let Some((lo_v, hi_v)) =
                    self.prepare_bounds(lo, hi, ix.key_cols.len() > 1, env)?
                {
                    local.index_probes += 1;
                    probe_rows.extend(ix.range(bound_of(&lo_v), bound_of(&hi_v)));
                }
            }
            Access::MergeRange { index, lo, hi } => {
                let ix = &table.indexes()[*index];
                if let Some((lo_v, hi_v)) =
                    self.prepare_bounds(lo, hi, ix.key_cols.len() > 1, env)?
                {
                    local.index_probes += 1;
                    self.stats.borrow_mut().merge_probes += 1;
                    let entries = self.merge_entries(table, *index);
                    let ckey = (sel as *const Select as usize, depth);
                    let hint = self.merge_cursors.borrow().get(&ckey).copied().unwrap_or(0);
                    let start = seek_first(&entries, hint, &lo_v);
                    self.merge_cursors.borrow_mut().insert(ckey, start);
                    for (k, rids) in &entries[start..] {
                        if !within_hi(k, &hi_v) {
                            break;
                        }
                        probe_rows.extend_from_slice(rids);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Evaluate range endpoint expressions against the current bindings.
    /// Returns `None` when the probe selects nothing (a NULL bound, or an
    /// inverted interval — which `BTreeMap::range` would panic on). For
    /// composite indexes an inclusive upper bound on the leading column
    /// is widened to cover key suffixes: scan up to (but excluding) the
    /// successor of the bound value; if no successor exists, fall back to
    /// unbounded — the driving conjuncts are re-checked as residuals, so
    /// a superset is always safe.
    fn prepare_bounds(
        &self,
        lo: &Option<(Expr, bool)>,
        hi: &Option<(Expr, bool)>,
        composite: bool,
        env: &mut Vec<Binding<'db>>,
    ) -> Result<Option<(RangeEnd, RangeEnd)>, ExecError> {
        let lo_v: RangeEnd = match lo {
            Some((e, inc)) => {
                let v = self.eval(e, env)?;
                if v.is_null() {
                    return Ok(None); // comparison with NULL selects nothing
                }
                Some((v, *inc))
            }
            None => None,
        };
        let hi_v: RangeEnd = match hi {
            Some((e, inc)) => {
                let v = self.eval(e, env)?;
                if v.is_null() {
                    return Ok(None);
                }
                Some((v, *inc))
            }
            None => None,
        };
        if let (Some((l, l_inc)), Some((h, h_inc))) = (&lo_v, &hi_v) {
            match l.cmp_total(h) {
                std::cmp::Ordering::Greater => return Ok(None),
                std::cmp::Ordering::Equal if !(*l_inc && *h_inc) => return Ok(None),
                _ => {}
            }
        }
        let hi_v = match hi_v {
            Some((v, true)) if composite => value_successor(&v).map(|s| (s, false)),
            other => other,
        };
        Ok(Some((lo_v, hi_v)))
    }

    /// Flatten (and cache) an index as a sorted array for merge probing.
    /// Under a shared fan-out cache the flattening happens once per
    /// statement across all sibling executors instead of once per chunk
    /// — the dominant per-chunk setup cost the profiler flagged.
    fn merge_entries(&self, table: &'db Table, index: usize) -> MergeEntries<'db> {
        let key = (table as *const Table as usize, index);
        if let Some(e) = self.merge_arrays.borrow().get(&key) {
            return e.clone();
        }
        let shared = self.shared_caches.borrow().clone();
        if let Some(sc) = shared {
            let mut map = lock_cache(&sc.merge);
            let rc = match map.get(&key) {
                Some(e) => e.clone(),
                None => {
                    let rc: MergeEntries<'db> =
                        Arc::new(table.indexes()[index].entries().collect::<Vec<_>>());
                    map.insert(key, rc.clone());
                    rc
                }
            };
            drop(map);
            self.merge_arrays.borrow_mut().insert(key, rc.clone());
            return rc;
        }
        let entries: Vec<_> = table.indexes()[index].entries().collect();
        let rc = Arc::new(entries);
        self.merge_arrays.borrow_mut().insert(key, rc.clone());
        rc
    }

    /// Try to answer a full scan whose residuals include
    /// `REGEXP_LIKE(<this step's text column>, pattern)` from the
    /// path-filter memo. On a hit `probe_rows` receives the surviving
    /// rows without touching the table; on a miss the filtering scan runs
    /// here (once) and populates the memo. Either way the matched
    /// residual's index is returned so the row loop skips re-evaluating
    /// it. `None` when no residual qualifies — the plain full scan runs.
    fn probe_path_memo(
        &self,
        step: &Step,
        table: &'db Table,
        local: &mut OpStats,
        probe_rows: &mut Vec<RowId>,
    ) -> Result<Option<usize>, ExecError> {
        let mut found: Option<(usize, usize, &RegexPattern)> = None;
        for (ri, r) in step.residuals.iter().enumerate() {
            if let Expr::RegexpLike { subject, pattern } = r {
                if let Expr::Column { qualifier, name } = &**subject {
                    // The subject must resolve to this step's binding: an
                    // explicit alias match, or unqualified (the innermost
                    // binding wins at lookup time).
                    let aliased = match qualifier {
                        Some(q) => *q == *step.alias,
                        None => true,
                    };
                    if !aliased {
                        continue;
                    }
                    if let Some(ci) = table.schema.col(name) {
                        if table.schema.columns[ci].ty == relstore::ColType::Str {
                            found = Some((ri, ci, pattern));
                            break;
                        }
                    }
                }
            }
        }
        let Some((ri, ci, pattern)) = found else {
            return Ok(None);
        };
        if let Some(rows) = table.filter_memo_get(ci, pattern) {
            self.stats.borrow_mut().path_memo_hits += 1;
            probe_rows.extend_from_slice(&rows);
            return Ok(Some(ri));
        }
        self.stats.borrow_mut().path_memo_misses += 1;
        let survivors = self.filter_scan(table, ci, pattern)?;
        // Rejected rows were examined here and never reach the row loop;
        // count them now so rows_in still totals the full scan, and
        // charge one predicate evaluation per row scanned.
        local.rows_in += (table.len() - survivors.len()) as u64;
        local.predicate_evals += table.len() as u64;
        probe_rows.extend_from_slice(&survivors);
        // The entry doubles as the planner's learned selectivity for
        // this pattern: survivors ÷ rows, read back from the same slot.
        table.filter_memo_insert(ci, pattern, Arc::new(survivors));
        Ok(Some(ri))
    }

    /// Run one path-filter scan: every row of `table` against `pattern`,
    /// in document order. A path filter scans `Paths`, which holds one
    /// row per distinct path (345 at XMark 1.0), so it always runs
    /// serially.
    fn filter_scan(
        &self,
        table: &'db Table,
        ci: usize,
        pattern: &RegexPattern,
    ) -> Result<Vec<RowId>, ExecError> {
        let mut out = Vec::new();
        for (rid, row) in table.rows() {
            self.charge_rows(1)?;
            // NULLs never match (three-valued logic rejects the row).
            if let Value::Str(s) = &row[ci] {
                if pattern.is_match(s) {
                    out.push(rid);
                }
            }
        }
        Ok(out)
    }

    fn take_row_buf(&self) -> Vec<RowId> {
        match self.row_buf_pool.borrow_mut().pop() {
            Some(mut buf) => {
                buf.clear();
                buf
            }
            None => {
                self.stats.borrow_mut().probe_allocs += 1;
                Vec::new()
            }
        }
    }

    fn put_row_buf(&self, buf: Vec<RowId>) {
        let mut pool = self.row_buf_pool.borrow_mut();
        if pool.len() < 64 {
            pool.push(buf);
        }
    }

    // ----- expression evaluation -----

    fn eval_truth(&self, e: &Expr, env: &mut Vec<Binding<'db>>) -> Result<Option<bool>, ExecError> {
        let v = self.eval(e, env)?;
        match v {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(b)),
            other => Err(ExecError::exec(format!(
                "predicate evaluated to non-boolean value {other}"
            ))),
        }
    }

    fn eval(&self, e: &Expr, env: &mut Vec<Binding<'db>>) -> Result<Value, ExecError> {
        match e {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Column { qualifier, name } => {
                self.lookup(qualifier.as_deref(), name, env).cloned()
            }
            Expr::Cmp { op, lhs, rhs } => {
                let a = self.operand(lhs, env)?;
                self.compare_with(*op, &a, rhs, env)
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = self.operand(expr, env)?;
                let ge = self.compare_with(CmpOp::Ge, &v, lo, env)?;
                let le = self.compare_with(CmpOp::Le, &v, hi, env)?;
                let both = and3(truth(&ge), truth(&le));
                let res = if *negated { not3(both) } else { both };
                Ok(to_bool(res))
            }
            Expr::And(xs) => {
                let mut acc = Some(true);
                for x in xs {
                    let t = self.eval_truth(x, env)?;
                    acc = and3(acc, t);
                    if acc == Some(false) {
                        break;
                    }
                }
                Ok(to_bool(acc))
            }
            Expr::Or(xs) => {
                let mut acc = Some(false);
                for x in xs {
                    let t = self.eval_truth(x, env)?;
                    acc = or3(acc, t);
                    if acc == Some(true) {
                        break;
                    }
                }
                Ok(to_bool(acc))
            }
            Expr::Not(x) => {
                let t = self.eval_truth(x, env)?;
                Ok(to_bool(not3(t)))
            }
            Expr::Exists(sub) => {
                self.stats.borrow_mut().subqueries += 1;
                let mut found = false;
                self.select_rows(sub, env, &mut |_, _| {
                    found = true;
                    Ok(false) // stop at first row
                })?;
                Ok(Value::Bool(found))
            }
            Expr::ScalarSubquery(sub) => {
                self.stats.borrow_mut().subqueries += 1;
                if sub.projections.len() != 1 {
                    return Err(ExecError::exec(
                        "scalar subquery must project exactly one column",
                    ));
                }
                let mut result: Option<Value> = None;
                let proj = &sub.projections[0].expr;
                let mut count = 0usize;
                self.select_rows(sub, env, &mut |exec, env2| {
                    count += 1;
                    if count > 1 {
                        return Err(ExecError::exec(
                            "scalar subquery returned more than one row",
                        ));
                    }
                    result = Some(exec.eval(proj, env2)?);
                    Ok(true)
                })?;
                Ok(result.unwrap_or(Value::Null))
            }
            Expr::RegexpLike { subject, pattern } => match &*self.operand(subject, env)? {
                Value::Null => Ok(Value::Null),
                Value::Str(s) => Ok(Value::Bool(pattern.is_match(s))),
                other => Err(ExecError::exec(format!(
                    "REGEXP_LIKE subject must be text, got {other}"
                ))),
            },
            Expr::Concat(a, b) => {
                let av = self.eval(a, env)?;
                let bv = self.eval(b, env)?;
                Ok(concat(av, bv))
            }
            Expr::Arith { op, lhs, rhs } => {
                let a = self.eval(lhs, env)?;
                let b = self.eval(rhs, env)?;
                arith(*op, &a, &b)
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval(expr, env)?;
                let isnull = v.is_null();
                Ok(Value::Bool(if *negated { !isnull } else { isnull }))
            }
            Expr::CountStar => match self.count_result.get() {
                Some(c) => Ok(Value::Int(c)),
                None => Err(ExecError::exec("COUNT(*) outside aggregate context")),
            },
        }
    }

    /// A comparison operand: a `Column` or `Literal` is borrowed from its
    /// row or from the plan, anything else is evaluated. A residual runs
    /// once per candidate row, so this keeps it from copying the Dewey and
    /// text cells it compares.
    fn operand<'e>(
        &self,
        e: &'e Expr,
        env: &mut Vec<Binding<'db>>,
    ) -> Result<Cow<'e, Value>, ExecError>
    where
        'db: 'e,
    {
        match e {
            Expr::Literal(v) => Ok(Cow::Borrowed(v)),
            Expr::Column { qualifier, name } => self
                .lookup(qualifier.as_deref(), name, env)
                .map(Cow::Borrowed),
            other => self.eval(other, env).map(Cow::Owned),
        }
    }

    /// `x <op> rhs`, where `rhs` may be the `y || z` bound of a Dewey
    /// window (see [`compare_concat`]).
    fn compare_with(
        &self,
        op: CmpOp,
        x: &Value,
        rhs: &Expr,
        env: &mut Vec<Binding<'db>>,
    ) -> Result<Value, ExecError> {
        match rhs {
            Expr::Concat(y, z) => {
                let y = self.operand(y, env)?;
                let z = self.operand(z, env)?;
                Ok(compare_concat(op, x, &y, &z))
            }
            _ => Ok(compare(op, x, &*self.operand(rhs, env)?)),
        }
    }

    fn lookup(
        &self,
        qualifier: Option<&str>,
        name: &str,
        env: &[Binding<'db>],
    ) -> Result<&'db Value, ExecError> {
        // Inner bindings shadow outer ones, so scan from the end.
        for b in env.iter().rev() {
            match qualifier {
                Some(q) if q != &*b.alias => continue,
                _ => {}
            }
            if let Some(ci) = b.table.schema.col(name) {
                return Ok(&b.table.row(b.rid)[ci]);
            }
            if qualifier.is_some() {
                return Err(ExecError::exec(format!(
                    "alias `{}` has no column `{name}`",
                    b.alias
                )));
            }
        }
        Err(ExecError::exec(match qualifier {
            Some(q) => format!("unknown column `{q}.{name}`"),
            None => format!("unknown column `{name}`"),
        }))
    }
}

// ----- helpers -----

/// An evaluated range endpoint: the key value plus inclusivity; `None`
/// means unbounded on that side.
type RangeEnd = Option<(Value, bool)>;

/// Borrow a range endpoint as a one-column `BTreeMap` bound — no key copy.
fn bound_of(end: &RangeEnd) -> Bound<&[Value]> {
    match end {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(std::slice::from_ref(v)),
        Some((v, false)) => Bound::Excluded(std::slice::from_ref(v)),
    }
}

/// Lexicographic comparison of a composite key against a (possibly
/// shorter) bound slice, matching the B-tree's `Vec<Value>` ordering: a
/// key extending the bound by extra columns compares greater.
fn cmp_key_bound(key: &[Value], bound: &[Value]) -> std::cmp::Ordering {
    for (k, b) in key.iter().zip(bound) {
        match k.cmp_total(b) {
            std::cmp::Ordering::Equal => {}
            other => return other,
        }
    }
    key.len().cmp(&bound.len())
}

/// Does `key` satisfy the lower endpoint?
fn above_lo(key: &[Value], lo: &RangeEnd) -> bool {
    match lo {
        None => true,
        Some((v, inc)) => {
            let ord = cmp_key_bound(key, std::slice::from_ref(v));
            ord == std::cmp::Ordering::Greater || (*inc && ord == std::cmp::Ordering::Equal)
        }
    }
}

/// Does `key` satisfy the upper endpoint?
fn within_hi(key: &[Value], hi: &RangeEnd) -> bool {
    match hi {
        None => true,
        Some((v, inc)) => {
            let ord = cmp_key_bound(key, std::slice::from_ref(v));
            ord == std::cmp::Ordering::Less || (*inc && ord == std::cmp::Ordering::Equal)
        }
    }
}

/// First entry index satisfying the lower endpoint, using the previous
/// probe's position as a hint. When successive probes arrive in document
/// order (the staircase case of Dewey structural joins) the hint is exact
/// and the seek is O(1); otherwise it gallops from the hint and finishes
/// with a binary search, so an out-of-order probe costs O(log n).
fn seek_first(entries: &[(&[Value], &[RowId])], hint: usize, lo: &RangeEnd) -> usize {
    let len = entries.len();
    let pos = hint.min(len);
    let (lo_i, hi_i) = if pos < len && !above_lo(entries[pos].0, lo) {
        // The window starts right of the hint: gallop to bracket it.
        let mut width = 1usize;
        let mut prev = pos;
        loop {
            let next = (prev + width).min(len);
            if next == len || above_lo(entries[next].0, lo) {
                break (prev + 1, next);
            }
            prev = next;
            width *= 2;
        }
    } else {
        // The hint is already inside the window; if its predecessor is
        // below the bound, the hint is exactly the window start.
        if pos == 0 || !above_lo(entries[pos - 1].0, lo) {
            return pos;
        }
        (0, pos)
    };
    lo_i + entries[lo_i..hi_i].partition_point(|(k, _)| !above_lo(k, lo))
}

fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn to_bool(t: Option<bool>) -> Value {
    match t {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    }
}

fn and3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (Some(true), Some(true)) => Some(true),
        _ => None,
    }
}

fn or3(a: Option<bool>, b: Option<bool>) -> Option<bool> {
    match (a, b) {
        (Some(true), _) | (_, Some(true)) => Some(true),
        (Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

fn not3(a: Option<bool>) -> Option<bool> {
    a.map(|b| !b)
}

/// Raw (unquoted) text form for concatenation.
fn display_raw(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Bytes(b) => b.iter().map(|x| format!("{x:02X}")).collect(),
        Value::Null => String::new(),
    }
}

/// SQL comparison with implicit numeric conversion (Oracle-style) and NULL
/// propagation. Returns `Bool` or `Null`.
pub fn compare(op: CmpOp, a: &Value, b: &Value) -> Value {
    use std::cmp::Ordering;
    if a.is_null() || b.is_null() {
        return Value::Null;
    }
    let ord: Option<Ordering> = match (a, b) {
        (Value::Int(_), Value::Int(_))
        | (Value::Float(_), Value::Float(_))
        | (Value::Int(_), Value::Float(_))
        | (Value::Float(_), Value::Int(_))
        | (Value::Str(_), Value::Str(_))
        | (Value::Bytes(_), Value::Bytes(_))
        | (Value::Bool(_), Value::Bool(_)) => Some(a.cmp_total(b)),
        // Implicit text→number conversion when compared with a number.
        (Value::Str(s), Value::Int(_) | Value::Float(_)) => s
            .trim()
            .parse::<f64>()
            .ok()
            .map(|x| Value::Float(x).cmp_total(b)),
        (Value::Int(_) | Value::Float(_), Value::Str(s)) => s
            .trim()
            .parse::<f64>()
            .ok()
            .map(|x| a.cmp_total(&Value::Float(x))),
        _ => None,
    };
    match ord {
        None => Value::Null, // incomparable (e.g. unparsable text vs number)
        Some(ord) => Value::Bool(holds(op, ord)),
    }
}

/// Whether `a <op> b` holds given `a.cmp(b)`.
fn holds(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }
}

/// `a || b`: NULL if either side is, bytes when both are, text otherwise.
fn concat(a: Value, b: Value) -> Value {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Bytes(mut x), Value::Bytes(y)) => {
            x.extend_from_slice(&y);
            Value::Bytes(x)
        }
        (a, b) => {
            let mut s = display_raw(&a);
            s.push_str(&display_raw(&b));
            Value::Str(s)
        }
    }
}

/// `compare(op, x, y || z)`. When all three are `Bytes` — the Dewey-window
/// bound `x < y || x'FF'` the translator emits for structural joins
/// (Table 2) — `x` is compared against the two parts in turn and the
/// concatenation is never built; other operand types take the
/// materialising path.
fn compare_concat(op: CmpOp, x: &Value, y: &Value, z: &Value) -> Value {
    match (x, y, z) {
        (Value::Bytes(x), Value::Bytes(y), Value::Bytes(z)) => {
            let k = x.len().min(y.len());
            let ord = x[..k].cmp(&y[..k]).then_with(|| {
                if x.len() <= y.len() {
                    // `x` is a prefix of `y`, so of `y || z`.
                    x.len().cmp(&(y.len() + z.len()))
                } else {
                    x[k..].cmp(z)
                }
            });
            Value::Bool(holds(op, ord))
        }
        _ => compare(op, x, &concat(y.clone(), z.clone())),
    }
}

fn arith(op: ArithOp, a: &Value, b: &Value) -> Result<Value, ExecError> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let to_num = |v: &Value| -> Result<(i64, f64, bool), ExecError> {
        match v {
            Value::Int(i) => Ok((*i, *i as f64, true)),
            Value::Float(f) => Ok((0, *f, false)),
            Value::Str(s) => match s.trim().parse::<f64>() {
                Ok(f) => Ok((0, f, false)),
                Err(_) => Err(ExecError::exec(format!("cannot use {v} in arithmetic"))),
            },
            other => Err(ExecError::exec(format!("cannot use {other} in arithmetic"))),
        }
    };
    let (ai, af, a_int) = to_num(a)?;
    let (bi, bf, b_int) = to_num(b)?;
    if a_int && b_int && op != ArithOp::Div {
        let r = match op {
            ArithOp::Add => ai.checked_add(bi),
            ArithOp::Sub => ai.checked_sub(bi),
            ArithOp::Mul => ai.checked_mul(bi),
            ArithOp::Div => unreachable!(),
        };
        return r
            .map(Value::Int)
            .ok_or_else(|| ExecError::exec("integer overflow"));
    }
    let r = match op {
        ArithOp::Add => af + bf,
        ArithOp::Sub => af - bf,
        ArithOp::Mul => af * bf,
        ArithOp::Div => {
            if bf == 0.0 {
                return Ok(Value::Null);
            }
            af / bf
        }
    };
    Ok(Value::Float(r))
}

/// The smallest value strictly greater than `v` in the total order, when
/// one can be written down (used to turn an inclusive leading-column bound
/// on a composite index into an exclusive bound that covers all suffixes).
fn value_successor(v: &Value) -> Option<Value> {
    match v {
        Value::Int(i) => i.checked_add(1).map(Value::Int),
        Value::Str(s) => {
            let mut t = s.clone();
            t.push('\0');
            Some(Value::Str(t))
        }
        Value::Bytes(b) => {
            let mut t = b.clone();
            t.push(0);
            Some(Value::Bytes(t))
        }
        Value::Bool(false) => Some(Value::Bool(true)),
        _ => None,
    }
}

/// Reference executor used by property tests: evaluates a single-branch
/// select by brute-force cross product with no planner, no indexes.
pub fn naive_select(db: &Database, sel: &Select) -> Result<Vec<Vec<Value>>, ExecError> {
    let exec = Executor::new(db);
    let mut env: Vec<Binding> = Vec::new();
    let mut out = Vec::new();
    fn recurse<'db>(
        exec: &Executor<'db>,
        db: &'db Database,
        sel: &Select,
        depth: usize,
        env: &mut Vec<Binding<'db>>,
        out: &mut Vec<Vec<Value>>,
    ) -> Result<(), ExecError> {
        if depth == sel.from.len() {
            if let Some(w) = &sel.where_clause {
                if exec.eval_truth(w, env)? != Some(true) {
                    return Ok(());
                }
            }
            let row: Vec<Value> = sel
                .projections
                .iter()
                .map(|p| exec.eval(&p.expr, env))
                .collect::<Result<_, _>>()?;
            out.push(row);
            return Ok(());
        }
        let tref = &sel.from[depth];
        let table = db
            .table(&tref.table)
            .ok_or_else(|| ExecError::exec(format!("no such table `{}`", tref.table)))?;
        let alias: Arc<str> = Arc::from(tref.alias.as_str());
        for (rid, _) in table.rows() {
            env.push(Binding {
                alias: alias.clone(),
                table,
                rid,
            });
            recurse(exec, db, sel, depth + 1, env, out)?;
            env.pop();
        }
        Ok(())
    }
    recurse(&exec, db, sel, 0, &mut env, &mut out)?;
    if sel.distinct {
        let mut seen = std::collections::BTreeSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::{auto_fork_chunks, compare, compare_concat, concat, FORK_MIN_WORK};
    use crate::ast::CmpOp;
    use relstore::Value;

    /// The fork rule at its boundary: one unit of work short stays
    /// serial, the threshold itself forks into two chunks per lane, never
    /// more chunks than rows, and a single row never forks.
    #[test]
    fn auto_fork_rule_boundary() {
        for threads in [2usize, 4] {
            for n in [2usize, 3, 7, 8, 9, 1_000] {
                assert_eq!(auto_fork_chunks(n, FORK_MIN_WORK - 1.0, threads), None);
                assert_eq!(
                    auto_fork_chunks(n, FORK_MIN_WORK, threads),
                    Some(n.min(2 * threads)),
                    "n={n} threads={threads}"
                );
            }
            assert_eq!(auto_fork_chunks(1, FORK_MIN_WORK * 10.0, threads), None);
            assert_eq!(auto_fork_chunks(0, FORK_MIN_WORK, threads), None);
        }
    }

    /// Comparing against `y || z` in parts agrees with comparing against
    /// the built concatenation, for every operator.
    #[test]
    fn compare_concat_matches_materialised_concat() {
        let b = |s: &[u8]| Value::Bytes(s.to_vec());
        let cases = [
            // (x, y, z)
            (b(&[1, 2]), b(&[1, 2]), b(&[0xFF])), // x equal to y
            (b(&[1]), b(&[1, 2]), b(&[0xFF])),    // x a proper prefix of y
            (b(&[1, 2, 3]), b(&[1, 2]), b(&[0xFF])), // y a proper prefix of x
            (b(&[1, 2, 0xFF]), b(&[1, 2]), b(&[0xFF])), // x equal to y || z
            (b(&[1, 2, 0xFF, 0]), b(&[1, 2]), b(&[0xFF])),
            (b(&[1, 3]), b(&[1, 2]), b(&[0xFF])),
            (b(&[1, 1, 9]), b(&[1, 2]), b(&[0xFF])),
            (b(&[]), b(&[1]), b(&[0xFF])),
            (b(&[1, 2]), b(&[1, 2]), b(&[])), // empty suffix
            (b(&[1, 2, 3]), b(&[1, 2]), b(&[])),
            (b(&[1]), b(&[1, 2]), b(&[])),
            (b(&[1, 2]), b(&[]), b(&[1, 2])),
            (Value::Null, b(&[1, 2]), b(&[0xFF])),
            (b(&[1, 2]), Value::Null, b(&[0xFF])),
            (b(&[1, 2]), b(&[1, 2]), Value::Null),
            // Text operands fall back to the materialising path.
            (
                Value::Str("ab".into()),
                Value::Str("a".into()),
                Value::Str("b".into()),
            ),
            (Value::Str("ab".into()), b(&[1]), b(&[0xFF])),
            (b(&[1, 2]), Value::Str("a".into()), b(&[0xFF])),
            (Value::Int(12), Value::Int(1), Value::Int(2)),
        ];
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for (x, y, z) in &cases {
            for op in ops {
                let want = compare(op, x, &concat(y.clone(), z.clone()));
                let got = compare_concat(op, x, y, z);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{x} {} {y} || {z}",
                    op.symbol()
                );
            }
        }
    }
}
