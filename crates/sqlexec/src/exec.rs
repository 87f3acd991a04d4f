//! SQL execution: expression evaluation (3-valued logic) and the pipeline
//! interpreter for [`SelectPlan`]s. The `UNION` / `DISTINCT` / `ORDER BY`
//! statement tail is in the `tail` submodule, the brute-force reference
//! executor ([`naive_select`]) in `naive`.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use regexlite::MatchCounts;
use relstore::{Database, RowId, Table, Value};

use crate::ast::{ArithOp, CmpOp, ColumnSlot, Expr, RegexPattern, Select, SelectStmt};
use crate::plan::{Access, ExecError, SelectPlan, SortKey, Step};
use crate::prepared::Prepared;

mod naive;
mod tail;
pub use naive::naive_select;
use tail::Collected;
pub use tail::Rows;

/// A query result: named columns and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Rows,
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
    /// Path-filter scans answered from the table's memo (column × pattern
    /// → surviving rows) without touching its rows.
    pub path_memo_hits: u64,
    /// Path-filter scans that had to run and populated the memo.
    pub path_memo_misses: u64,
    /// Probe-side buffer acquisitions that could not be served from the
    /// executor's pools (a steady-state hot loop should stop adding these
    /// after warm-up).
    pub probe_allocs: u64,
    /// Statements aborted by a resource limit (deadline or row budget).
    pub limit_aborts: u64,
    /// Statements aborted by their [`CancelToken`].
    pub query_cancelled: u64,
    /// `REGEXP_LIKE` matches this executor ran, and what they cost.
    pub regex: MatchCounts,
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
    /// Residual predicate evaluations (short-circuited ANDs count what
    /// ran), each set test included.
    pub predicate_evals: u64,
    /// Rows tested against the step's key set ([`Step::set`]), and rows
    /// passing that test.
    pub set_tested: u64,
    pub set_passed: u64,
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
        self.set_tested += other.set_tested;
        self.set_passed += other.set_passed;
        self.elapsed_ns += other.elapsed_ns;
    }
}

/// One block's state for one run, both empty until the block first
/// runs: its steps' counters, and per step the table it reads (looked up
/// by name then) with its range cursor, the index position where the
/// step's last range probe began. Outer rows arriving in key order make
/// each probe's seek a short step forward from there.
#[derive(Default)]
struct BlockRun<'db> {
    stats: Vec<OpStats>,
    steps: Vec<(&'db Table, usize)>,
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
    /// memory budget.
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
    /// the executor tracks).
    fn check_interrupt(&self) -> Result<(), ExecError> {
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

/// Every plan choice a caller may pin, as one value. An [`Executor`]
/// carries it and its planner reads it, so nothing about how a query
/// runs is read from the thread or the process. `Default` is the serving
/// behaviour; tests and benches build the variants they compare.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOptions {
    /// Whether the planner reads table statistics. Off, every fraction
    /// falls back to fixed selectivity constants in the same cost model
    /// (kept so the cost ledger can show what statistics buy).
    pub stats: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions { stats: true }
    }
}

/// Row-emission callback threaded through the nested-loop machinery;
/// returning `Ok(false)` stops the enclosing loops early.
type EmitFn<'a, 'db> =
    dyn FnMut(&Executor<'db>, &mut Vec<Binding<'db>>) -> Result<bool, ExecError> + 'a;

/// One bound row during execution. A plan's expressions read it by its
/// position in the binding stack ([`ColumnSlot::binding`]).
#[derive(Clone, Copy)]
struct Binding<'db> {
    table: &'db Table,
    rid: RowId,
}

/// The SQL executor. Borrow a database, run statements.
pub struct Executor<'db> {
    db: &'db Database,
    opts: ExecOptions,
    stats: RefCell<ExecStats>,
    /// The statement being run, or last run: a subquery's plan is read
    /// from its block's slot there.
    prepared: RefCell<Option<Arc<Prepared>>>,
    /// Top-level plans for the next [`Executor::run`], keyed by the
    /// address of the branch they were made from (the
    /// [`Executor::seed_plans`] shim).
    seeded: RefCell<HashMap<usize, Arc<SelectPlan>>>,
    /// Slot holding the current `COUNT(*)` aggregate while its projection
    /// is evaluated.
    count_result: std::cell::Cell<Option<i64>>,
    /// Per-run state by block ordinal; cleared per run.
    runs: RefCell<Vec<BlockRun<'db>>>,
    /// Pool of probe-row buffers (one live per nested-loop depth);
    /// acquiring past the pool counts into `ExecStats::probe_allocs`.
    row_buf_pool: RefCell<Vec<Vec<RowId>>>,
    /// Scratch composite-key buffer for `IndexEq` probes, reused across
    /// probes instead of a fresh `Vec<Value>` each.
    key_scratch: RefCell<Vec<Value>>,
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
            prepared: RefCell::new(None),
            seeded: RefCell::new(HashMap::new()),
            count_result: std::cell::Cell::new(None),
            runs: RefCell::new(Vec::new()),
            row_buf_pool: RefCell::new(Vec::new()),
            key_scratch: RefCell::new(Vec::new()),
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
            limits.check_interrupt()?;
        } else {
            self.limit_tick.set(tick);
        }
        Ok(())
    }

    /// Force a deadline/cancel poll now.
    fn check_limits_now(&self) -> Result<(), ExecError> {
        if !self.limits_active.get() {
            return Ok(());
        }
        self.limits.borrow().check_interrupt()
    }

    /// Per-step counters of block `ordinal` of the last statement run
    /// (`None` if the block never ran — e.g. a short-circuited subquery).
    /// Slots align with the plan's steps in execution order.
    pub fn step_stats(&self, ordinal: usize) -> Option<Vec<OpStats>> {
        self.runs
            .borrow()
            .get(ordinal)
            .filter(|run| !run.stats.is_empty())
            .map(|run| run.stats.clone())
    }

    /// Visit every (plan, per-step counters) pair the last statement run
    /// recorded, across all executed blocks (branches and subqueries), in
    /// block order, borrowed. Lets callers roll counters up by table —
    /// e.g. "rows examined vs surviving on the `Paths` table" — without
    /// knowing the statement's shape. `f` must not run statements on this
    /// executor.
    pub fn for_each_step(&self, mut f: impl FnMut(&SelectPlan, &[OpStats])) {
        let prepared = self.prepared.borrow();
        let Some(prepared) = prepared.as_deref() else {
            return;
        };
        for (ordinal, run) in self.runs.borrow().iter().enumerate() {
            if let Some(plan) = prepared.plan(ordinal).filter(|_| !run.stats.is_empty()) {
                f(plan, &run.stats);
            }
        }
    }

    /// Plans for the top-level branches of the statement the next
    /// [`Executor::run`] is given, keyed by the address of the branch
    /// each was planned from. A shim for callers that plan branches
    /// themselves before running: it is the only plan map keyed by an
    /// address, it lasts one `run`, and it is ignored unless that
    /// statement is numbered ([`SelectStmt::number_blocks`]), since a
    /// seeded plan's subqueries name their plans by ordinal.
    pub fn seed_plans(&self, snapshot: &HashMap<usize, Arc<SelectPlan>>) {
        self.seeded
            .borrow_mut()
            .extend(snapshot.iter().map(|(k, v)| (*k, v.clone())));
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> ExecStats {
        *self.stats.borrow()
    }

    /// Parse and run a SQL string.
    pub fn query(&self, sql: &str) -> Result<ResultSet, ExecError> {
        let stmt = crate::parser::parse_sql(sql).map_err(|e| ExecError::parse(e.to_string()))?;
        self.run(&stmt)
    }

    /// Prepare a copy of `stmt` and run it ([`Executor::run_prepared`]).
    /// Plans seeded by [`Executor::seed_plans`] for its branches go into
    /// the copy's slots first.
    pub fn run(&self, stmt: &SelectStmt) -> Result<ResultSet, ExecError> {
        let seeded = self.seeded.take();
        let mut copy = stmt.clone();
        let seed = !seeded.is_empty() && is_numbered(&mut copy);
        let prepared = Prepared::new(copy);
        if seed {
            for branch in &stmt.branches {
                if let Some(plan) = seeded.get(&(branch as *const Select as usize)) {
                    prepared.set_plan(plan.clone())?;
                }
            }
        }
        self.run_prepared(&Arc::new(prepared))
    }

    /// Plan each top-level branch of `prepared` whose slot is still
    /// empty ([`Prepared::plan_branches`]) under this executor's options,
    /// counting the work of building the plans' key sets into its
    /// [`ExecStats`].
    pub fn plan(&self, prepared: &Prepared) -> Result<(), ExecError> {
        let mut work = ExecStats::default();
        let planned = prepared.plan_branches(self.db, &self.opts, &mut work);
        let mut stats = self.stats.borrow_mut();
        stats.regex += work.regex;
        stats.path_memo_hits += work.path_memo_hits;
        stats.path_memo_misses += work.path_memo_misses;
        planned
    }

    /// Run a prepared statement, first planning each top-level branch
    /// whose slot is still empty ([`Executor::plan`]). Limit and
    /// cancellation aborts are counted into [`ExecStats`] here, on the
    /// way out.
    pub fn run_prepared(&self, prepared: &Arc<Prepared>) -> Result<ResultSet, ExecError> {
        self.rows_charged.set(0);
        self.limit_tick.set(0);
        self.begin(prepared);
        // Up-front poll so an already-expired deadline or pre-fired token
        // aborts deterministically, even for queries too small to ever
        // reach an in-loop check.
        let result = self
            .check_limits_now()
            .and_then(|()| self.plan(prepared))
            .and_then(|()| self.run_inner(prepared));
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

    /// Make `prepared` the running statement, with fresh per-run state.
    fn begin(&self, prepared: &Arc<Prepared>) {
        *self.prepared.borrow_mut() = Some(prepared.clone());
        let mut runs = self.runs.borrow_mut();
        runs.clear();
        runs.resize_with(prepared.blocks(), BlockRun::default);
    }

    /// Feed per-step estimation quality into the global registry
    /// histogram `sqlexec.plan_qerror` (fixed-point ×100, so 100 = a
    /// perfect estimate). Per-step counters are always recorded —
    /// profiling only gates timing — so this costs one map walk per
    /// statement. Actual rows-per-invocation is compared against the
    /// planner's `est_rows` for the same step.
    fn record_plan_qerror(&self) {
        let reg = obs::Registry::global();
        self.for_each_step(|plan, ops| {
            for (step, op) in plan.steps.iter().zip(ops) {
                if op.invocations == 0 {
                    continue;
                }
                let act = op.rows_out as f64 / op.invocations as f64;
                let q = crate::plan::qerror(step.est_rows, act);
                reg.observe("sqlexec.plan_qerror", (q * 100.0) as u64);
            }
        });
    }

    fn run_inner(&self, prepared: &Prepared) -> Result<ResultSet, ExecError> {
        let stmt = prepared.stmt();
        if stmt.branches.is_empty() {
            return Err(ExecError::exec("statement has no SELECT branch"));
        }
        let multi = stmt.branches.len() > 1;
        // UNION branches must agree on arity, or dedup/sort would index
        // out of bounds across rows of different widths.
        let first = &stmt.branches[0];
        let arity = first.projections.len();
        if stmt.branches.iter().any(|b| b.projections.len() != arity) {
            return Err(ExecError::exec(
                "UNION branches project different numbers of columns",
            ));
        }

        // Each surviving binding appends its cells, borrowed from the
        // tables where it can; the tail copies only the survivors out.
        let keys = prepared.sort_keys()?;
        let width = arity + keys.iter().filter(|(k, _)| *k == SortKey::Computed).count();
        let mut collected = Collected::new(arity, width);
        for branch in &stmt.branches {
            let plan = prepared
                .plan(branch.ordinal)
                .filter(|plan| plan.projections.len() == width)
                .ok_or_else(|| {
                    ExecError::plan("no branch plan with the statement's ORDER BY keys")
                })?;
            self.select_rows(plan, &mut Vec::new(), &mut |exec, env| {
                collected.push(exec, &plan.projections, env)?;
                Ok(true)
            })?;
        }
        let dedup = multi || stmt.branches.iter().any(|b| b.distinct);
        let rows = collected.finish(dedup, keys);

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
        Ok(ResultSet { columns, rows })
    }

    /// Run one planned block, calling `emit` per surviving binding (or
    /// once with the aggregate when the projection is `COUNT(*)`).
    /// `emit` returns `false` to stop early (EXISTS).
    fn select_rows(
        &self,
        plan: &SelectPlan,
        env: &mut Vec<Binding<'db>>,
        emit: &mut EmitFn<'_, 'db>,
    ) -> Result<(), ExecError> {
        match plan.projections.as_slice() {
            [Expr::CountStar] => {
                let mut count: i64 = 0;
                self.exec_steps(plan, 0, env, &mut |_, _| {
                    count += 1;
                    Ok(true)
                })?;
                // Deliver the count through a one-off binding-free emit: the
                // caller reads it via `eval(CountStar)` — we stash it.
                self.count_result.set(Some(count));
                emit(self, env)?;
                self.count_result.set(None);
            }
            ps if ps.iter().any(|p| matches!(p, Expr::CountStar)) => {
                return Err(ExecError::exec("COUNT(*) must be the only projection"));
            }
            _ => {
                self.exec_steps(plan, 0, env, emit)?;
            }
        }
        Ok(())
    }

    /// The plan of block `ordinal` of the running statement, from its
    /// slot: a branch's was stored before the run began, a subquery's
    /// with the plan that holds it.
    fn plan_of(&self, ordinal: usize) -> Result<Arc<SelectPlan>, ExecError> {
        let prepared = self.prepared.borrow();
        prepared
            .as_deref()
            .and_then(|p| p.plan(ordinal))
            .cloned()
            .ok_or_else(|| ExecError::plan(format!("SELECT block {ordinal} has no plan")))
    }

    /// Run the pipeline from step `depth` of `plan` on: fetch the step's
    /// candidate rows, bind each one that passes its residuals and run
    /// the rest below it, calling `emit` once every step is bound. The
    /// step's counters go into `step_stats` and the global `ExecStats` on
    /// *every* exit path — including errors, which once dropped the
    /// counts accumulated before the failure (the EXISTS/scalar-subquery
    /// undercount).
    fn exec_steps(
        &self,
        plan: &SelectPlan,
        depth: usize,
        env: &mut Vec<Binding<'db>>,
        emit: &mut EmitFn<'_, 'db>,
    ) -> Result<bool, ExecError> {
        let Some(step) = plan.steps.get(depth) else {
            if !plan.late_filters.is_empty() {
                let mut evals = 0u64;
                let pass = self.holds_all(&plan.late_filters, None, env, &mut evals);
                self.stats.borrow_mut().predicate_evals += evals;
                if !pass? {
                    return Ok(true);
                }
            }
            return emit(self, env);
        };

        let table = self.step_table(plan, depth)?;
        let t0 = self.profiling.get().then(std::time::Instant::now);
        let mut local = OpStats {
            invocations: 1,
            ..OpStats::default()
        };
        // Candidate row ids go into a pooled buffer, returned to the pool
        // on every exit path.
        let mut probe_rows = self.take_row_buf();
        let result = self
            .fill_probe_rows(plan, depth, table, env, &mut local, &mut probe_rows)
            .and_then(|memo_skip| {
                for &rid in &probe_rows {
                    local.rows_in += 1;
                    env.push(Binding { table, rid });
                    // The residual the path-filter memo answered is skipped.
                    let row = self.charge_rows(1).and_then(|()| {
                        let residuals = &step.residuals;
                        if !self.holds_all(residuals, memo_skip, env, &mut local.predicate_evals)? {
                            return Ok(true);
                        }
                        if let Some(test) = &step.set {
                            local.set_tested += 1;
                            local.predicate_evals += 1;
                            if !test.keys.contains(&table.row(rid)[test.column]) {
                                return Ok(true);
                            }
                            local.set_passed += 1;
                        }
                        local.rows_out += 1;
                        self.exec_steps(plan, depth + 1, env, emit)
                    });
                    env.pop();
                    if row != Ok(true) {
                        return row;
                    }
                }
                Ok(true)
            });
        self.put_row_buf(probe_rows);
        if let Some(t0) = t0 {
            local.elapsed_ns = t0.elapsed().as_nanos() as u64;
        }
        self.runs.borrow_mut()[plan.ordinal].stats[depth].absorb(&local);
        {
            let mut stats = self.stats.borrow_mut();
            stats.rows_scanned += local.rows_in;
            stats.index_probes += local.index_probes;
            stats.predicate_evals += local.predicate_evals;
        }
        result
    }

    /// The table step `depth` of `plan` reads. A block's tables are
    /// looked up by name once per run, when it first runs, with its
    /// counters' slots.
    fn step_table(&self, plan: &SelectPlan, depth: usize) -> Result<&'db Table, ExecError> {
        let mut runs = self.runs.borrow_mut();
        let run = &mut runs[plan.ordinal];
        if run.steps.is_empty() {
            run.steps = plan
                .steps
                .iter()
                .map(|s| match self.db.table(&s.table) {
                    Some(table) => Ok((table, 0)),
                    None => Err(ExecError::exec(format!("no such table `{}`", s.table))),
                })
                .collect::<Result<_, _>>()?;
            run.stats = vec![OpStats::default(); plan.steps.len()];
        }
        Ok(run.steps[depth].0)
    }

    /// Materialize the candidate rows for one invocation of step `depth`
    /// of `plan`, over `table`. Returns the index of a residual already
    /// answered by the path-filter memo (so the row loop skips it), if
    /// any.
    fn fill_probe_rows(
        &self,
        plan: &SelectPlan,
        depth: usize,
        table: &'db Table,
        env: &mut Vec<Binding<'db>>,
        local: &mut OpStats,
        probe_rows: &mut Vec<RowId>,
    ) -> Result<Option<usize>, ExecError> {
        let step = &plan.steps[depth];
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
                    probe_rows.extend_from_slice(side.get(std::slice::from_ref(&*k)));
                }
            }
            Access::IndexEq { index, keys } => {
                let ix = &table.indexes()[*index];
                if let [key] = keys.as_slice() {
                    // A one-column key is probed where it lives: in the
                    // outer row's cells or in the plan.
                    let k = self.operand(key, env)?;
                    if !k.is_null() {
                        local.index_probes += 1;
                        probe_rows.extend_from_slice(ix.get(std::slice::from_ref(&*k)));
                    }
                    return Ok(None);
                }
                // A composite key is probed through the reusable scratch
                // key buffer instead of a fresh Vec<Value> per probe; a
                // NULL component matches nothing.
                let mut key_vals = self.key_scratch.take();
                if key_vals.capacity() < keys.len() {
                    self.stats.borrow_mut().probe_allocs += 1;
                }
                let mut complete = Ok(true);
                for k in keys {
                    match self.eval(k, env) {
                        Ok(v) if !v.is_null() => key_vals.push(v),
                        other => {
                            complete = other.map(|_| false);
                            break;
                        }
                    }
                }
                if complete == Ok(true) {
                    local.index_probes += 1;
                    probe_rows.extend_from_slice(ix.get(&key_vals));
                }
                key_vals.clear();
                self.key_scratch.replace(key_vals);
                complete?;
            }
            Access::IndexRange { index, lo, hi } => {
                let ix = &table.indexes()[*index];
                if let Some((lo_v, hi_v)) =
                    self.prepare_bounds(lo, hi, ix.key_cols.len() > 1, env)?
                {
                    local.index_probes += 1;
                    let mut runs = self.runs.borrow_mut();
                    let cursor = &mut runs[plan.ordinal].steps[depth].1;
                    *cursor = ix.seek(bound_of(&lo_v), *cursor);
                    for rids in ix.walk(*cursor, bound_of(&hi_v)) {
                        probe_rows.extend_from_slice(rids);
                    }
                }
            }
        }
        Ok(None)
    }

    /// Evaluate range endpoint expressions against the current bindings.
    /// A column or literal endpoint is borrowed, not copied. Returns
    /// `None` when the probe selects nothing (a NULL bound, or an
    /// inverted interval). For composite indexes an inclusive upper bound
    /// on the leading column is widened to cover key suffixes: scan up to
    /// (but excluding) the successor of the bound value; if no successor
    /// exists, fall back to unbounded — the driving conjuncts are
    /// re-checked as residuals, so a superset is always safe.
    fn prepare_bounds<'e>(
        &self,
        lo: &'e Option<(Expr, bool)>,
        hi: &'e Option<(Expr, bool)>,
        composite: bool,
        env: &mut Vec<Binding<'db>>,
    ) -> Result<Option<(RangeEnd<'e>, RangeEnd<'e>)>, ExecError>
    where
        'db: 'e,
    {
        // `None` for a NULL bound: a comparison with NULL selects nothing.
        let mut end = |bound: &'e Option<(Expr, bool)>| match bound {
            Some((e, inc)) => {
                let v = self.operand(e, env)?;
                Ok((!v.is_null()).then_some(Some((v, *inc))))
            }
            None => Ok(Some(None)),
        };
        let Some(lo_v) = end(lo)? else {
            return Ok(None);
        };
        let Some(hi_v) = end(hi)? else {
            return Ok(None);
        };
        if let (Some((l, l_inc)), Some((h, h_inc))) = (&lo_v, &hi_v) {
            match l.cmp_total(h) {
                std::cmp::Ordering::Greater => return Ok(None),
                std::cmp::Ordering::Equal if !(*l_inc && *h_inc) => return Ok(None),
                _ => {}
            }
        }
        let hi_v = match hi_v {
            Some((v, true)) if composite => value_successor(&v).map(|s| (Cow::Owned(s), false)),
            other => other,
        };
        Ok(Some((lo_v, hi_v)))
    }

    /// Answer a full scan from the path-filter memo when the plan says
    /// one of its residuals is `REGEXP_LIKE(<this step's text column>,
    /// pattern)` ([`Step::memo`]). On a hit `probe_rows` receives the
    /// surviving rows without touching the table; on a miss the filtering
    /// scan runs here (once) and populates the memo. Either way the
    /// residual's index is returned so the row loop skips re-evaluating
    /// it. `None` when the step has no such residual — the plain full
    /// scan runs.
    fn probe_path_memo(
        &self,
        step: &Step,
        table: &'db Table,
        local: &mut OpStats,
        probe_rows: &mut Vec<RowId>,
    ) -> Result<Option<usize>, ExecError> {
        let Some((ri, ci)) = step.memo else {
            return Ok(None);
        };
        let Expr::RegexpLike { pattern, .. } = &step.residuals[ri] else {
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
        let mut counts = MatchCounts::default();
        let out = filter_rows(table, ci, pattern, &mut counts, || self.charge_rows(1));
        self.stats.borrow_mut().regex += counts;
        out
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

    /// Whether every filter but the one at `skip` holds on `env`,
    /// stopping at the first that does not; each one evaluated counts
    /// into `evals`.
    fn holds_all(
        &self,
        filters: &[Expr],
        skip: Option<usize>,
        env: &mut Vec<Binding<'db>>,
        evals: &mut u64,
    ) -> Result<bool, ExecError> {
        for (i, f) in filters.iter().enumerate() {
            if skip != Some(i) {
                *evals += 1;
                if self.eval_truth(f, env)? != Some(true) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

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
            Expr::Column { name, slot, .. } => cell(*slot, name, env).cloned(),
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
                self.select_rows(&*self.plan_of(sub.ordinal)?, env, &mut |_, _| {
                    found = true;
                    Ok(false) // stop at first row
                })?;
                Ok(Value::Bool(found))
            }
            Expr::ScalarSubquery(sub) => {
                self.stats.borrow_mut().subqueries += 1;
                let plan = self.plan_of(sub.ordinal)?;
                let [proj] = plan.projections.as_slice() else {
                    return Err(ExecError::exec(
                        "scalar subquery must project exactly one column",
                    ));
                };
                let mut result: Option<Value> = None;
                let mut count = 0usize;
                self.select_rows(&plan, env, &mut |exec, env2| {
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
                Value::Str(s) => Ok(Value::Bool(
                    pattern.is_match_counted(s, &mut self.stats.borrow_mut().regex),
                )),
                other => Err(ExecError::exec(format!(
                    "REGEXP_LIKE subject must be text, got {other}"
                ))),
            },
            Expr::Concat(a, b) => {
                let av = self.operand(a, env)?;
                let bv = self.operand(b, env)?;
                Ok(concat(&av, &bv))
            }
            Expr::Arith { op, lhs, rhs } => {
                let a = self.eval(lhs, env)?;
                let b = self.eval(rhs, env)?;
                arith(*op, &a, &b)
            }
            Expr::IsNull { expr, negated } => {
                let isnull = self.operand(expr, env)?.is_null();
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
            Expr::Column { name, slot, .. } => cell(*slot, name, env).map(Cow::Borrowed),
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
}

/// The cell a column reads through its planner-given slot. A column the
/// planner did not resolve is never looked up by name.
fn cell<'db>(
    slot: Option<ColumnSlot>,
    name: &str,
    env: &[Binding<'db>],
) -> Result<&'db Value, ExecError> {
    slot.and_then(|ColumnSlot { binding, column }| {
        let b = env.get(binding)?;
        b.table.row(b.rid).get(column)
    })
    .ok_or_else(|| ExecError::plan(format!("column `{name}` has no slot in the running plan")))
}

// ----- helpers -----

/// The rows of `table` whose text column `ci` matches `pattern`, in row
/// order, the matches' work counted into `counts`. `each_row` runs before
/// each row is tested, and its error stops the scan.
pub(crate) fn filter_rows(
    table: &Table,
    ci: usize,
    pattern: &RegexPattern,
    counts: &mut MatchCounts,
    mut each_row: impl FnMut() -> Result<(), ExecError>,
) -> Result<Vec<RowId>, ExecError> {
    let mut out = Vec::new();
    for (rid, row) in table.rows() {
        each_row()?;
        // NULLs never match (three-valued logic rejects the row).
        if let Value::Str(s) = &row[ci] {
            if pattern.is_match_counted(s, counts) {
                out.push(rid);
            }
        }
    }
    Ok(out)
}

/// Whether every block of `stmt` carries the ordinal
/// [`SelectStmt::number_blocks`] would give it (the walk is the mutable
/// one numbering uses; it changes nothing).
fn is_numbered(stmt: &mut SelectStmt) -> bool {
    let mut next = 0;
    let mut numbered = true;
    stmt.for_each_block_mut(&mut |sel| {
        numbered &= sel.ordinal == next;
        next += 1;
    });
    numbered
}

/// An evaluated range endpoint: the key value (borrowed from its row or
/// the plan when it is a column or literal) plus inclusivity; `None`
/// means unbounded on that side.
type RangeEnd<'a> = Option<(Cow<'a, Value>, bool)>;

/// Borrow a range endpoint as an index bound — no key copy.
fn bound_of<'a>(end: &'a RangeEnd<'_>) -> Bound<&'a Value> {
    match end {
        None => Bound::Unbounded,
        Some((v, true)) => Bound::Included(&**v),
        Some((v, false)) => Bound::Excluded(&**v),
    }
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
fn concat(a: &Value, b: &Value) -> Value {
    match (a, b) {
        (Value::Null, _) | (_, Value::Null) => Value::Null,
        (Value::Bytes(x), Value::Bytes(y)) => {
            let mut xy = Vec::with_capacity(x.len() + y.len());
            xy.extend_from_slice(x);
            xy.extend_from_slice(y);
            Value::Bytes(xy)
        }
        (a, b) => {
            let mut s = display_raw(a);
            s.push_str(&display_raw(b));
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
        _ => compare(op, x, &concat(y, z)),
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

#[cfg(test)]
mod tests {
    use super::{compare, compare_concat, concat};
    use crate::ast::CmpOp;
    use relstore::Value;

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
                let want = compare(op, x, &concat(y, z));
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
