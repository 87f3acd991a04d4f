//! Query planning: join ordering, index selection, predicate placement.
//!
//! The planner turns one [`Select`] into a left-deep pipeline of
//! [`Step`]s. Each step scans one `FROM` alias, either fully or through an
//! index access path whose probe values may reference the aliases bound by
//! earlier steps (index nested-loop join) or by an outer query
//! (correlated `EXISTS`). Every `WHERE` conjunct is consumed exactly once:
//! as an access-path driver or as a residual filter at the earliest step
//! where all of its referenced aliases are bound.
//!
//! This mirrors what a commercial optimizer does for the paper's queries:
//! the structural joins (`par_id = id`, `dewey_pos BETWEEN …`) become
//! index probes on the join-column indexes the loader creates (§3.1).
//!
//! A join that only filters, such as `X.path_id = P.id and
//! REGEXP_LIKE(P.path, …)` against the tiny `Paths` summary, is not run
//! as a join at all: once the join order is fixed, the planner elides
//! the probed alias and folds its filters into the set of keys they keep
//! ([`KeySet`]), which `X`'s step tests on its own row ([`SetTest`]).

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::ast::{CmpOp, ColumnSlot, Expr, RegexPattern, Select, SelectStmt};
use crate::exec::{filter_rows, ExecOptions, ExecStats};
use relstore::{ColType, Database, RowId, Table, Value};

/// Planner/executor error, classified by lifecycle phase so callers (the
/// engine, the shell, a future network front end) can distinguish "your
/// SQL is wrong" from "your query ran out of budget" from "you cancelled
/// it" without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The SQL text failed to parse ([`crate::Executor::query`] only).
    Parse(String),
    /// Planning failed: unknown table or column, duplicate alias, bad shape.
    Plan(String),
    /// Runtime evaluation failed: bad types, overflow.
    Exec(String),
    /// A resource budget was exceeded (deadline, row budget).
    Limit(String),
    /// The query's [`crate::CancelToken`] fired.
    Cancelled(String),
}

impl ExecError {
    pub fn parse(msg: impl Into<String>) -> ExecError {
        ExecError::Parse(msg.into())
    }

    pub fn plan(msg: impl Into<String>) -> ExecError {
        ExecError::Plan(msg.into())
    }

    pub fn exec(msg: impl Into<String>) -> ExecError {
        ExecError::Exec(msg.into())
    }

    pub fn limit(msg: impl Into<String>) -> ExecError {
        ExecError::Limit(msg.into())
    }

    pub fn cancelled(msg: impl Into<String>) -> ExecError {
        ExecError::Cancelled(msg.into())
    }

    /// The bare message, without the phase prefix.
    pub fn message(&self) -> &str {
        match self {
            ExecError::Parse(m)
            | ExecError::Plan(m)
            | ExecError::Exec(m)
            | ExecError::Limit(m)
            | ExecError::Cancelled(m) => m,
        }
    }

    /// Short lifecycle-phase tag (`parse` / `plan` / `exec` / `limit` /
    /// `cancelled`), for counters and log lines.
    pub fn kind(&self) -> &'static str {
        match self {
            ExecError::Parse(_) => "parse",
            ExecError::Plan(_) => "plan",
            ExecError::Exec(_) => "exec",
            ExecError::Limit(_) => "limit",
            ExecError::Cancelled(_) => "cancelled",
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // The parser's own Display already carries its prefix.
            ExecError::Parse(m) => write!(f, "{m}"),
            ExecError::Plan(m) => write!(f, "plan error: {m}"),
            ExecError::Exec(m) => write!(f, "execution error: {m}"),
            ExecError::Limit(m) => write!(f, "resource limit exceeded: {m}"),
            ExecError::Cancelled(m) => write!(f, "query cancelled: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// How one step reads its table.
#[derive(Debug, Clone)]
pub enum Access {
    /// Scan every row.
    FullScan,
    /// Probe an index with equality on its leading columns. The key
    /// expressions may reference previously bound / outer aliases.
    IndexEq {
        /// Index position within `Table::indexes()`.
        index: usize,
        keys: Vec<Expr>,
    },
    /// Range-scan an index on its first column: seek the lower bound
    /// from where the step's previous probe in this run began, and walk
    /// the sorted keys up to the upper bound. Outer rows arriving in
    /// document order (the Dewey descendant/ancestor windows of the
    /// paper's structural joins) make the whole join one staircase-style
    /// forward pass over the index.
    IndexRange {
        index: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
    },
    /// Hash join on an unindexed column (build side = this table),
    /// probed with the key expression per outer row. The build side is
    /// the table's own derived state (`Table::hash_side`, a one-column
    /// index): built on the first probe of that column and shared by
    /// every later query until the table mutates.
    HashEq { column: usize, key: Expr },
}

impl Access {
    /// The probe keys and bounds the access evaluates per invocation.
    fn exprs(&self) -> impl Iterator<Item = &Expr> {
        let (keys, lo, hi) = match self {
            Access::FullScan => (&[][..], None, None),
            Access::IndexEq { keys, .. } => (&keys[..], None, None),
            Access::HashEq { key, .. } => (std::slice::from_ref(key), None, None),
            Access::IndexRange { lo, hi, .. } => (&[][..], lo.as_ref(), hi.as_ref()),
        };
        keys.iter().chain(lo.into_iter().chain(hi).map(|(e, _)| e))
    }

    /// [`Access::exprs`], mutably.
    fn exprs_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (keys, lo, hi) = match self {
            Access::FullScan => (&mut [][..], None, None),
            Access::IndexEq { keys, .. } => (&mut keys[..], None, None),
            Access::HashEq { key, .. } => (std::slice::from_mut(key), None, None),
            Access::IndexRange { lo, hi, .. } => (&mut [][..], lo.as_mut(), hi.as_mut()),
        };
        let bounds = lo.into_iter().chain(hi).map(|(e, _)| e);
        keys.iter_mut().chain(bounds)
    }
}

/// One pipeline step: bind `alias` by scanning `table` via `access`, then
/// keep rows passing all `residuals` and its `set` test. Every column its
/// expressions read carries its slot.
#[derive(Debug, Clone)]
pub struct Step {
    pub alias: String,
    pub table: String,
    pub access: Access,
    /// The joins elided onto this step, as one test of its row's key
    /// column against the keys they would have kept. It runs on the rows
    /// the residuals keep, where the elided probes ran, so it never does
    /// more work than they did.
    pub set: Option<SetTest>,
    pub residuals: Vec<Expr>,
    /// For a full scan, the residual `REGEXP_LIKE(<text column of this
    /// step's row>, pattern)` the table's path-filter memo answers, as
    /// (residual index, column index).
    pub memo: Option<(usize, usize)>,
    /// Planner's guess at rows the access path fetches per invocation
    /// (compare with `OpStats::rows_in / invocations`).
    pub est_fetched: f64,
    /// Planner's guess at rows surviving the residuals per invocation
    /// (compare with `OpStats::rows_out / invocations`).
    pub est_rows: f64,
}

/// A step's test of its own row against an elided join: the row's
/// `column` must hold one of `keys`.
#[derive(Debug, Clone)]
pub struct SetTest {
    /// The key column, by position in the step's table.
    pub column: usize,
    pub keys: Arc<KeySet>,
}

/// The integer keys of a dimension table's rows that pass the filters of
/// the joins elided onto one column: exactly the keys a probe of the
/// table's unique key would have found and kept. A bitset over
/// `base..base + 64 × bits.len()`.
#[derive(Debug)]
pub struct KeySet {
    /// The dimension table.
    pub table: String,
    /// The folded filters, rendered over the table's own column names.
    filter: String,
    base: i64,
    bits: Vec<u64>,
    len: usize,
}

impl KeySet {
    /// Whether `key` is in the set. NULL and non-integers are not.
    pub fn contains(&self, key: &Value) -> bool {
        let Value::Int(k) = *key else {
            return false;
        };
        let Some(offset) = k
            .checked_sub(self.base)
            .and_then(|d| usize::try_from(d).ok())
        else {
            return false;
        };
        self.bits
            .get(offset / 64)
            .is_some_and(|word| word >> (offset % 64) & 1 == 1)
    }

    /// How many keys the set holds.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The keys of `table`'s rows that `rows` marks, read from integer
    /// column `key`; `None` when they are too sparse for a bitset of at
    /// most one word per table row.
    fn build(table: &Table, key: usize, rows: &[bool], filter: String) -> Option<KeySet> {
        let keys: Vec<i64> = rows
            .iter()
            .enumerate()
            .filter(|(_, kept)| **kept)
            .filter_map(|(rid, _)| match table.row(rid)[key] {
                Value::Int(k) => Some(k),
                _ => None,
            })
            .collect();
        let (base, max) = match (keys.iter().min(), keys.iter().max()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (0, -1),
        };
        let span = usize::try_from(max.checked_sub(base)? + 1).ok()?;
        if span / 64 > table.len() {
            return None;
        }
        let mut bits = vec![0u64; span.div_ceil(64)];
        for k in &keys {
            let offset = (k - base) as usize;
            bits[offset / 64] |= 1 << (offset % 64);
        }
        Some(KeySet {
            table: table.name().to_string(),
            filter,
            base,
            bits,
            len: keys.len(),
        })
    }
}

impl std::fmt::Display for KeySet {
    /// `Table{filter}`, as EXPLAIN prints it.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}{{{}}}", self.table, self.filter)
    }
}

/// A compiled plan for one `SELECT` block, its names resolved: each
/// expression it owns reads its columns by [`ColumnSlot`], and each
/// subquery in them has its plan among `subplans`.
///
/// `Arc`s rather than `Rc`s so a whole plan is `Send + Sync`: the
/// engine's query cache hands one plan to every thread that runs the
/// same query.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    /// The block's [`Select::ordinal`].
    pub ordinal: usize,
    pub steps: Vec<Step>,
    /// Predicates that could not be attached to any step (e.g. referencing
    /// only outer aliases); evaluated once per full binding.
    pub late_filters: Vec<Expr>,
    /// The block's projections, then, when the block is the single branch
    /// of a statement, the statement's computed ORDER BY keys in key
    /// order.
    pub projections: Vec<Expr>,
    /// The plans of the subqueries the expressions above hold, each made
    /// where its expression runs, with the bindings there as its outer
    /// context.
    pub subplans: Vec<Arc<SelectPlan>>,
}

/// What one ORDER BY key of a statement sorts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SortKey {
    /// Output column `i`, which the key names by its alias or column
    /// name (required under a UNION).
    Output(usize),
    /// An expression over the single branch's bindings, evaluated after
    /// its plan's projections.
    Computed,
}

/// Fallback selectivity guesses, used when table statistics are absent
/// (nothing analyzed since the table's last mutation) or when
/// statistics consumption is disabled (`ExecOptions::stats`). They feed
/// the same cost model as measured fractions, so their ordering is what
/// decides: equality < range < regex < everything.
mod sel {
    pub const EQ_UNINDEXED: f64 = 0.1;
    /// A bounded interval (Dewey descendant window): very tight.
    pub const RANGE_TWO_SIDED: f64 = 0.005;
    /// A half-open range: barely selective.
    pub const RANGE_ONE_SIDED: f64 = 0.5;
    pub const REGEX: f64 = 0.05;
    pub const OTHER: f64 = 0.5;
}

/// The cost model's per-unit prices. One invocation of a step's access
/// costs `ROW_COST × rows fetched + PROBE_COST × probe units`. A probe
/// unit is one step of a binary search or of a range cursor's gallop, or
/// one row a full scan tests against the conditions an index would have
/// looked up.
const ROW_COST: f64 = 1.0;
const PROBE_COST: f64 = 1.0;

/// The q-error of one estimate: `max(est, act) / min(est, act)`, both
/// floored at half a row so empty-vs-empty reads as a perfect 1.0
/// instead of dividing by zero. ≥ 1.0 by construction; 1.0 is exact.
pub fn qerror(est: f64, act: f64) -> f64 {
    let e = est.max(0.5);
    let a = act.max(0.5);
    (e / a).max(a / e)
}

/// [`plan_select_with`] under the default options.
pub fn plan_select(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
) -> Result<SelectPlan, ExecError> {
    plan_select_with(db, select, outer, &ExecOptions::default())
}

/// Plan a select given the aliases already bound by outer queries, as
/// (alias, table) pairs in the order the executor binds them, outermost
/// first. Inner FROM aliases shadow same-named outer aliases.
pub fn plan_select_with(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
    opts: &ExecOptions,
) -> Result<SelectPlan, ExecError> {
    let mut bindings = Vec::with_capacity(outer.len());
    for (alias, table) in outer {
        let table = db
            .require(table)
            .map_err(|e| ExecError::plan(e.to_string()))?;
        bindings.push((alias.as_str(), table));
    }
    plan_block(db, select, &bindings, &[], opts, &mut ExecStats::default())
}

/// What each of `stmt`'s ORDER BY keys sorts on, with its DESC flag. A
/// bare name that is an output column's alias or column name sorts on
/// that column; any other key is computed, which only a statement of one
/// branch may have.
pub(crate) fn sort_keys(stmt: &SelectStmt) -> Result<Vec<(SortKey, bool)>, ExecError> {
    let projections = stmt.branches.first().map_or(&[][..], |b| &b.projections);
    let output = |e: &Expr| match e {
        Expr::Column {
            qualifier: None,
            name,
            ..
        } => projections.iter().position(|p| {
            p.alias.as_deref() == Some(name.as_str())
                || matches!(&p.expr, Expr::Column { name: n, .. } if n == name)
        }),
        _ => None,
    };
    stmt.order_by
        .iter()
        .map(|key| match output(&key.expr) {
            Some(i) => Ok((SortKey::Output(i), key.desc)),
            None if stmt.branches.len() > 1 => Err(ExecError::plan(
                "ORDER BY over UNION must reference an output column",
            )),
            None => Ok((SortKey::Computed, key.desc)),
        })
        .collect()
}

/// Plan one block against `outer`, the bindings enclosing queries hold
/// where it runs (outermost first), with `order_keys` resolved after its
/// projections. The filter scans that building key sets runs, and the
/// filter-memo lookups that spare them, count into `work`.
pub(crate) fn plan_block(
    db: &Database,
    select: &Select,
    outer: &[(&str, &Table)],
    order_keys: &[&Expr],
    opts: &ExecOptions,
    work: &mut ExecStats,
) -> Result<SelectPlan, ExecError> {
    for tref in &select.from {
        db.require(&tref.table)
            .map_err(|e| ExecError::plan(e.to_string()))?;
    }
    // Duplicate aliases would make column references ambiguous.
    {
        let mut seen = BTreeSet::new();
        for t in &select.from {
            if !seen.insert(&t.alias) {
                return Err(ExecError::plan(format!("duplicate alias `{}`", t.alias)));
            }
        }
    }
    let ctx = Ctx {
        db,
        select,
        outer,
        opts,
    };

    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        flatten_and(w, &mut conjuncts);
    }
    let mut used = vec![false; conjuncts.len()];

    let order = ctx.choose_order(&conjuncts);

    let mut bound = ctx.visible_outer();
    // The executor's bindings as each step runs: the outer ones, then
    // one per step in plan order.
    let mut scope = outer.to_vec();
    let mut steps: Vec<Step> = Vec::new();
    // Running estimate of the rows driving each step: the product of the
    // preceding steps' cardinalities.
    let mut est_outer = 1.0f64;
    for idx in order {
        let tref = &select.from[idx];
        let alias = tref.alias.as_str();
        let table = db.table(&tref.table).expect("validated above");
        let choice = ctx.choose_access(table, alias, &conjuncts, &used, &bound, est_outer);
        let (access, consumed) = choice.access(table);
        // Range scans over composite indexes can over-approximate (the scan
        // bound is widened to cover key suffixes), so their driving conjuncts
        // are re-checked as residuals. Equality probes are exact.
        let mut residuals = Vec::new();
        if matches!(access, Access::IndexRange { .. }) {
            residuals.extend(consumed.iter().map(|&i| conjuncts[i].clone()));
        }
        for &i in &consumed {
            used[i] = true;
        }
        bound.push(tref.alias.clone());
        scope.push((alias, table));
        // All other conjuncts that become evaluable at this step are
        // residuals: those involving this step's alias, and constants or
        // subqueries that just became fully evaluable (their alias list
        // may be empty). Conjuncts with unqualified columns wait for the
        // full environment (they fall to the late filters, which attach to
        // the last step).
        for (i, c) in conjuncts.iter().enumerate() {
            if used[i] || has_unqualified(c) {
                continue;
            }
            let r = refs(c);
            if r.iter().all(|a| bound.contains(a))
                && (r.iter().any(|a| a == alias) || r.is_empty() || has_subquery(c))
            {
                residuals.push(c.clone());
                used[i] = true;
            }
        }
        est_outer = (est_outer * choice.card).max(1.0);
        steps.push(Step {
            alias: tref.alias.clone(),
            table: tref.table.clone(),
            access,
            set: None,
            residuals,
            est_fetched: choice.fetched,
            est_rows: choice.card,
            memo: None,
        });
    }

    // Whatever conjuncts remain (those referencing no step alias at all,
    // e.g. purely-outer correlation filters or constant predicates) run as
    // late filters — attach to the last step if possible so they at least
    // prune during the scan.
    let mut late = Vec::new();
    for (i, c) in conjuncts.iter().enumerate() {
        if !used[i] {
            late.push(c.clone());
        }
    }
    if let (Some(last), false) = (steps.last_mut(), late.is_empty()) {
        last.residuals.append(&mut late);
    }

    let outputs = select
        .projections
        .iter()
        .map(|p| &p.expr)
        .chain(order_keys.iter().copied());
    if elide_key_joins(db, &mut steps, outputs.clone(), work) {
        let kept: Vec<_> = scope
            .drain(outer.len()..)
            .filter(|(alias, _)| steps.iter().any(|s| s.alias == *alias))
            .collect();
        scope.extend(kept);
    }

    // Resolve every name over the bindings held where it runs: a step's
    // access before its own row is bound, its residuals after, and the
    // late filters, projections and ORDER BY keys over all of them.
    let mut subplans = Vec::new();
    for (depth, step) in steps.iter_mut().enumerate() {
        let at = outer.len() + depth;
        for e in step.access.exprs_mut() {
            ctx.resolve(e, &scope[..at], &mut subplans, work)?;
        }
        for r in &mut step.residuals {
            ctx.resolve(r, &scope[..=at], &mut subplans, work)?;
        }
        if matches!(step.access, Access::FullScan) {
            step.memo = path_memo(&step.residuals, at, scope[at].1);
        }
    }
    for f in &mut late {
        ctx.resolve(f, &scope, &mut subplans, work)?;
    }
    let projections = outputs
        .map(|e| {
            let mut e = e.clone();
            ctx.resolve(&mut e, &scope, &mut subplans, work).map(|()| e)
        })
        .collect::<Result<_, _>>()?;
    Ok(SelectPlan {
        ordinal: select.ordinal,
        steps,
        late_filters: late,
        projections,
        subplans,
    })
}

/// Where the executor reads `qualifier.name` among the bindings `scope`
/// holds, outermost first: in the innermost binding the qualifier names,
/// or, unqualified, the innermost whose table has the column.
fn slot_of(
    qualifier: Option<&str>,
    name: &str,
    scope: &[(&str, &Table)],
) -> Result<ColumnSlot, ExecError> {
    for (binding, (alias, table)) in scope.iter().enumerate().rev() {
        if qualifier.is_some_and(|q| q != *alias) {
            continue;
        }
        match table.schema.col(name) {
            Some(column) => return Ok(ColumnSlot { binding, column }),
            None if qualifier.is_some() => {
                return Err(ExecError::plan(format!(
                    "alias `{alias}` has no column `{name}`"
                )))
            }
            None => {}
        }
    }
    Err(ExecError::plan(match qualifier {
        Some(q) => format!("unknown column `{q}.{name}`"),
        None => format!("unknown column `{name}`"),
    }))
}

/// The residual a full scan's path-filter memo answers, as (residual,
/// column): the first `REGEXP_LIKE` over a text column of the row bound
/// at `at`, the step's own.
fn path_memo(residuals: &[Expr], at: usize, table: &Table) -> Option<(usize, usize)> {
    residuals.iter().enumerate().find_map(|(ri, r)| {
        let Expr::RegexpLike { subject, .. } = r else {
            return None;
        };
        let Expr::Column { slot: Some(s), .. } = **subject else {
            return None;
        };
        let text = table.schema.columns[s.column].ty == ColType::Str;
        (s.binding == at && text).then_some((ri, s.column))
    })
}

/// Elide the joins of `steps` that only filter, each group onto the step
/// whose column probes them. A step `A` is elided onto the column `X.c`
/// of an earlier step `X` when
/// - it probes a one-column index whose keys are unique in the data (so
///   one row or none joins each `X` row) with `A.k = X.c`, both integer
///   columns;
/// - every other expression naming `A` is a residual naming only aliases
///   elided onto the same `X.c` of the same table, built from
///   `REGEXP_LIKE(A.text, pattern)` and `A.col = literal` atoms with AND
///   and OR ([`Pred`]), and there is at least one such residual;
/// - no expression of the block holds a bare column name, which could
///   bind to `A`'s row.
///
/// The group's residuals fold into one [`KeySet`] of the keys of the
/// rows they keep, tested on `X`'s row. `X`'s estimate shrinks by the
/// share of its rows holding such a key, counted on its index on `c`
/// when it has one, else taken as the set's share of the keys. A group
/// that fails a check stays a join. Returns whether any step was elided.
fn elide_key_joins<'e>(
    db: &Database,
    steps: &mut Vec<Step>,
    outputs: impl Iterator<Item = &'e Expr> + Clone,
    work: &mut ExecStats,
) -> bool {
    let unqualified = outputs.clone().any(has_unqualified)
        || steps.iter().flat_map(|s| &s.residuals).any(has_unqualified);
    if unqualified {
        return false;
    }
    // Each candidate's probe, grouped by equal probes.
    let probe_of = |i: usize| -> Option<KeyProbe> {
        let step = &steps[i];
        let Access::IndexEq { index, keys } = &step.access else {
            return None;
        };
        let [Expr::Column {
            qualifier: Some(q),
            name,
            ..
        }] = keys.as_slice()
        else {
            return None;
        };
        let table = db.table(&step.table)?;
        let ix = &table.indexes()[*index];
        let &[key] = ix.key_cols.as_slice() else {
            return None;
        };
        let x = steps[..i].iter().position(|s| s.alias == *q)?;
        let x_table = db.table(&steps[x].table)?;
        let c = x_table.schema.col(name)?;
        let ints = table.schema.columns[key].ty == ColType::Int
            && x_table.schema.columns[c].ty == ColType::Int;
        let probe = KeyProbe {
            x,
            column: c,
            table,
            key,
        };
        (ints && ix.distinct_keys() == table.len()).then_some(probe)
    };
    let mut groups: Vec<(KeyProbe, Vec<usize>)> = Vec::new();
    for i in 0..steps.len() {
        let Some(probe) = probe_of(i) else { continue };
        match groups.iter_mut().find(|(p, _)| *p == probe) {
            Some((_, members)) => members.push(i),
            None => groups.push((probe, vec![i])),
        }
    }

    let mut elided = Vec::new();
    for (probe, members) in groups {
        let KeyProbe {
            x,
            column,
            table,
            key,
        } = probe;
        let aliases: Vec<&str> = members.iter().map(|&m| steps[m].alias.as_str()).collect();
        let names_member = |e: &Expr| refs(e).iter().any(|a| aliases.contains(&a.as_str()));
        let mut others = steps
            .iter()
            .enumerate()
            .filter(|(i, _)| !members.contains(i))
            .flat_map(|(_, s)| &s.residuals);
        if outputs.clone().any(names_member)
            || others.any(names_member)
            || steps.iter().any(|s| s.access.exprs().any(names_member))
        {
            continue;
        }
        let filters: Vec<&Expr> = members.iter().flat_map(|&m| &steps[m].residuals).collect();
        let within = |e: &Expr| {
            let r = refs(e);
            !r.is_empty() && r.iter().all(|a| aliases.contains(&a.as_str()))
        };
        let preds: Option<Vec<Pred>> = filters
            .iter()
            .map(|e| Pred::of(e, &aliases, table).filter(|_| within(e)))
            .collect();
        let Some(preds) = preds.filter(|p| !p.is_empty()) else {
            continue;
        };
        if steps[x].set.is_some() {
            continue;
        }
        let mut rows = vec![true; table.len()];
        for p in &preds {
            for (kept, pass) in rows.iter_mut().zip(p.rows(table, work)) {
                *kept &= pass;
            }
        }
        let Some(keys) = KeySet::build(table, key, &rows, render_filter(&filters)) else {
            continue;
        };
        let x_table = db.table(&steps[x].table).expect("a step's table exists");
        let share = match x_table.indexes().iter().find(|ix| ix.key_cols == [column]) {
            Some(ix) => {
                let rows: usize = ix
                    .entries()
                    .filter(|(k, _)| keys.contains(&k[0]))
                    .map(|(_, rids)| rids.len())
                    .sum();
                rows as f64 / x_table.len().max(1) as f64
            }
            None => keys.len() as f64 / table.len().max(1) as f64,
        };
        let target = &mut steps[x];
        target.est_rows = (target.est_rows * share).max(0.05);
        target.set = Some(SetTest {
            column,
            keys: Arc::new(keys),
        });
        elided.extend(members);
    }
    let mut i = 0;
    steps.retain(|_| {
        i += 1;
        !elided.contains(&(i - 1))
    });
    !elided.is_empty()
}

/// A step's probe `table.key = X.column` of a unique integer key, `X`
/// being the block's step `x`.
#[derive(Clone, Copy)]
struct KeyProbe<'t> {
    x: usize,
    column: usize,
    table: &'t Table,
    key: usize,
}

impl PartialEq for KeyProbe<'_> {
    fn eq(&self, other: &Self) -> bool {
        (self.x, self.column, self.key) == (other.x, other.column, other.key)
            && std::ptr::eq(self.table, other.table)
    }
}

/// `filters`, joined by AND, over their table's own column names: what
/// EXPLAIN prints inside `Table{…}`.
fn render_filter(filters: &[&Expr]) -> String {
    fn strip(e: &mut Expr) {
        match e {
            Expr::Column { qualifier, .. } => *qualifier = None,
            other => other.operands_mut().for_each(strip),
        }
    }
    let mut parts: Vec<Expr> = filters.iter().map(|&e| e.clone()).collect();
    parts.iter_mut().for_each(strip);
    let whole = match parts.len() {
        1 => parts.pop().expect("one filter"),
        _ => Expr::And(parts),
    };
    let mut out = String::new();
    crate::render::render_expr(&whole, &mut out);
    out
}

/// A filter over one row of an elided table that its cached state
/// answers without a join.
enum Pred<'e> {
    /// `REGEXP_LIKE(text column, pattern)`: the table's filter memo.
    Regex(usize, &'e RegexPattern),
    /// `column = literal` of the column's type class: its hash side.
    Eq(usize, &'e Value),
    And(Vec<Pred<'e>>),
    Or(Vec<Pred<'e>>),
}

impl<'e> Pred<'e> {
    /// `e` as a filter on columns of `aliases`, all bound to one row of
    /// `table`, if it has one of the forms above.
    fn of(e: &'e Expr, aliases: &[&str], table: &Table) -> Option<Pred<'e>> {
        let column = |e: &Expr| match e {
            Expr::Column {
                qualifier: Some(q),
                name,
                ..
            } if aliases.contains(&q.as_str()) => table.schema.col(name),
            _ => None,
        };
        match e {
            Expr::RegexpLike { subject, pattern } => {
                let c = column(subject)?;
                (table.schema.columns[c].ty == ColType::Str).then_some(Pred::Regex(c, pattern))
            }
            Expr::Cmp {
                op: CmpOp::Eq,
                lhs,
                rhs,
            } => {
                let (c, v) = match (&**lhs, &**rhs) {
                    (col, Expr::Literal(v)) | (Expr::Literal(v), col) => (column(col)?, v),
                    _ => return None,
                };
                let class = v.col_type().map(type_class);
                (class == Some(type_class(table.schema.columns[c].ty))).then_some(Pred::Eq(c, v))
            }
            Expr::And(xs) => xs
                .iter()
                .map(|x| Pred::of(x, aliases, table))
                .collect::<Option<_>>()
                .map(Pred::And),
            Expr::Or(xs) => xs
                .iter()
                .map(|x| Pred::of(x, aliases, table))
                .collect::<Option<_>>()
                .map(Pred::Or),
            _ => None,
        }
    }

    /// Which of `table`'s rows the filter holds on. A pattern's rows come
    /// from the filter memo, or from one counted scan that fills it.
    fn rows(&self, table: &Table, work: &mut ExecStats) -> Vec<bool> {
        let mark = |rids: &[RowId]| {
            let mut rows = vec![false; table.len()];
            for &rid in rids {
                rows[rid] = true;
            }
            rows
        };
        match self {
            Pred::Regex(c, pattern) => {
                let rids = match table.filter_memo_get(*c, pattern) {
                    Some(rids) => {
                        work.path_memo_hits += 1;
                        rids
                    }
                    None => {
                        work.path_memo_misses += 1;
                        let rids = filter_rows(table, *c, pattern, &mut work.regex, || Ok(()))
                            .map(Arc::new)
                            .expect("an unlimited scan cannot fail");
                        table.filter_memo_insert(*c, pattern, rids.clone());
                        rids
                    }
                };
                mark(&rids)
            }
            Pred::Eq(c, v) => mark(table.hash_side(*c).get(std::slice::from_ref(*v))),
            Pred::And(xs) | Pred::Or(xs) => {
                let and = matches!(self, Pred::And(_));
                let mut rows = vec![and; table.len()];
                for x in xs {
                    for (kept, pass) in rows.iter_mut().zip(x.rows(table, work)) {
                        *kept = if and { *kept && pass } else { *kept || pass };
                    }
                }
                rows
            }
        }
    }
}

/// Coarse type classes for probe compatibility: Int and Float unify
/// (the total order already equates 2 and 2.0); Str does not unify with
/// numbers (SQL would implicitly convert, which an index or hash lookup
/// cannot).
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
enum TypeClass {
    Numeric,
    Text,
    Binary,
    Boolean,
}

fn type_class(ty: relstore::ColType) -> TypeClass {
    match ty {
        relstore::ColType::Int | relstore::ColType::Float => TypeClass::Numeric,
        relstore::ColType::Str => TypeClass::Text,
        relstore::ColType::Bytes => TypeClass::Binary,
        relstore::ColType::Bool => TypeClass::Boolean,
    }
}

/// Does the expression contain an unqualified column reference, here or
/// inside a subquery? Alias tracking cannot see which binding one names,
/// so a conjunct holding one runs once every table is bound, as it would
/// in SQL, where a name binds over the whole FROM list.
fn has_unqualified(e: &Expr) -> bool {
    match e {
        Expr::Column { qualifier, .. } => qualifier.is_none(),
        Expr::Exists(sel) | Expr::ScalarSubquery(sel) => sel
            .projections
            .iter()
            .map(|p| &p.expr)
            .chain(&sel.where_clause)
            .any(has_unqualified),
        other => other.operands().any(has_unqualified),
    }
}

fn flatten_and(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::And(xs) => {
            for x in xs {
                flatten_and(x, out);
            }
        }
        other => out.push(other.clone()),
    }
}

/// Aliases referenced by `e` (free, i.e. not bound inside its subqueries).
fn refs(e: &Expr) -> Vec<String> {
    let mut out = Vec::new();
    e.free_aliases(&mut out);
    out
}

/// Is every alias referenced by `e` either `this` or in `bound`?
fn evaluable(e: &Expr, this: &str, bound: &[String]) -> bool {
    refs(e)
        .iter()
        .all(|a| a == this || bound.iter().any(|b| b == a))
}

/// `expr` is a column of `alias`?
fn col_of<'e>(e: &'e Expr, alias: &str) -> Option<&'e str> {
    match e {
        Expr::Column {
            qualifier: Some(q),
            name,
            ..
        } if q == alias => Some(name),
        _ => None,
    }
}

/// Decompose a conjunct as `alias.col <op> probe` where `probe` does not
/// reference `alias` (flipping the comparison if needed).
fn as_probe<'e>(e: &'e Expr, alias: &str) -> Option<(&'e str, CmpOp, &'e Expr)> {
    if let Expr::Cmp { op, lhs, rhs } = e {
        if let Some(col) = col_of(lhs, alias) {
            if !refs(rhs).iter().any(|a| a == alias) {
                return Some((col, *op, rhs));
            }
        }
        if let Some(col) = col_of(rhs, alias) {
            if !refs(lhs).iter().any(|a| a == alias) {
                return Some((col, op.flip(), lhs));
            }
        }
    }
    None
}

/// Decompose `alias.col BETWEEN lo AND hi` (non-negated) with foreign
/// bounds.
fn as_between<'e>(e: &'e Expr, alias: &str) -> Option<(&'e str, &'e Expr, &'e Expr)> {
    if let Expr::Between {
        expr,
        lo,
        hi,
        negated: false,
    } = e
    {
        if let Some(col) = col_of(expr, alias) {
            let foreign = |x: &Expr| !refs(x).iter().any(|a| a == alias);
            if foreign(lo) && foreign(hi) {
                return Some((col, lo, hi));
            }
        }
    }
    None
}

/// `expr` is a plain literal value?
fn literal_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

/// The alias a correlated (non-literal) bound is driven by.
fn driver_of(e: &Expr) -> Option<String> {
    if literal_of(e).is_some() {
        None
    } else {
        refs(e).into_iter().next()
    }
}

/// What every step of one SELECT block is planned against.
struct Ctx<'a> {
    db: &'a Database,
    select: &'a Select,
    /// The bindings of enclosing queries with their tables, outermost
    /// first.
    outer: &'a [(&'a str, &'a Table)],
    opts: &'a ExecOptions,
}

/// `alias.col = probe`, one of a step's conjuncts.
struct EqConj<'e> {
    col: usize,
    conj: usize,
    probe: &'e Expr,
    /// Fraction of the table one probe returns.
    fraction: f64,
    /// The probe provably shares the column's type class, so an index or
    /// hash lookup finds exactly the rows SQL's comparison keeps.
    exact: bool,
}

/// Every bound a step's conjuncts put on one column.
#[derive(Default)]
struct RangeConj<'e> {
    col: usize,
    lo: bool,
    hi: bool,
    lo_lit: Option<&'e Value>,
    hi_lit: Option<&'e Value>,
    /// Alias a correlated (non-literal) bound references — the table
    /// driving a Dewey window probe.
    driver: Option<String>,
    /// Fraction of the table inside all the bounds.
    fraction: f64,
    /// The bounds an index scan can use, all of the column's type class:
    /// the first `BETWEEN` (conjunct, lo, hi), else the first lower and
    /// the first upper bound (conjunct, bound, inclusive).
    between: Option<(usize, &'e Expr, &'e Expr)>,
    scan_lo: Option<(usize, &'e Expr, bool)>,
    scan_hi: Option<(usize, &'e Expr, bool)>,
}

impl<'e> RangeConj<'e> {
    /// The entry for column `col`, added unbounded if it has none yet.
    fn on<'r>(ranges: &'r mut Vec<RangeConj<'e>>, col: usize) -> &'r mut RangeConj<'e> {
        let at = ranges.iter().position(|r| r.col == col).unwrap_or_else(|| {
            ranges.push(RangeConj {
                col,
                ..RangeConj::default()
            });
            ranges.len() - 1
        });
        &mut ranges[at]
    }

    fn scannable(&self) -> bool {
        self.between.is_some() || self.scan_lo.is_some() || self.scan_hi.is_some()
    }
}

/// One access candidate, before its probe expressions are cloned into an
/// [`Access`].
#[derive(Clone, Copy, Debug)]
enum Choice {
    FullScan,
    /// Equality on every key column of index `index`.
    IndexEq {
        index: usize,
    },
    /// A hash probe through `eqs[eq]`.
    HashEq {
        eq: usize,
    },
    /// A scan of index `index`, whose lead column `ranges[range]` bounds.
    Range {
        index: usize,
        range: usize,
    },
}

/// The planner's decision for one step: the cheapest access candidate,
/// the rows it fetches per invocation, and the rows surviving every
/// conjunct evaluable at the step.
struct StepChoice<'e> {
    choice: Choice,
    fetched: f64,
    card: f64,
    /// `REGEXP_LIKE` filters among the step's conjuncts.
    regexes: usize,
    eqs: Vec<EqConj<'e>>,
    ranges: Vec<RangeConj<'e>>,
}

impl StepChoice<'_> {
    /// The chosen access, and the conjuncts it consumes as drivers.
    fn access(&self, table: &Table) -> (Access, Vec<usize>) {
        let exact_eq = |col: usize| {
            self.eqs
                .iter()
                .find(|e| e.exact && e.col == col)
                .expect("an enumerated index's key columns are covered")
        };
        match self.choice {
            Choice::FullScan => (Access::FullScan, Vec::new()),
            Choice::IndexEq { index } => {
                let key_cols = &table.indexes()[index].key_cols;
                let keys = key_cols
                    .iter()
                    .map(|&c| exact_eq(c).probe.clone())
                    .collect();
                let consumed = key_cols.iter().map(|&c| exact_eq(c).conj).collect();
                (Access::IndexEq { index, keys }, consumed)
            }
            Choice::HashEq { eq } => {
                let e = &self.eqs[eq];
                let access = Access::HashEq {
                    column: e.col,
                    key: e.probe.clone(),
                };
                (access, vec![e.conj])
            }
            Choice::Range { index, range } => {
                let r = &self.ranges[range];
                let mut consumed = Vec::new();
                let (lo, hi) = match r.between {
                    Some((conj, lo, hi)) => {
                        consumed.push(conj);
                        (Some((lo.clone(), true)), Some((hi.clone(), true)))
                    }
                    None => {
                        let mut bound = |b: Option<(usize, &Expr, bool)>| {
                            b.map(|(conj, e, inclusive)| {
                                consumed.push(conj);
                                (e.clone(), inclusive)
                            })
                        };
                        (bound(r.scan_lo), bound(r.scan_hi))
                    }
                };
                (Access::IndexRange { index, lo, hi }, consumed)
            }
        }
    }
}

impl<'a> Ctx<'a> {
    /// The table an alias names: this FROM list first, then the innermost
    /// outer binding.
    fn table_of(&self, alias: &str) -> Option<&'a Table> {
        match self.select.from.iter().find(|t| t.alias == alias) {
            Some(t) => self.db.table(&t.table),
            None => self
                .outer
                .iter()
                .rev()
                .find(|(a, _)| *a == alias)
                .map(|(_, t)| *t),
        }
    }

    /// The outer aliases no alias of this FROM list shadows: those bound
    /// before the block's first step.
    fn visible_outer(&self) -> Vec<String> {
        self.outer
            .iter()
            .filter(|(a, _)| !self.select.from.iter().any(|t| t.alias == *a))
            .map(|(a, _)| a.to_string())
            .collect()
    }

    /// Give every column of `e` its slot among `scope`, the bindings the
    /// executor holds where `e` runs, and plan every subquery in `e`
    /// with `scope` as its outer context, into `subplans`.
    fn resolve(
        &self,
        e: &mut Expr,
        scope: &[(&str, &Table)],
        subplans: &mut Vec<Arc<SelectPlan>>,
        work: &mut ExecStats,
    ) -> Result<(), ExecError> {
        match e {
            Expr::Column {
                qualifier,
                name,
                slot,
            } => {
                *slot = Some(slot_of(qualifier.as_deref(), name, scope)?);
                Ok(())
            }
            Expr::Exists(sel) | Expr::ScalarSubquery(sel) => {
                let plan = plan_block(self.db, sel, scope, &[], self.opts, work)?;
                subplans.push(Arc::new(plan));
                Ok(())
            }
            other => other
                .operands_mut()
                .try_for_each(|x| self.resolve(x, scope, subplans, work)),
        }
    }

    /// Type class of a probe expression, when statically known: literals,
    /// and columns of aliases bound in this FROM list or in an outer query.
    fn probe_class(&self, e: &Expr) -> Option<TypeClass> {
        match e {
            Expr::Literal(v) => v.col_type().map(type_class),
            Expr::Column {
                qualifier: Some(q),
                name,
                ..
            } => {
                let table = self.table_of(q)?;
                let ci = table.schema.col(name)?;
                Some(type_class(table.schema.columns[ci].ty))
            }
            // `a || b`: binary concat stays binary, text concat stays text.
            Expr::Concat(a, b) => {
                let ca = self.probe_class(a)?;
                (self.probe_class(b)? == ca).then_some(ca)
            }
            _ => None,
        }
    }

    /// Join-order selection. For n ≤ `EXHAUSTIVE_LIMIT` aliases, enumerate
    /// every left-deep order and minimize Σ_k Π_{j<k} card_j × fetched_k
    /// (the rows each step's chosen access fetches at its nesting depth);
    /// otherwise greedy by next-step fetched rows. Each placement is priced
    /// by [`Ctx::choose_access`], so a table probed through a Dewey window
    /// or an equality becomes cheap once its driving alias is bound.
    fn choose_order(&self, conjuncts: &[Expr]) -> Vec<usize> {
        const EXHAUSTIVE_LIMIT: usize = 6;
        let n = self.select.from.len();
        let used = vec![false; conjuncts.len()];
        let est = |idx: usize, bound: &[String], est_outer: f64| -> (f64, f64) {
            let tref = &self.select.from[idx];
            let table = self.db.table(&tref.table).expect("validated by caller");
            let c = self.choose_access(table, &tref.alias, conjuncts, &used, bound, est_outer);
            // Regular-expression filters are much costlier per row than
            // comparisons; charge them into the fetch cost so orders that
            // evaluate regexes over fewer rows win.
            (c.fetched * (1.0 + 2.0 * c.regexes as f64), c.card)
        };

        if n <= EXHAUSTIVE_LIMIT {
            let mut best: Option<(f64, Vec<usize>)> = None;
            let mut order: Vec<usize> = Vec::with_capacity(n);
            let mut remaining: Vec<usize> = (0..n).collect();
            /// `(fetched, cardinality)` estimate for placing table `idx`
            /// after the already-bound aliases, driven by `est_outer` rows.
            type EstFn<'a> = dyn Fn(usize, &[String], f64) -> (f64, f64) + 'a;
            #[allow(clippy::too_many_arguments)]
            fn recurse(
                est: &EstFn<'_>,
                select: &Select,
                order: &mut Vec<usize>,
                remaining: &mut Vec<usize>,
                bound: &mut Vec<String>,
                product: f64,
                cost: f64,
                best: &mut Option<(f64, Vec<usize>)>,
            ) {
                if let Some((b, _)) = best {
                    if cost >= *b {
                        return; // prune
                    }
                }
                if remaining.is_empty() {
                    if best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
                        *best = Some((cost, order.clone()));
                    }
                    return;
                }
                for i in 0..remaining.len() {
                    let idx = remaining.remove(i);
                    // Cost pays for the rows the access path fetches at this
                    // nesting depth; downstream fan-out uses the post-filter
                    // cardinality.
                    let (fetched, card) = est(idx, bound, product.max(1.0));
                    let cost2 = cost + product * fetched;
                    let product2 = product * card;
                    order.push(idx);
                    bound.push(select.from[idx].alias.clone());
                    recurse(est, select, order, remaining, bound, product2, cost2, best);
                    bound.pop();
                    order.pop();
                    remaining.insert(i, idx);
                }
            }
            let mut bound = self.visible_outer();
            recurse(
                &est,
                self.select,
                &mut order,
                &mut remaining,
                &mut bound,
                1.0,
                0.0,
                &mut best,
            );
            return best.expect("n ≥ 1 orders enumerated").1;
        }

        // Greedy fallback for wide FROM lists.
        let mut bound = self.visible_outer();
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut out = Vec::with_capacity(n);
        let mut product = 1.0f64;
        while !remaining.is_empty() {
            let (pos, (_, card)) = remaining
                .iter()
                .map(|&idx| est(idx, &bound, product))
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0))
                .expect("non-empty");
            let idx = remaining.remove(pos);
            out.push(idx);
            bound.push(self.select.from[idx].alias.clone());
            product = (product * card).max(1.0);
        }
        out
    }

    /// Choose how step `alias` reads `table` once the aliases in `bound`
    /// are bound, with `est_outer` rows expected to drive it: the
    /// planner's one access-path decision.
    ///
    /// It classifies the step's evaluable conjuncts once, multiplying
    /// their fractions into the step's cardinality, and then enumerates
    /// every access they allow, in the order of the fixed ladder the
    /// planner once climbed: an `IndexEq` per index whose key columns the
    /// equalities cover, a `HashEq` per equality, an `IndexRange` per
    /// index whose lead column is bounded, and a `FullScan`. Only probes
    /// of the column's type class drive an access. Each candidate costs
    /// its fetched rows plus its probe units ([`ROW_COST`],
    /// [`PROBE_COST`]): an equality or hash probe binary-searches in
    /// `log₂ n + 1` steps; a range probe gallops from the step's last
    /// position, and `est_outer` probes spread over `n` keys move about
    /// `n / est_outer` keys each, so it pays `log₂(n / est_outer) + 1`,
    /// never more than a binary search; a full scan tests every row. A
    /// later candidate replaces an earlier one only when strictly
    /// cheaper, so ties keep the ladder's choice.
    ///
    /// Fractions come from the table's statistics when `opts.stats` holds
    /// and they exist: literal equality reads the containing bucket's
    /// rows-per-distinct, a correlated equality the column-wide average
    /// depth, literal range and BETWEEN bounds interpolate cumulative
    /// bucket mass, a correlated two-sided window on a byte column is
    /// `1/driver_rows` of the table when another table drives it and the
    /// measured Dewey prefix fanout when its own table does, and a regex
    /// filter uses the survivor ratio of a scan that already ran over the
    /// table. Otherwise they are the `sel::*` constants, and an indexed
    /// equality uses the index's distinct key count.
    fn choose_access<'e>(
        &self,
        table: &Table,
        alias: &str,
        conjuncts: &'e [Expr],
        used: &[bool],
        bound: &[String],
        est_outer: f64,
    ) -> StepChoice<'e> {
        let rows = table.len().max(1) as f64;
        let stats = if self.opts.stats {
            relstore::stats::lookup(table)
        } else {
            None
        };
        let col_stats = |ci: usize| {
            stats
                .as_ref()
                .and_then(|s| s.columns.get(ci).map(|c| (c, s.rows)))
        };
        // A near-zero (not exact-zero) floor for stats-derived fractions: an
        // out-of-domain literal may honestly estimate empty, but keep cost
        // products totally ordered. A twentieth of a row — matching the
        // final `card.max(0.05)` — so sub-row expectations (e.g. mostly-empty
        // descendant windows) stay visible to the join-order search. The
        // constant fallbacks stay unfloored.
        let floor = 0.05 / rows;
        let mut card = rows;
        let mut regexes = 0usize;
        let mut eqs: Vec<EqConj> = Vec::new();
        let mut ranges: Vec<RangeConj> = Vec::new();

        for (i, c) in conjuncts.iter().enumerate() {
            if used[i]
                || has_unqualified(c)
                || !evaluable(c, alias, bound)
                || !refs(c).iter().any(|a| a == alias)
            {
                continue;
            }
            if let Some((col, op, probe)) = as_probe(c, alias) {
                let Some(ci) = table.schema.col(col) else {
                    card *= if op == CmpOp::Eq {
                        sel::EQ_UNINDEXED
                    } else {
                        sel::OTHER
                    };
                    continue;
                };
                // An index or hash probe compares with the total order,
                // which does not perform SQL's implicit text↔number
                // conversion: only a provably same-class probe is exact.
                let exact =
                    self.probe_class(probe) == Some(type_class(table.schema.columns[ci].ty));
                match op {
                    CmpOp::Eq => {
                        let fraction = match col_stats(ci) {
                            Some((cs, trows)) => {
                                cs.eq_fraction(literal_of(probe), trows).clamp(floor, 1.0)
                            }
                            None => match table.index_on(&[ci]) {
                                Some(ix) => {
                                    (1.0 / ix.distinct_keys().max(1) as f64).max(1.0 / rows)
                                }
                                None => sel::EQ_UNINDEXED,
                            },
                        };
                        card *= fraction;
                        eqs.push(EqConj {
                            col: ci,
                            conj: i,
                            probe,
                            fraction,
                            exact,
                        });
                    }
                    CmpOp::Ne => {
                        card *= match col_stats(ci) {
                            Some((cs, trows)) => {
                                (1.0 - cs.eq_fraction(literal_of(probe), trows)).clamp(floor, 1.0)
                            }
                            None => sel::OTHER,
                        };
                    }
                    CmpOp::Gt | CmpOp::Ge | CmpOp::Lt | CmpOp::Le => {
                        let r = RangeConj::on(&mut ranges, ci);
                        let inclusive = matches!(op, CmpOp::Ge | CmpOp::Le);
                        if matches!(op, CmpOp::Gt | CmpOp::Ge) {
                            r.lo = true;
                            r.lo_lit = r.lo_lit.or(literal_of(probe));
                            if exact && r.scan_lo.is_none() {
                                r.scan_lo = Some((i, probe, inclusive));
                            }
                        } else {
                            r.hi = true;
                            r.hi_lit = r.hi_lit.or(literal_of(probe));
                            if exact && r.scan_hi.is_none() {
                                r.scan_hi = Some((i, probe, inclusive));
                            }
                        }
                        if r.driver.is_none() {
                            r.driver = driver_of(probe);
                        }
                    }
                }
            } else if let Some((col, lo, hi)) = as_between(c, alias) {
                let Some(ci) = table.schema.col(col) else {
                    card *= sel::RANGE_TWO_SIDED;
                    continue;
                };
                let class = Some(type_class(table.schema.columns[ci].ty));
                let exact = self.probe_class(lo) == class && self.probe_class(hi) == class;
                let r = RangeConj::on(&mut ranges, ci);
                r.lo = true;
                r.hi = true;
                r.lo_lit = r.lo_lit.or(literal_of(lo));
                r.hi_lit = r.hi_lit.or(literal_of(hi));
                if r.driver.is_none() {
                    r.driver = driver_of(lo).or_else(|| driver_of(hi));
                }
                if exact && r.between.is_none() {
                    r.between = Some((i, lo, hi));
                }
            } else if let Expr::RegexpLike { subject, pattern } = c {
                // Histograms cannot see into a regex; the survivor set of a
                // scan the executor already ran over this table can.
                let learned = || {
                    let ci = table.schema.col(col_of(subject, alias)?)?;
                    let kept = table.filter_memo_get(ci, pattern)?.len();
                    Some((kept as f64 / rows).clamp(1e-4, 1.0))
                };
                card *= if self.opts.stats {
                    learned().unwrap_or(sel::REGEX)
                } else {
                    sel::REGEX
                };
                regexes += 1;
            } else if let Expr::IsNull { expr, negated } = c {
                card *= match col_of(expr, alias)
                    .and_then(|n| table.schema.col(n))
                    .and_then(col_stats)
                {
                    Some((cs, trows)) => {
                        let nf = cs.nulls as f64 / trows.max(1) as f64;
                        if *negated { 1.0 - nf } else { nf }.clamp(floor, 1.0)
                    }
                    None => sel::OTHER,
                };
            } else {
                card *= sel::OTHER;
            }
        }

        for r in &mut ranges {
            r.fraction = match col_stats(r.col) {
                Some((cs, trows)) => {
                    if r.lo_lit.is_some() || r.hi_lit.is_some() {
                        cs.range_fraction(r.lo_lit, r.hi_lit, trows).max(floor)
                    } else if r.lo && r.hi {
                        // Correlated two-sided window — the Dewey descendant
                        // probe `d BETWEEN a.pos AND a.pos || 0xFF`. Driven
                        // by a *different* table, containment says each probe
                        // matches ~rows/driver_rows of this table (fraction
                        // 1/driver_rows). A self-window's expected size is
                        // the table's own measured Dewey prefix fanout.
                        match r.driver.as_deref().and_then(|a| self.table_of(a)) {
                            Some(dt) if !std::ptr::eq(dt, table) => {
                                (1.0 / dt.len().max(1) as f64).clamp(floor, 1.0)
                            }
                            _ => match cs.prefix_fanout {
                                Some(fan) => ((fan + 1.0) / rows).clamp(floor, 1.0),
                                None => sel::RANGE_TWO_SIDED,
                            },
                        }
                    } else {
                        sel::RANGE_ONE_SIDED
                    }
                }
                None if r.lo && r.hi => sel::RANGE_TWO_SIDED,
                None => sel::RANGE_ONE_SIDED,
            };
            card *= r.fraction;
        }

        // The candidates, in ladder order.
        let descent = rows.log2() + 1.0;
        let gallop = (rows / est_outer.max(1.0)).max(1.0).log2() + 1.0;
        let mut best: Option<(Choice, f64, f64)> = None;
        let mut offer = |choice: Choice, fraction: f64, probe_units: f64| {
            let fetched = rows * fraction;
            let cost = ROW_COST * fetched + PROBE_COST * probe_units;
            if best.is_none_or(|(_, _, b)| cost < b) {
                best = Some((choice, fetched, cost));
            }
        };
        for (index, ix) in table.indexes().iter().enumerate() {
            let covered: Option<f64> = ix
                .key_cols
                .iter()
                .map(|&kc| {
                    eqs.iter()
                        .find(|e| e.exact && e.col == kc)
                        .map(|e| e.fraction)
                })
                .product();
            if let (Some(fraction), false) = (covered, ix.key_cols.is_empty()) {
                offer(Choice::IndexEq { index }, fraction, descent);
            }
        }
        for (eq, e) in eqs.iter().enumerate() {
            if e.exact {
                offer(Choice::HashEq { eq }, e.fraction, descent);
            }
        }
        for (index, ix) in table.indexes().iter().enumerate() {
            let lead = ix.key_cols.first();
            let Some(range) = ranges
                .iter()
                .position(|r| Some(&r.col) == lead && r.scannable())
            else {
                continue;
            };
            offer(
                Choice::Range { index, range },
                ranges[range].fraction,
                gallop,
            );
        }
        offer(Choice::FullScan, 1.0, rows);

        let (choice, fetched, _) = best.expect("a full scan is always a candidate");
        let fetched = fetched.max(0.5);
        StepChoice {
            choice,
            fetched,
            card: card.max(0.05).min(fetched),
            regexes,
            eqs,
            ranges,
        }
    }
}

fn has_subquery(e: &Expr) -> bool {
    match e {
        Expr::Exists(_) | Expr::ScalarSubquery(_) => true,
        other => other.operands().any(has_subquery),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use relstore::{ColType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "A",
            &[("id", ColType::Int), ("x", ColType::Int)],
        ))
        .expect("create");
        db.create_table(TableSchema::new(
            "B",
            &[
                ("id", ColType::Int),
                ("par_id", ColType::Int),
                ("v", ColType::Str),
            ],
        ))
        .expect("create");
        {
            let a = db.table_mut("A").expect("A");
            for i in 0..100 {
                a.insert(vec![Value::Int(i), Value::Int(i % 10)])
                    .expect("row");
            }
            a.create_index("a_id", &["id"]).expect("idx");
        }
        {
            let b = db.table_mut("B").expect("B");
            for i in 0..1000 {
                b.insert(vec![
                    Value::Int(i),
                    Value::Int(i % 100),
                    Value::from(format!("v{i}")),
                ])
                .expect("row");
            }
            b.create_index("b_par", &["par_id"]).expect("idx");
        }
        db
    }

    fn plan(sql: &str) -> SelectPlan {
        let db = db();
        let stmt = parse_sql(sql).expect("parse");
        plan_select(&db, &stmt.branches[0], &[]).expect("plan")
    }

    #[test]
    fn equality_join_uses_index_nested_loop() {
        let p = plan("select B.id from A, B where B.par_id = A.id and A.x = 3");
        assert_eq!(p.steps.len(), 2);
        // A is scanned first (x = 3 filters it), B probed via b_par.
        assert_eq!(&*p.steps[0].alias, "A");
        assert!(matches!(p.steps[1].access, Access::IndexEq { .. }));
        assert!(p.late_filters.is_empty());
    }

    #[test]
    fn every_conjunct_lands_exactly_once() {
        let p = plan("select B.id from A, B where B.par_id = A.id and A.x = 3 and B.v <> 'v1'");
        let total: usize = p
            .steps
            .iter()
            .map(|s| {
                s.residuals.len()
                    + match &s.access {
                        Access::FullScan => 0,
                        Access::IndexEq { keys, .. } => keys.len(),
                        Access::HashEq { .. } => 1,
                        Access::IndexRange { lo, hi, .. } => {
                            lo.is_some() as usize + hi.is_some() as usize
                        }
                    }
            })
            .sum::<usize>()
            + p.late_filters.len();
        assert_eq!(total, 3);
    }

    #[test]
    fn between_uses_range_access() {
        let mut dbx = db();
        dbx.table_mut("B")
            .expect("B")
            .create_index("b_id", &["id"])
            .expect("idx");
        let stmt = parse_sql("select B.id from B where B.id between 10 and 20").expect("parse");
        let p = plan_select(&dbx, &stmt.branches[0], &[]).expect("plan");
        assert!(matches!(p.steps[0].access, Access::IndexRange { .. }));
    }

    #[test]
    fn unknown_table_is_an_error() {
        let dbx = db();
        let stmt = parse_sql("select X.id from X").expect("parse");
        assert!(plan_select(&dbx, &stmt.branches[0], &[]).is_err());
    }

    #[test]
    fn duplicate_alias_is_an_error() {
        let dbx = db();
        let stmt = parse_sql("select T.id from A T, B T").expect("parse");
        assert!(plan_select(&dbx, &stmt.branches[0], &[]).is_err());
    }

    /// Estimate the first FROM table of `sql` against `db`, returning
    /// (fetched, card).
    fn estimate(db: &Database, sql: &str, stats: bool) -> (f64, f64) {
        let stmt = parse_sql(sql).expect("parse");
        let sel = &stmt.branches[0];
        let mut conjuncts = Vec::new();
        if let Some(w) = &sel.where_clause {
            flatten_and(w, &mut conjuncts);
        }
        let used = vec![false; conjuncts.len()];
        let table = db.table(&sel.from[0].table).expect("table");
        let opts = ExecOptions { stats };
        let ctx = Ctx {
            db,
            select: sel,
            outer: &[],
            opts: &opts,
        };
        let c = ctx.choose_access(table, &sel.from[0].alias, &conjuncts, &used, &[], 1.0);
        (c.fetched, c.card)
    }

    #[test]
    fn empty_table_estimates_stay_positive_and_finite() {
        let mut dbx = db();
        dbx.create_table(TableSchema::new(
            "E",
            &[("id", ColType::Int), ("x", ColType::Int)],
        ))
        .expect("create");
        relstore::stats::analyze_db(&dbx);
        for sql in [
            "select E.id from E",
            "select E.id from E where E.x = 7",
            "select E.id from E where E.x between 1 and 5",
        ] {
            let (fetched, card) = estimate(&dbx, sql, true);
            assert!(fetched.is_finite() && fetched >= 0.5, "{sql}: {fetched}");
            assert!(card.is_finite() && card > 0.0, "{sql}: {card}");
            assert!(card <= fetched, "{sql}: card {card} > fetched {fetched}");
        }
    }

    #[test]
    fn one_row_table_equality_estimates_at_most_one_row() {
        let mut dbx = db();
        dbx.create_table(TableSchema::new(
            "O",
            &[("id", ColType::Int), ("x", ColType::Int)],
        ))
        .expect("create");
        dbx.table_mut("O")
            .expect("O")
            .insert(vec![Value::Int(1), Value::Int(42)])
            .expect("row");
        relstore::stats::analyze_db(&dbx);
        let (_, hit) = estimate(&dbx, "select O.id from O where O.x = 42", true);
        assert!(hit > 0.0 && hit <= 1.0, "hit: {hit}");
        // A literal outside the histogram domain reads as near-empty,
        // not as a constant fraction of the table.
        let (_, miss) = estimate(&dbx, "select O.id from O where O.x = 999", true);
        assert!(miss <= hit, "miss {miss} > hit {hit}");
    }

    #[test]
    fn unindexed_range_conjunct_uses_histogram_mass() {
        // B.id is 0..1000 uniform and unindexed: the histogram puts
        // `id >= 900` at ~10% where the constant fallback says 50%.
        let dbx = db();
        relstore::stats::analyze_db(&dbx);
        let (_, with_stats) = estimate(&dbx, "select B.id from B where B.id >= 900", true);
        assert!(
            (50.0..200.0).contains(&with_stats),
            "expected ~100 rows, got {with_stats}"
        );
        let (_, without) = estimate(&dbx, "select B.id from B where B.id >= 900", false);
        assert!(
            (without - sel::RANGE_ONE_SIDED * 1000.0).abs() < 1e-9,
            "constant fallback: {without}"
        );
    }

    #[test]
    fn equality_at_histogram_bucket_boundary() {
        // B.par_id has 100 distinct values × 10 rows each; bucket
        // boundaries land on exact values, and an equality probe there
        // must still read ~rows-per-distinct, not a whole bucket.
        let dbx = db();
        relstore::stats::analyze_db(&dbx);
        for v in [0, 50, 99] {
            let sql = format!("select B.id from B where B.par_id = {v}");
            let (_, card) = estimate(&dbx, &sql, true);
            assert!((2.0..50.0).contains(&card), "par_id = {v}: {card}");
        }
    }

    #[test]
    fn stats_disabled_reproduces_constant_estimates() {
        let dbx = db();
        relstore::stats::analyze_db(&dbx);
        // B.v is unindexed: equality falls back to EQ_UNINDEXED exactly.
        let (_, card) = estimate(&dbx, "select B.id from B where B.v = 'v1'", false);
        assert!(
            (card - sel::EQ_UNINDEXED * 1000.0).abs() < 1e-9,
            "card: {card}"
        );
    }

    /// A Dewey window driven by `D` and a hashable equality on `T.text`
    /// (unindexed) both apply to `T`. `D` has `n` rows; `T` has two
    /// children inside each of their windows, and its `text` takes
    /// `domain` values. The hash probe returns `rows / domain` rows, the
    /// window `rows / n`: the cheaper must run, and `est_fetched` must be
    /// what it fetches.
    fn window_or_hash(n: usize, domain: usize) -> Step {
        let mut db = Database::new();
        for name in ["D", "T"] {
            db.create_table(TableSchema::new(
                name,
                &[
                    ("id", ColType::Int),
                    ("dewey_pos", ColType::Bytes),
                    ("text", ColType::Str),
                ],
            ))
            .expect("create");
        }
        for i in 0..n {
            let key = (i as u16).to_be_bytes();
            let d = db.table_mut("D").expect("D");
            d.insert(vec![
                Value::Int(i as i64),
                Value::Bytes(vec![0, key[0], key[1]]),
                Value::from(format!("t{}", i % domain)),
            ])
            .expect("row");
            for j in 0..2 {
                let t = db.table_mut("T").expect("T");
                t.insert(vec![
                    Value::Int((2 * i + j) as i64),
                    Value::Bytes(vec![0, key[0], key[1], 0, j as u8]),
                    Value::from(format!("t{}", (2 * i + j) % domain)),
                ])
                .expect("row");
            }
        }
        db.table_mut("T")
            .expect("T")
            .create_index("t_dewey", &["dewey_pos"])
            .expect("idx");
        relstore::stats::analyze_db(&db);
        let stmt = parse_sql(
            "select T.id from T where T.text = D.text \
             and T.dewey_pos between D.dewey_pos and D.dewey_pos || x'FF'",
        )
        .expect("parse");
        let outer = [("D".to_string(), "D".to_string())];
        let mut plan = plan_select(&db, &stmt.branches[0], &outer).expect("plan");
        plan.steps.remove(0)
    }

    #[test]
    fn window_or_hash_is_priced_not_ranked() {
        // 8 rows, 8 texts: the hash returns 1 row, the window 2.
        let small = window_or_hash(4, 8);
        assert!(matches!(small.access, Access::HashEq { .. }), "{small:?}");
        assert!((small.est_fetched - 1.0).abs() < 1e-9, "{small:?}");
        // 800 rows, 20 texts: the hash returns 40 rows, the window 2.
        let large = window_or_hash(400, 20);
        assert!(
            matches!(large.access, Access::IndexRange { .. }),
            "{large:?}"
        );
        assert!((large.est_fetched - 2.0).abs() < 1e-9, "{large:?}");
        assert_eq!(large.residuals.len(), 2, "the bound and the equality");
    }

    #[test]
    fn correlated_probe_from_outer_alias() {
        // Planning the EXISTS body with A as an outer alias: B should be
        // probed by index using A.id even though A is not in this FROM.
        let dbx = db();
        let stmt = parse_sql("select B.id from B where B.par_id = A.id").expect("parse");
        let p = plan_select(
            &dbx,
            &stmt.branches[0],
            &[("A".to_string(), "A".to_string())],
        )
        .expect("plan");
        assert!(matches!(p.steps[0].access, Access::IndexEq { .. }));
    }
}
