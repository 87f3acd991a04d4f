//! Query planning: join ordering, index selection, predicate placement.
//!
//! The planner turns one [`Select`] into a left-deep pipeline of
//! [`Step`]s. Each step scans one `FROM` alias, either fully or through a
//! B-tree access path whose probe values may reference the aliases bound by
//! earlier steps (index nested-loop join) or by an outer query
//! (correlated `EXISTS`). Every `WHERE` conjunct is consumed exactly once:
//! as an access-path driver or as a residual filter at the earliest step
//! where all of its referenced aliases are bound.
//!
//! This mirrors what a commercial optimizer does for the paper's queries:
//! all the structural joins (`par_id = id`, `path_id = id`, `dewey_pos
//! BETWEEN …`) become index probes on the join-column indexes the loader
//! creates (§3.1).

use std::collections::BTreeSet;

use crate::ast::{CmpOp, Expr, Select};
use crate::exec::ExecOptions;
use relstore::{Database, Table, Value};

/// Planner/executor error, classified by lifecycle phase so callers (the
/// engine, the shell, a future network front end) can distinguish "your
/// SQL is wrong" from "your query ran out of budget" from "you cancelled
/// it" without string matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The SQL text failed to parse ([`crate::Executor::query`] only).
    Parse(String),
    /// Planning failed: unknown table, duplicate alias, malformed shape.
    Plan(String),
    /// Runtime evaluation failed: bad types, unknown column, overflow.
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
    /// Probe a B-tree index with equality on its leading columns. The key
    /// expressions may reference previously bound / outer aliases.
    IndexEq {
        /// Index position within `Table::indexes()`.
        index: usize,
        keys: Vec<Expr>,
    },
    /// Range-scan a B-tree index on its first column.
    IndexRange {
        index: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
    },
    /// Build-once hash table on an unindexed column, probed with the key
    /// expression per outer row (classic hash join, build side = this
    /// table).
    HashEq { column: usize, key: Expr },
    /// Sort-merge range probe over a flattened B-tree index: the executor
    /// materializes the index once as a sorted array and advances a
    /// monotonic cursor across outer invocations instead of descending
    /// the B-tree per probe. Chosen for two-sided ranges (the Dewey
    /// descendant/ancestor windows of the paper's structural joins) when
    /// both the outer cardinality and this table are large — outer rows
    /// arriving in document order turn the whole join into one
    /// staircase-style forward pass.
    MergeRange {
        index: usize,
        lo: Option<(Expr, bool)>,
        hi: Option<(Expr, bool)>,
    },
}

/// One pipeline step: bind `alias` by scanning `table` via `access`, then
/// keep rows passing all `residuals`.
///
/// `Arc` rather than `Rc` so a whole [`SelectPlan`] is `Send + Sync`:
/// partition workers execute the coordinator's plan directly instead of
/// re-planning per thread.
#[derive(Debug, Clone)]
pub struct Step {
    pub alias: std::sync::Arc<str>,
    pub table: String,
    pub access: Access,
    pub residuals: Vec<Expr>,
    /// Planner's guess at rows the access path fetches per invocation
    /// (compare with `OpStats::rows_in / invocations`).
    pub est_fetched: f64,
    /// Planner's guess at rows surviving the residuals per invocation
    /// (compare with `OpStats::rows_out / invocations`).
    pub est_rows: f64,
}

/// A compiled plan for one `SELECT` block.
#[derive(Debug, Clone)]
pub struct SelectPlan {
    pub steps: Vec<Step>,
    /// Predicates that could not be attached to any step (e.g. referencing
    /// only outer aliases); evaluated once per full binding.
    pub late_filters: Vec<Expr>,
}

/// Fallback selectivity guesses, used when table statistics are absent
/// (nothing analyzed since the table's last mutation) or when
/// statistics consumption is disabled (`ExecOptions::stats`). The
/// absolute values matter less than the ordering: equality < range <
/// regex < everything.
mod sel {
    pub const EQ_UNINDEXED: f64 = 0.1;
    /// A bounded interval (Dewey descendant window): very tight.
    pub const RANGE_TWO_SIDED: f64 = 0.005;
    /// A half-open range: barely selective.
    pub const RANGE_ONE_SIDED: f64 = 0.5;
    pub const REGEX: f64 = 0.05;
    pub const OTHER: f64 = 0.5;
}

/// The q-error of one estimate: `max(est, act) / min(est, act)`, both
/// floored at half a row so empty-vs-empty reads as a perfect 1.0
/// instead of dividing by zero. ≥ 1.0 by construction; 1.0 is exact.
pub fn qerror(est: f64, act: f64) -> f64 {
    let e = est.max(0.5);
    let a = act.max(0.5);
    (e / a).max(a / e)
}

/// How the planner decides between the B-tree range probe and the
/// sort-merge cursor for two-sided ranges. `Auto` applies the cardinality
/// thresholds; the forced modes exist for equivalence tests and A/B
/// benchmarks (`ExecOptions::merge`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeMode {
    #[default]
    Auto,
    ForceOff,
    ForceOn,
}

/// Legacy `Auto` thresholds (used when no statistics exist for the
/// table): a merge cursor only pays off when the outer side re-probes
/// often enough to amortize flattening the index (outer cardinality
/// estimate) and the probed table is big enough that B-tree descents
/// are the dominant cost.
const MERGE_MIN_OUTER: f64 = 32.0;
const MERGE_MIN_TABLE: usize = 256;

/// Decide merge vs. index nested-loop for a two-sided range on `table`,
/// given the planner's estimate of how many outer rows will drive the
/// probe. With statistics available, compare the two strategies' actual
/// cost models: index-NL pays one B-tree descent (`log₂ n + 1`) per
/// outer row; merge pays one flattening pass over the table (`n`) plus
/// one amortized cursor advance per outer row. The legacy constants are
/// the n = 256 corner of the same inequality (crossover at
/// `est_outer = 32`), so un-analyzed tables behave exactly as before.
fn want_merge(table: &Table, two_sided: bool, est_outer: f64, opts: &ExecOptions) -> bool {
    match opts.merge {
        MergeMode::ForceOff => false,
        MergeMode::ForceOn => two_sided,
        MergeMode::Auto => {
            if !two_sided {
                return false;
            }
            let st = if opts.stats {
                relstore::stats::lookup(table)
            } else {
                None
            };
            match st {
                Some(st) => {
                    let n = st.rows.max(1) as f64;
                    est_outer * (n.log2() + 1.0) > n + est_outer
                }
                None => est_outer >= MERGE_MIN_OUTER && table.len() >= MERGE_MIN_TABLE,
            }
        }
    }
}

/// [`plan_select_with`] under the default options.
pub fn plan_select(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
) -> Result<SelectPlan, ExecError> {
    plan_select_with(db, select, outer, &ExecOptions::default())
}

/// Plan a select given the aliases already bound by outer queries
/// (`outer` pairs each alias with its table so probe expressions can be
/// type-checked). Inner FROM aliases shadow same-named outer aliases.
/// Of `opts`, the planner reads `merge` and `stats`.
pub fn plan_select_with(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
    opts: &ExecOptions,
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
    // An inner FROM alias shadows an outer binding: the outer one must not
    // count as pre-bound in this scope.
    let outer: Vec<(String, String)> = outer
        .iter()
        .filter(|(a, _)| !select.from.iter().any(|t| &t.alias == a))
        .cloned()
        .collect();
    let outer = &outer[..];

    let mut conjuncts: Vec<Expr> = Vec::new();
    if let Some(w) = &select.where_clause {
        flatten_and(w, &mut conjuncts);
    }
    let mut used = vec![false; conjuncts.len()];

    // Pick the join order: exhaustive left-deep enumeration for small
    // FROM lists (cost = sum of intermediate-result cardinality products),
    // greedy beyond that.
    let order = choose_order(db, select, &conjuncts, outer, opts.stats);

    let mut bound: Vec<String> = outer.iter().map(|(a, _)| a.clone()).collect();
    let mut steps: Vec<Step> = Vec::new();
    // Running estimate of rows flowing into each step (product of the
    // preceding steps' cardinalities) — drives the merge-join decision.
    let mut est_outer = 1.0f64;
    for idx in order {
        let tref = &select.from[idx];
        let table = db.table(&tref.table).expect("validated above");
        // Estimate before build_step consumes conjuncts from `used`.
        let (est_fetched, est_rows, _) = estimate_access(
            db,
            select,
            outer,
            table,
            &tref.alias,
            &conjuncts,
            &used,
            &bound,
            opts.stats,
        );
        let mut step = build_step(
            db,
            select,
            outer,
            table,
            &tref.table,
            &tref.alias,
            &mut conjuncts,
            &mut used,
            &bound,
            est_outer,
            opts,
        );
        step.est_fetched = est_fetched;
        step.est_rows = est_rows;
        est_outer = (est_outer * est_rows).max(1.0);
        bound.push(tref.alias.clone());
        steps.push(step);
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
    Ok(SelectPlan {
        steps,
        late_filters: late,
    })
}

/// Coarse type classes for hash-join compatibility: Int and Float unify
/// (the total order already equates 2 and 2.0); Str does not unify with
/// numbers (SQL would implicitly convert, which a hash lookup cannot).
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

/// Type class of a probe expression, when statically known: literals, and
/// columns of aliases bound in this FROM list or in an outer query.
fn probe_type_class(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
    e: &Expr,
) -> Option<TypeClass> {
    match e {
        Expr::Literal(v) => v.col_type().map(type_class),
        Expr::Column {
            qualifier: Some(q),
            name,
        } => {
            let table_name = select
                .from
                .iter()
                .find(|t| &t.alias == q)
                .map(|t| t.table.as_str())
                .or_else(|| outer.iter().find(|(a, _)| a == q).map(|(_, t)| t.as_str()))?;
            let table = db.table(table_name)?;
            let ci = table.schema.col(name)?;
            Some(type_class(table.schema.columns[ci].ty))
        }
        // `a || b`: binary concat stays binary, text concat stays text.
        Expr::Concat(a, b) => {
            let ca = probe_type_class(db, select, outer, a)?;
            let cb = probe_type_class(db, select, outer, b)?;
            if ca == cb {
                Some(ca)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Does the expression contain an unqualified column reference? Those are
/// invisible to alias tracking, so conjuncts containing them must only run
/// once every table is bound.
fn has_unqualified(e: &Expr) -> bool {
    match e {
        Expr::Column {
            qualifier: None, ..
        } => true,
        Expr::Column { .. } | Expr::Literal(_) | Expr::CountStar => false,
        Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
            has_unqualified(lhs) || has_unqualified(rhs)
        }
        Expr::Between { expr, lo, hi, .. } => {
            has_unqualified(expr) || has_unqualified(lo) || has_unqualified(hi)
        }
        Expr::And(xs) | Expr::Or(xs) => xs.iter().any(has_unqualified),
        Expr::Not(x) | Expr::IsNull { expr: x, .. } => has_unqualified(x),
        Expr::Concat(a, b) => has_unqualified(a) || has_unqualified(b),
        Expr::RegexpLike { subject, .. } => has_unqualified(subject),
        // Subqueries resolve their own columns at execution time.
        Expr::Exists(_) | Expr::ScalarSubquery(_) => false,
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
        } if q == alias => Some(name),
        _ => None,
    }
}

/// Decompose a conjunct as `alias.col <op> probe` where `probe` does not
/// reference `alias` (flipping the comparison if needed).
fn as_probe<'e>(e: &'e Expr, alias: &str) -> Option<(&'e str, CmpOp, Expr)> {
    if let Expr::Cmp { op, lhs, rhs } = e {
        if let Some(col) = col_of(lhs, alias) {
            if !refs(rhs).iter().any(|a| a == alias) {
                return Some((col, *op, (**rhs).clone()));
            }
        }
        if let Some(col) = col_of(rhs, alias) {
            if !refs(lhs).iter().any(|a| a == alias) {
                return Some((col, op.flip(), (**lhs).clone()));
            }
        }
    }
    None
}

/// Decompose `alias.col BETWEEN lo AND hi` (non-negated) with foreign
/// bounds.
fn as_between<'e>(e: &'e Expr, alias: &str) -> Option<(&'e str, Expr, Expr)> {
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
                return Some((col, (**lo).clone(), (**hi).clone()));
            }
        }
    }
    None
}

/// Join-order selection. For n ≤ `EXHAUSTIVE_LIMIT` aliases, enumerate
/// every left-deep order and minimize Σ_k Π_{j≤k} card_j (the classic
/// cumulative-intermediate-size cost); otherwise greedy by next-step
/// cardinality. The estimates are join-aware: a table probed through a
/// two-sided Dewey range or an indexed equality becomes cheap once its
/// driving alias is bound.
fn choose_order(
    db: &Database,
    select: &Select,
    conjuncts: &[Expr],
    outer: &[(String, String)],
    stats: bool,
) -> Vec<usize> {
    const EXHAUSTIVE_LIMIT: usize = 6;
    let n = select.from.len();
    let used = vec![false; conjuncts.len()];
    let est = |idx: usize, bound: &[String]| -> (f64, f64) {
        let tref = &select.from[idx];
        let table = db.table(&tref.table).expect("validated by caller");
        let (fetched, card, regexes) = estimate_access(
            db,
            select,
            outer,
            table,
            &tref.alias,
            conjuncts,
            &used,
            bound,
            stats,
        );
        // Regular-expression filters are much costlier per row than
        // comparisons; charge them into the fetch cost so orders that
        // evaluate regexes over fewer rows win.
        (fetched * (1.0 + 2.0 * regexes as f64), card)
    };

    if n <= EXHAUSTIVE_LIMIT {
        let mut best: Option<(f64, Vec<usize>)> = None;
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut remaining: Vec<usize> = (0..n).collect();
        /// `(fetched, cardinality)` estimate for placing table `idx`
        /// after the already-bound aliases.
        type EstFn<'a> = dyn Fn(usize, &[String]) -> (f64, f64) + 'a;
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
                let (fetched, card) = est(idx, bound);
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
        let outer_aliases: Vec<String> = outer.iter().map(|(a, _)| a.clone()).collect();
        let mut bound: Vec<String> = outer_aliases.clone();
        recurse(
            &est,
            select,
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
    let mut bound: Vec<String> = outer.iter().map(|(a, _)| a.clone()).collect();
    let mut remaining: Vec<usize> = (0..n).collect();
    let mut out = Vec::with_capacity(n);
    while !remaining.is_empty() {
        let (pos, &idx) = remaining
            .iter()
            .enumerate()
            .min_by(|(_, &a), (_, &b)| {
                est(a, &bound)
                    .0
                    .partial_cmp(&est(b, &bound).0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty");
        out.push(idx);
        bound.push(select.from[idx].alias.clone());
        remaining.remove(pos);
    }
    out
}

/// `expr` is a plain literal value?
fn literal_of(e: &Expr) -> Option<&Value> {
    match e {
        Expr::Literal(v) => Some(v),
        _ => None,
    }
}

/// One column's accumulated range bounds during estimation.
struct RangeEst {
    col: usize,
    lo: bool,
    hi: bool,
    lo_lit: Option<Value>,
    hi_lit: Option<Value>,
    /// Alias a correlated (non-literal) bound references — the table
    /// driving a Dewey window probe.
    driver: Option<String>,
    indexed: bool,
}

/// Cost estimate for scanning `alias` next: `fetched` approximates the
/// rows the chosen access path materializes (mirroring `build_step`'s
/// priority: full-prefix index equality, then an indexed range, then a
/// full scan), `card` the rows surviving all residual filters.
///
/// When statistics exist for the table's current contents (and `stats`
/// holds), selectivities come from equi-depth
/// histograms: literal equality probes read the containing bucket's
/// rows-per-distinct, correlated probes use the column-wide average
/// depth, literal range/BETWEEN bounds interpolate cumulative bucket
/// mass, correlated two-sided windows on byte columns use the measured
/// Dewey prefix fanout, and regex filters use survivor ratios learned
/// from prior scans. Otherwise every selectivity falls back to the
/// fixed `sel::*` constants — the pre-statistics planner.
#[allow(clippy::too_many_arguments)]
fn estimate_access(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
    table: &Table,
    alias: &str,
    conjuncts: &[Expr],
    used: &[bool],
    bound: &[String],
    use_stats: bool,
) -> (f64, f64, usize) {
    let rows = table.len().max(1) as f64;
    let stats = if use_stats {
        relstore::stats::lookup(table)
    } else {
        None
    };
    let col_stats = |ci: usize| {
        stats
            .as_ref()
            .and_then(|s| s.columns.get(ci).map(|c| (c, s.rows)))
    };
    // Resolve an alias (FROM list first, then the outer context) to its
    // table — for sizing the driving side of a correlated window probe.
    let table_of_alias = |a: &str| -> Option<&Table> {
        let name = select
            .from
            .iter()
            .find(|t| t.alias == a)
            .map(|t| t.table.as_str())
            .or_else(|| {
                outer
                    .iter()
                    .find(|(al, _)| al == a)
                    .map(|(_, t)| t.as_str())
            })?;
        db.table(name)
    };
    // The alias a correlated bound expression is driven by.
    let driver_of = |e: &Expr| -> Option<String> {
        if literal_of(e).is_some() {
            None
        } else {
            refs(e).into_iter().next()
        }
    };
    // A near-zero (not exact-zero) floor for stats-derived fractions: an
    // out-of-domain literal may honestly estimate empty, but keep cost
    // products totally ordered. A twentieth of a row — matching the
    // final `card.max(0.05)` — so sub-row expectations (e.g. mostly-empty
    // descendant windows) stay visible to the join-order search. The
    // constant fallbacks stay unfloored so disabling stats reproduces
    // the legacy planner bit-for-bit.
    let floor = 0.05 / rows;
    let mut card = rows;
    let mut regex_filters = 0usize;
    // (column index, selectivity) of equality probes; range bounds per column.
    let mut eq_sels: Vec<(usize, f64)> = Vec::new();
    let mut ranges: Vec<RangeEst> = Vec::new();

    for (i, c) in conjuncts.iter().enumerate() {
        if used[i] || !evaluable(c, alias, bound) {
            continue;
        }
        if !refs(c).iter().any(|a| a == alias) {
            continue;
        }
        if let Some((col, op, probe)) = as_probe(c, alias) {
            let ci = table.schema.col(col);
            match op {
                CmpOp::Eq => {
                    let f = match ci {
                        Some(ci) => match col_stats(ci) {
                            Some((cs, trows)) => {
                                cs.eq_fraction(literal_of(&probe), trows).clamp(floor, 1.0)
                            }
                            None => {
                                if let Some(ix) = table.index_on(&[ci]) {
                                    let d = ix.distinct_keys().max(1) as f64;
                                    (1.0 / d).max(1.0 / rows)
                                } else {
                                    sel::EQ_UNINDEXED
                                }
                            }
                        },
                        None => sel::EQ_UNINDEXED,
                    };
                    if let Some(ci) = ci {
                        eq_sels.push((ci, f));
                    }
                    card *= f;
                }
                CmpOp::Ne => {
                    let f = match ci.and_then(&col_stats) {
                        Some((cs, trows)) => {
                            (1.0 - cs.eq_fraction(literal_of(&probe), trows)).clamp(floor, 1.0)
                        }
                        None => sel::OTHER,
                    };
                    card *= f;
                }
                CmpOp::Gt | CmpOp::Ge | CmpOp::Lt | CmpOp::Le => match ci {
                    Some(ci) => {
                        let indexed = table.index_on(&[ci]).is_some();
                        let is_lo = matches!(op, CmpOp::Gt | CmpOp::Ge);
                        let lit = literal_of(&probe).cloned();
                        let drv = driver_of(&probe);
                        match ranges.iter_mut().find(|r| r.col == ci) {
                            Some(r) => {
                                if is_lo {
                                    r.lo = true;
                                    r.lo_lit = r.lo_lit.take().or(lit);
                                } else {
                                    r.hi = true;
                                    r.hi_lit = r.hi_lit.take().or(lit);
                                }
                                if r.driver.is_none() {
                                    r.driver = drv;
                                }
                            }
                            None => ranges.push(RangeEst {
                                col: ci,
                                lo: is_lo,
                                hi: !is_lo,
                                lo_lit: if is_lo { lit.clone() } else { None },
                                hi_lit: if is_lo { None } else { lit },
                                driver: drv,
                                indexed,
                            }),
                        }
                    }
                    None => card *= sel::OTHER,
                },
            }
        } else if let Some((col, lo, hi)) = as_between(c, alias) {
            match table.schema.col(col) {
                Some(ci) => ranges.push(RangeEst {
                    col: ci,
                    lo: true,
                    hi: true,
                    lo_lit: literal_of(&lo).cloned(),
                    hi_lit: literal_of(&hi).cloned(),
                    driver: driver_of(&lo).or_else(|| driver_of(&hi)),
                    indexed: table.index_on(&[ci]).is_some(),
                }),
                None => card *= sel::RANGE_TWO_SIDED,
            }
        } else if let Expr::RegexpLike { subject, pattern } = c {
            // Histograms cannot see into a regex; the survivor set of a
            // scan the executor already ran over this table can.
            let learned = || {
                let ci = table.schema.col(col_of(subject, alias)?)?;
                let kept = table.filter_memo_get(ci, pattern)?.len();
                Some((kept as f64 / rows).clamp(1e-4, 1.0))
            };
            let f = if use_stats {
                learned().unwrap_or(sel::REGEX)
            } else {
                sel::REGEX
            };
            card *= f;
            regex_filters += 1;
        } else if let Expr::IsNull { expr, negated } = c {
            let f = match col_of(expr, alias)
                .and_then(|n| table.schema.col(n))
                .and_then(col_stats)
            {
                Some((cs, trows)) => {
                    let nf = cs.nulls as f64 / trows.max(1) as f64;
                    if *negated { 1.0 - nf } else { nf }.clamp(floor, 1.0)
                }
                None => sel::OTHER,
            };
            card *= f;
        } else {
            card *= sel::OTHER;
        }
    }

    let mut best_range: Option<f64> = None;
    for r in &ranges {
        let f = match col_stats(r.col) {
            Some((cs, trows)) => {
                if r.lo_lit.is_some() || r.hi_lit.is_some() {
                    cs.range_fraction(r.lo_lit.as_ref(), r.hi_lit.as_ref(), trows)
                        .max(floor)
                } else if r.lo && r.hi {
                    // Correlated two-sided window — the Dewey descendant
                    // probe `d BETWEEN a.pos AND a.pos || 0xFF`. Driven
                    // by a *different* table, containment says each probe
                    // matches ~rows/driver_rows of this table (fraction
                    // 1/driver_rows). A self-window's expected size is
                    // the table's own measured Dewey prefix fanout.
                    let driver = r.driver.as_deref().and_then(table_of_alias);
                    match driver {
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
            None => {
                if r.lo && r.hi {
                    sel::RANGE_TWO_SIDED
                } else {
                    sel::RANGE_ONE_SIDED
                }
            }
        };
        card *= f;
        if r.indexed {
            best_range = Some(best_range.map_or(f, |b: f64| b.min(f)));
        }
    }
    // Best indexed equality access (build_step prefers these).
    let mut eq_best: Option<f64> = None;
    for &(ci, f) in &eq_sels {
        if table.index_on(&[ci]).is_some() {
            eq_best = Some(eq_best.map_or(f, |b: f64| b.min(f)));
        }
    }
    let fetched = if let Some(f) = eq_best {
        rows * f
    } else if let Some(f) = best_range {
        rows * f
    } else if !eq_sels.is_empty() {
        // hash join on an unindexed equality: the build is amortized, the
        // probe returns ~rows × selectivity.
        let f = eq_sels
            .iter()
            .map(|&(_, f)| f)
            .fold(f64::INFINITY, f64::min);
        rows * f
    } else {
        rows
    };
    (
        fetched.max(0.5),
        card.max(0.05).min(fetched.max(0.5)),
        regex_filters,
    )
}

/// Choose the access path for `alias` and attach every now-evaluable
/// conjunct as driver or residual.
#[allow(clippy::too_many_arguments)]
fn build_step(
    db: &Database,
    select: &Select,
    outer: &[(String, String)],
    table: &Table,
    table_name: &str,
    alias: &str,
    conjuncts: &mut [Expr],
    used: &mut [bool],
    bound: &[String],
    est_outer: f64,
    opts: &ExecOptions,
) -> Step {
    // Candidate equality probes: col -> (conjunct idx, probe expr).
    let mut eq_probes: Vec<(usize, usize, Expr)> = Vec::new(); // (col_idx, conj_idx, expr)
    let mut range_probes: Vec<(usize, usize, CmpOp, Expr)> = Vec::new();
    let mut between_probes: Vec<(usize, usize, Expr, Expr)> = Vec::new();

    for (i, c) in conjuncts.iter().enumerate() {
        if used[i] || !evaluable(c, alias, bound) || has_unqualified(c) {
            continue;
        }
        if let Some((col, op, probe)) = as_probe(c, alias) {
            if let Some(ci) = table.schema.col(col) {
                // A B-tree probe compares with the total order, which does
                // not perform SQL's implicit text↔number conversion — only
                // provably same-class probes are exact.
                let compatible = probe_type_class(db, select, outer, &probe)
                    == Some(type_class(table.schema.columns[ci].ty));
                match op {
                    CmpOp::Eq if compatible => eq_probes.push((ci, i, probe)),
                    CmpOp::Eq => {}
                    CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge if compatible => {
                        range_probes.push((ci, i, op, probe))
                    }
                    _ => {}
                }
            }
        } else if let Some((col, lo, hi)) = as_between(c, alias) {
            if let Some(ci) = table.schema.col(col) {
                let cls = Some(type_class(table.schema.columns[ci].ty));
                if probe_type_class(db, select, outer, &lo) == cls
                    && probe_type_class(db, select, outer, &hi) == cls
                {
                    between_probes.push((ci, i, lo, hi));
                }
            }
        }
    }

    // 1. Best composite equality index: the index (over eq-probe columns)
    //    with the longest satisfied prefix.
    let mut access: Option<(Access, Vec<usize>)> = None; // (access, consumed conjuncts)
    let mut best_prefix = 0usize;
    for (ix_pos, ix) in table.indexes().iter().enumerate() {
        let mut keys = Vec::new();
        let mut consumed = Vec::new();
        for &kc in &ix.key_cols {
            if let Some((_, ci_conj, probe)) = eq_probes.iter().find(|(c, _, _)| *c == kc) {
                keys.push(probe.clone());
                consumed.push(*ci_conj);
            } else {
                break;
            }
        }
        if keys.len() == ix.key_cols.len() && keys.len() > best_prefix {
            best_prefix = keys.len();
            access = Some((
                Access::IndexEq {
                    index: ix_pos,
                    keys,
                },
                consumed,
            ));
        }
    }

    // 2. Equality on an unindexed column → hash join (build side = this
    //    table, built once and cached for the whole statement). Only sound
    //    when both sides provably share a type class: SQL's implicit
    //    text↔number conversion cannot be hashed.
    if access.is_none() {
        for (ci, conj, probe) in &eq_probes {
            let build_class = type_class(table.schema.columns[*ci].ty);
            if Some(build_class) == probe_type_class(db, select, outer, probe) {
                access = Some((
                    Access::HashEq {
                        column: *ci,
                        key: probe.clone(),
                    },
                    vec![*conj],
                ));
                break;
            }
        }
    }

    // 3. Range access on an index's first column, from BETWEEN or a pair /
    //    single bound of inequalities.
    if access.is_none() {
        for (ix_pos, ix) in table.indexes().iter().enumerate() {
            let lead = ix.key_cols[0];
            if let Some((_, ci, lo, hi)) = between_probes.iter().find(|(c, ..)| *c == lead) {
                let mk = if want_merge(table, true, est_outer, opts) {
                    Access::MergeRange {
                        index: ix_pos,
                        lo: Some((lo.clone(), true)),
                        hi: Some((hi.clone(), true)),
                    }
                } else {
                    Access::IndexRange {
                        index: ix_pos,
                        lo: Some((lo.clone(), true)),
                        hi: Some((hi.clone(), true)),
                    }
                };
                access = Some((mk, vec![*ci]));
                break;
            }
            let mut lo: Option<(Expr, bool, usize)> = None;
            let mut hi: Option<(Expr, bool, usize)> = None;
            for (c, i, op, probe) in &range_probes {
                if *c != lead {
                    continue;
                }
                match op {
                    CmpOp::Gt => lo = lo.or(Some((probe.clone(), false, *i))),
                    CmpOp::Ge => lo = lo.or(Some((probe.clone(), true, *i))),
                    CmpOp::Lt => hi = hi.or(Some((probe.clone(), false, *i))),
                    CmpOp::Le => hi = hi.or(Some((probe.clone(), true, *i))),
                    _ => {}
                }
            }
            if lo.is_some() || hi.is_some() {
                let mut consumed = Vec::new();
                let two_sided = lo.is_some() && hi.is_some();
                let lo = lo.map(|(e, inc, i)| {
                    consumed.push(i);
                    (e, inc)
                });
                let hi = hi.map(|(e, inc, i)| {
                    consumed.push(i);
                    (e, inc)
                });
                let mk = if want_merge(table, two_sided, est_outer, opts) {
                    Access::MergeRange {
                        index: ix_pos,
                        lo,
                        hi,
                    }
                } else {
                    Access::IndexRange {
                        index: ix_pos,
                        lo,
                        hi,
                    }
                };
                access = Some((mk, consumed));
                break;
            }
        }
    }

    let (access, consumed) = access.unwrap_or((Access::FullScan, Vec::new()));
    // Range scans over composite indexes can over-approximate (the scan
    // bound is widened to cover key suffixes), so their driving conjuncts
    // are re-checked as residuals. Equality probes are exact.
    let mut residuals = Vec::new();
    if matches!(
        access,
        Access::IndexRange { .. } | Access::MergeRange { .. }
    ) {
        for &i in &consumed {
            residuals.push(conjuncts[i].clone());
        }
    }
    for i in &consumed {
        used[*i] = true;
    }

    // All other conjuncts that become evaluable at this step are residuals.
    let bound_plus: Vec<String> = bound
        .iter()
        .cloned()
        .chain(std::iter::once(alias.to_string()))
        .collect();
    for (i, c) in conjuncts.iter().enumerate() {
        if used[i] {
            continue;
        }
        let r = refs(c);
        let all_bound = r.iter().all(|a| bound_plus.iter().any(|b| b == a));
        // Attach here only if this step's alias is involved, or the
        // predicate involves a subquery/constant that just became fully
        // evaluable (r may be empty for constants). Conjuncts with
        // unqualified columns wait for the full environment (they fall to
        // the late filters, which attach to the last step).
        if all_bound
            && !has_unqualified(c)
            && (r.iter().any(|a| a == alias) || r.is_empty() || has_subquery(c))
        {
            residuals.push(c.clone());
            used[i] = true;
        }
    }

    Step {
        alias: std::sync::Arc::from(alias),
        table: table_name.to_string(),
        access,
        residuals,
        // Filled in by `plan_select` from `estimate_access`.
        est_fetched: 0.0,
        est_rows: 0.0,
    }
}

fn has_subquery(e: &Expr) -> bool {
    match e {
        Expr::Exists(_) | Expr::ScalarSubquery(_) => true,
        Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
            has_subquery(lhs) || has_subquery(rhs)
        }
        Expr::Between { expr, lo, hi, .. } => {
            has_subquery(expr) || has_subquery(lo) || has_subquery(hi)
        }
        Expr::And(xs) | Expr::Or(xs) => xs.iter().any(has_subquery),
        Expr::Not(x) | Expr::IsNull { expr: x, .. } => has_subquery(x),
        Expr::Concat(a, b) => has_subquery(a) || has_subquery(b),
        Expr::RegexpLike { subject, .. } => has_subquery(subject),
        _ => false,
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
                        Access::IndexRange { lo, hi, .. } | Access::MergeRange { lo, hi, .. } => {
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
        let alias = sel.from[0].alias.clone();
        let (f, c, _) = estimate_access(db, sel, &[], table, &alias, &conjuncts, &used, &[], stats);
        (f, c)
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
