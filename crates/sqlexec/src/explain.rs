//! `EXPLAIN`-style plan rendering: a human-readable description of the
//! access paths and join order the planner chose, and `EXPLAIN ANALYZE`,
//! which executes the statement and annotates every plan step with the
//! actual rows, probes, and wall time measured by the executor.

use crate::ast::{Expr, Select, SelectStmt};
use crate::exec::{ExecOptions, Executor, QueryLimits};
use crate::plan::{plan_select_with, Access, ExecError};
use crate::render::render_expr;
use relstore::Database;

/// Render the physical plan for every branch of a statement.
pub fn explain_stmt(db: &Database, stmt: &SelectStmt) -> Result<String, ExecError> {
    render_stmt_plan(db, stmt, None)
}

/// Execute the statement with per-step profiling enabled, then render the
/// physical plan with actual per-step counters (invocations, rows in/out,
/// index probes, predicate evaluations, inclusive wall time) alongside the
/// planner's estimates, followed by a whole-query summary line.
///
/// Subquery blocks that never executed (short-circuited away) render with
/// `actual: never executed`.
pub fn explain_analyze(db: &Database, stmt: &SelectStmt) -> Result<String, ExecError> {
    explain_analyze_with_limits(db, stmt, QueryLimits::none(), ExecOptions::default())
}

/// [`explain_analyze`] under resource limits and options: the profiled
/// execution respects the same deadline / scanned-row budget / cancel
/// token a plain query would, so an `ANALYZE` of a pathological
/// statement cannot run away (the shell's `.timeout`/`.maxrows` knobs
/// and the server's per-query deadline both route through here), and
/// plans and runs under `opts`.
pub fn explain_analyze_with_limits(
    db: &Database,
    stmt: &SelectStmt,
    limits: QueryLimits,
    opts: ExecOptions,
) -> Result<String, ExecError> {
    let exec = Executor::with_options(db, opts);
    exec.set_profiling(true);
    exec.set_limits(limits);
    let t0 = std::time::Instant::now();
    let result = exec.run(stmt)?;
    let elapsed = t0.elapsed();
    let mut out = render_stmt_plan(db, stmt, Some(&exec))?;
    let stats = exec.stats();
    out.push_str(&format!(
        "actual: {} row(s) in {:.3} ms; rows_scanned={} index_probes={} predicate_evals={} subqueries={} limit_aborts={} cancelled={}\n",
        result.rows.len(),
        elapsed.as_secs_f64() * 1e3,
        stats.rows_scanned,
        stats.index_probes,
        stats.predicate_evals,
        stats.subqueries,
        stats.limit_aborts,
        stats.query_cancelled,
    ));
    Ok(out)
}

fn render_stmt_plan(
    db: &Database,
    stmt: &SelectStmt,
    exec: Option<&Executor>,
) -> Result<String, ExecError> {
    let mut out = String::new();
    for (i, branch) in stmt.branches.iter().enumerate() {
        if stmt.branches.len() > 1 {
            out.push_str(&format!("-- branch {} of {}\n", i + 1, stmt.branches.len()));
        }
        explain_select(db, branch, &[], 0, &mut out, exec)?;
    }
    if !stmt.order_by.is_empty() {
        out.push_str("sort: ");
        for (i, k) in stmt.order_by.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            render_expr(&k.expr, &mut out);
            if k.desc {
                out.push_str(" desc");
            }
        }
        out.push('\n');
    }
    Ok(out)
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("    ");
    }
}

fn explain_select(
    db: &Database,
    sel: &Select,
    outer: &[(String, String)],
    depth: usize,
    out: &mut String,
    exec: Option<&Executor>,
) -> Result<(), ExecError> {
    // Prefer the plan the executor actually ran: its residual expressions
    // are the clones whose subquery `Select` addresses key the recorded
    // step stats. Fall back to fresh planning, under the executor's
    // options, for blocks that never ran.
    let plan = match exec.and_then(|e| e.cached_plan(sel)) {
        Some(p) => p,
        None => {
            let opts = exec.map_or_else(ExecOptions::default, |e| e.opts);
            std::sync::Arc::new(plan_select_with(db, sel, outer, &opts)?)
        }
    };
    let actuals = exec.map(|e| e.step_stats(sel));
    for (i, step) in plan.steps.iter().enumerate() {
        indent(out, depth);
        let table = db
            .require(&step.table)
            .map_err(|e| ExecError::exec(e.to_string()))?;
        let rows = table.len();
        out.push_str(&format!(
            "{} {} as {} ({} rows) via ",
            if i == 0 { "scan" } else { "join" },
            step.table,
            step.alias,
            rows
        ));
        match &step.access {
            Access::FullScan => out.push_str("full scan"),
            Access::HashEq { column, key } => {
                let col_name = &table.schema.columns[*column].name;
                out.push_str(&format!("hash join on {col_name} = "));
                render_expr(key, out);
            }
            Access::IndexEq { index, keys } => {
                let ix = &table.indexes()[*index];
                out.push_str(&format!("index {} eq(", ix.name));
                for (j, k) in keys.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    render_expr(k, out);
                }
                out.push(')');
            }
            Access::IndexRange { index, lo, hi } | Access::MergeRange { index, lo, hi } => {
                let ix = &table.indexes()[*index];
                let kind = if matches!(step.access, Access::MergeRange { .. }) {
                    "merge"
                } else {
                    "range"
                };
                out.push_str(&format!("index {} {kind}[", ix.name));
                match lo {
                    Some((e, inc)) => {
                        render_expr(e, out);
                        out.push_str(if *inc { " <=" } else { " <" });
                    }
                    None => out.push_str("-inf <"),
                }
                out.push_str(" .. ");
                match hi {
                    Some((e, inc)) => {
                        render_expr(e, out);
                        out.push_str(if *inc { " >=" } else { " >" });
                    }
                    None => out.push_str("+inf"),
                }
                out.push(']');
            }
        }
        if !step.residuals.is_empty() {
            out.push_str(&format!(" + {} filter(s)", step.residuals.len()));
        }
        out.push_str(&format!(
            " (est {:.1} fetched, {:.1} out)",
            step.est_fetched, step.est_rows
        ));
        if exec.is_some() {
            match actuals.as_ref().and_then(|a| a.as_ref()).map(|a| a[i]) {
                Some(op) => {
                    out.push_str(&format!(
                        " [actual: {} invocation(s), {} in, {} out, {} probes, {} evals, {:.3} ms",
                        op.invocations,
                        op.rows_in,
                        op.rows_out,
                        op.index_probes,
                        op.predicate_evals,
                        op.elapsed_ns as f64 / 1e6,
                    ));
                    // Estimation-quality columns: actual rows per
                    // invocation vs. the planner's per-step estimate.
                    if op.invocations > 0 {
                        let act = op.rows_out as f64 / op.invocations as f64;
                        out.push_str(&format!(
                            ", est={:.1} act={:.1} q={:.2}",
                            step.est_rows,
                            act,
                            crate::plan::qerror(step.est_rows, act),
                        ));
                    }
                    out.push(']');
                }
                None => out.push_str(" [actual: never executed]"),
            }
        }
        out.push('\n');
        // Recurse into subqueries referenced by the residual filters,
        // with this select's aliases visible as their outer context (the
        // executor plans them the same way).
        let mut inner_outer: Vec<(String, String)> = outer.to_vec();
        for t in &sel.from {
            inner_outer.push((t.alias.clone(), t.table.clone()));
        }
        for r in &step.residuals {
            explain_subqueries(db, r, &inner_outer, depth + 1, out, exec)?;
        }
    }
    let mut inner_outer: Vec<(String, String)> = outer.to_vec();
    for t in &sel.from {
        inner_outer.push((t.alias.clone(), t.table.clone()));
    }
    for f in &plan.late_filters {
        indent(out, depth);
        out.push_str("late filter\n");
        explain_subqueries(db, f, &inner_outer, depth + 1, out, exec)?;
    }
    Ok(())
}

fn explain_subqueries(
    db: &Database,
    e: &Expr,
    outer: &[(String, String)],
    depth: usize,
    out: &mut String,
    exec: Option<&Executor>,
) -> Result<(), ExecError> {
    match e {
        Expr::Exists(sel) => {
            indent(out, depth);
            out.push_str("exists subquery:\n");
            explain_select(db, sel, outer, depth + 1, out, exec)
        }
        Expr::ScalarSubquery(sel) => {
            indent(out, depth);
            out.push_str("scalar subquery:\n");
            explain_select(db, sel, outer, depth + 1, out, exec)
        }
        Expr::And(xs) | Expr::Or(xs) => {
            for x in xs {
                explain_subqueries(db, x, outer, depth, out, exec)?;
            }
            Ok(())
        }
        Expr::Not(x) => explain_subqueries(db, x, outer, depth, out, exec),
        Expr::Cmp { lhs, rhs, .. } => {
            explain_subqueries(db, lhs, outer, depth, out, exec)?;
            explain_subqueries(db, rhs, outer, depth, out, exec)
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_sql;
    use relstore::{ColType, TableSchema, Value};

    #[test]
    fn explains_index_choices() {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            "t",
            &[("id", ColType::Int), ("k", ColType::Int)],
        ))
        .unwrap();
        {
            let t = db.table_mut("t").unwrap();
            for i in 0..50 {
                t.insert(vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
            }
            t.create_index("t_id", &["id"]).unwrap();
        }
        let stmt =
            parse_sql("select a.id from t a, t b where a.id = 3 and b.id = a.k order by a.id")
                .unwrap();
        let plan = explain_stmt(&db, &stmt).unwrap();
        assert!(plan.contains("index t_id eq(3)"), "{plan}");
        assert!(plan.contains("index t_id eq(a.k)"), "{plan}");
        assert!(plan.contains("sort: a.id"), "{plan}");
    }

    #[test]
    fn explains_exists_subqueries() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", &[("id", ColType::Int)]))
            .unwrap();
        let stmt =
            parse_sql("select t.id from t where exists (select null from t u where u.id = t.id)")
                .unwrap();
        let plan = explain_stmt(&db, &stmt).unwrap();
        assert!(plan.contains("exists subquery:"), "{plan}");
    }
}
