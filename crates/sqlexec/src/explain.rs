//! `EXPLAIN`-style plan rendering: a human-readable description of the
//! access paths and join order the planner chose, and `EXPLAIN ANALYZE`,
//! which executes the statement and annotates every plan step with the
//! actual rows, probes, and wall time measured by the executor.

use std::sync::Arc;

use crate::ast::{Expr, SelectStmt};
use crate::exec::{ExecOptions, ExecStats, Executor, QueryLimits};
use crate::plan::{Access, ExecError, SelectPlan};
use crate::prepared::Prepared;
use crate::render::render_expr;
use relstore::Database;

/// Render the physical plan for every branch of a statement: the plans a
/// run of it would make before it began.
pub fn explain_stmt(db: &Database, stmt: &SelectStmt) -> Result<String, ExecError> {
    let prepared = Prepared::new(stmt.clone());
    prepared.plan_branches(db, &ExecOptions::default(), &mut ExecStats::default())?;
    render_stmt_plan(db, &prepared, None)
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
    let prepared = Arc::new(Prepared::new(stmt.clone()));
    let t0 = std::time::Instant::now();
    let result = exec.run_prepared(&prepared)?;
    let elapsed = t0.elapsed();
    let mut out = render_stmt_plan(db, &prepared, Some(&exec))?;
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

/// Render the plans in `prepared`'s slots, annotated with the per-step
/// counters of `ran`, the executor that ran them, if any.
fn render_stmt_plan(
    db: &Database,
    prepared: &Prepared,
    ran: Option<&Executor>,
) -> Result<String, ExecError> {
    let stmt = prepared.stmt();
    let mut out = String::new();
    for (i, branch) in stmt.branches.iter().enumerate() {
        if stmt.branches.len() > 1 {
            out.push_str(&format!("-- branch {} of {}\n", i + 1, stmt.branches.len()));
        }
        let plan = prepared
            .plan(branch.ordinal)
            .ok_or_else(|| ExecError::plan(format!("branch {} was not planned", i + 1)))?;
        explain_select(db, plan, 0, &mut out, ran)?;
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

fn explain_select(
    db: &Database,
    plan: &SelectPlan,
    depth: usize,
    out: &mut String,
    ran: Option<&Executor>,
) -> Result<(), ExecError> {
    let actuals = ran.map(|exec| exec.step_stats(plan.ordinal));
    for (i, step) in plan.steps.iter().enumerate() {
        out.push_str(&"    ".repeat(depth));
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
            Access::IndexRange { index, lo, hi } => {
                let ix = &table.indexes()[*index];
                out.push_str(&format!("index {} range[", ix.name));
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
        if let Some(test) = &step.set {
            out.push_str(&format!(
                " + {} in {} ({} keys)",
                table.schema.columns[test.column].name,
                test.keys,
                test.keys.len()
            ));
        }
        if !step.residuals.is_empty() {
            out.push_str(&format!(" + {} filter(s)", step.residuals.len()));
        }
        out.push_str(&format!(
            " (est {:.1} fetched, {:.1} out)",
            step.est_fetched, step.est_rows
        ));
        if ran.is_some() {
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
                    // Estimation-quality columns: rows kept and rows
                    // fetched per invocation vs. the planner's estimates.
                    if op.invocations > 0 {
                        let n = op.invocations as f64;
                        for (label, est, act) in [
                            ("est", step.est_rows, op.rows_out as f64 / n),
                            ("fetched est", step.est_fetched, op.rows_in as f64 / n),
                        ] {
                            out.push_str(&format!(
                                ", {label}={est:.1} act={act:.1} q={:.2}",
                                crate::plan::qerror(est, act),
                            ));
                        }
                    }
                    out.push(']');
                }
                None => out.push_str(" [actual: never executed]"),
            }
        }
        out.push('\n');
        for r in &step.residuals {
            explain_subqueries(db, plan, r, depth + 1, out, ran)?;
        }
    }
    for f in &plan.late_filters {
        out.push_str(&"    ".repeat(depth));
        out.push_str("late filter\n");
        explain_subqueries(db, plan, f, depth + 1, out, ran)?;
    }
    Ok(())
}

/// Render the plan of each subquery in `e`, one of `plan`'s expressions,
/// from `plan`'s subquery plans.
fn explain_subqueries(
    db: &Database,
    plan: &SelectPlan,
    e: &Expr,
    depth: usize,
    out: &mut String,
    ran: Option<&Executor>,
) -> Result<(), ExecError> {
    let (label, sel) = match e {
        Expr::Exists(sel) => ("exists", sel),
        Expr::ScalarSubquery(sel) => ("scalar", sel),
        other => {
            return other
                .operands()
                .try_for_each(|x| explain_subqueries(db, plan, x, depth, out, ran))
        }
    };
    let sub = plan
        .subplans
        .iter()
        .find(|p| p.ordinal == sel.ordinal)
        .ok_or_else(|| ExecError::plan(format!("SELECT block {} has no plan", sel.ordinal)))?;
    out.push_str(&"    ".repeat(depth));
    out.push_str(&format!("{label} subquery:\n"));
    explain_select(db, sub, depth + 1, out, ran)
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
