//! Regression tests for per-step profiling (`OpStats`) and for the
//! ExecStats undercount fixed alongside it: counters must survive error
//! exits, probes must be counted only when a probe is actually performed,
//! and nested-loop / subquery rescans must be visible per step.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{explain_analyze, parse_sql, ExecStats, Executor};

fn two_table_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t",
        &[("id", ColType::Int), ("k", ColType::Int)],
    ))
    .unwrap();
    {
        let t = db.table_mut("t").unwrap();
        for i in 0..rows {
            t.insert(vec![Value::Int(i), Value::Int(i % 5)]).unwrap();
        }
        t.create_index("t_id", &["id"]).unwrap();
    }
    db
}

#[test]
fn stats_survive_scalar_subquery_error() {
    // The scalar subquery matches 5 rows for k = 0, so it errors after
    // scanning some of them. Before the fix, the `?` propagation dropped
    // every counter accumulated inside the failing block.
    let db = two_table_db(25);
    let stmt =
        parse_sql("select a.id from t a where a.id = (select u.id from t u where u.k = a.k)")
            .unwrap();
    let exec = Executor::new(&db);
    let err = exec.run(&stmt).expect_err("scalar subquery must error");
    assert!(err.message().contains("more than one row"), "{err}");
    let stats = exec.stats();
    assert!(
        stats.rows_scanned > 0,
        "rows scanned before the error must be counted: {stats:?}"
    );
    assert!(
        stats.predicate_evals > 0,
        "predicate evals before the error must be counted: {stats:?}"
    );
    assert_eq!(stats.subqueries, 1);
}

#[test]
fn probes_counted_inside_correlated_exists() {
    let db = two_table_db(20);
    let stmt =
        parse_sql("select a.id from t a where exists (select null from t b where b.id = a.k)")
            .unwrap();
    let exec = Executor::new(&db);
    let rs = exec.run(&stmt).unwrap();
    assert_eq!(rs.rows.len(), 20);
    let stats = exec.stats();
    // One EXISTS execution per outer row, each performing one index probe.
    assert_eq!(stats.subqueries, 20);
    assert!(
        stats.index_probes >= 20,
        "each correlated EXISTS rescan probes the index: {stats:?}"
    );
}

#[test]
fn null_key_probe_is_not_counted() {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t",
        &[("id", ColType::Int), ("k", ColType::Int)],
    ))
    .unwrap();
    {
        let t = db.table_mut("t").unwrap();
        for i in 0..4 {
            // k is NULL everywhere: every join-key evaluation yields NULL.
            t.insert(vec![Value::Int(i), Value::Null]).unwrap();
        }
    }
    let stmt = parse_sql("select a.id from t a, t b where b.k = a.k").unwrap();
    let exec = Executor::new(&db);
    let rs = exec.run(&stmt).unwrap();
    assert!(rs.rows.is_empty());
    assert_eq!(
        exec.stats().index_probes,
        0,
        "a NULL-key lookup performs no probe and must not count one"
    );
}

#[test]
fn step_stats_expose_rescans_and_row_flow() {
    let db = two_table_db(10);
    let stmt = parse_sql("select a.id from t a, t b where a.k = 2 and b.id = a.id").unwrap();
    let exec = Executor::new(&db);
    exec.run(&stmt).unwrap();

    // The planner turns `a.k = 2` into a hash lookup on k, so the outer
    // step fetches exactly the 2 matching rows (ids 2 and 7).
    let sel = &stmt.branches[0];
    let steps = exec
        .step_stats(sel)
        .expect("executed select has step stats");
    assert_eq!(steps.len(), 2);
    let (outer, inner) = (&steps[0], &steps[1]);
    assert_eq!(outer.invocations, 1);
    assert_eq!(outer.rows_in, 2, "hash lookup on k = 2 fetches 2 rows");
    assert_eq!(outer.rows_out, 2);
    assert_eq!(
        inner.invocations, outer.rows_out,
        "inner step is re-invoked once per surviving outer row"
    );
    assert_eq!(inner.index_probes, 2);
    assert_eq!(inner.rows_out, 2);
}

#[test]
fn step_stats_absent_for_never_executed_subquery() {
    let db = two_table_db(5);
    // `1 = 2` makes the AND short-circuit before the EXISTS ever runs.
    let stmt = parse_sql(
        "select a.id from t a where 1 = 2 and exists (select null from t b where b.id = a.id)",
    )
    .unwrap();
    let exec = Executor::new(&db);
    let rs = exec.run(&stmt).unwrap();
    assert!(rs.rows.is_empty());

    fn find_exists(e: &sqlexec::Expr) -> Option<&sqlexec::Select> {
        match e {
            sqlexec::Expr::Exists(s) => Some(s),
            sqlexec::Expr::And(xs) | sqlexec::Expr::Or(xs) => xs.iter().find_map(find_exists),
            sqlexec::Expr::Not(x) => find_exists(x),
            _ => None,
        }
    }
    let sub = stmt.branches[0]
        .where_clause
        .as_ref()
        .and_then(find_exists)
        .expect("query has an EXISTS");
    assert!(
        exec.step_stats(sub).is_none(),
        "short-circuited subquery must have no step stats"
    );
    assert_eq!(exec.stats().subqueries, 0);
}

#[test]
fn global_stats_equal_sum_of_step_stats() {
    let db = two_table_db(30);
    for (sql, hash_steps) in [
        (
            "select a.id from t a, t b where b.id = a.k and exists \
             (select null from t c where c.id = b.k)",
            0,
        ),
        // `a.k = 2` and `c.k = b.k` probe hash-join build sides, whose
        // build is charged to no query and so to no step either.
        (
            "select a.id from t a, t b where a.k = 2 and b.id = a.id and exists \
             (select null from t c where c.k = b.k)",
            2,
        ),
    ] {
        let stmt = parse_sql(sql).unwrap();
        let exec = Executor::new(&db);
        exec.run(&stmt).unwrap();

        // Every executed select block (outer + the EXISTS subquery).
        let profiled = exec.profiled_steps();
        assert_eq!(profiled.len(), 2, "{sql}");
        let mut total = ExecStats::default();
        let mut hashed = 0;
        for (plan, ops) in &profiled {
            hashed += plan
                .steps
                .iter()
                .filter(|s| matches!(s.access, sqlexec::plan::Access::HashEq { .. }))
                .count();
            for op in ops {
                total.rows_scanned += op.rows_in;
                total.index_probes += op.index_probes;
                total.predicate_evals += op.predicate_evals;
            }
        }
        assert_eq!(hashed, hash_steps, "{sql}");
        let global = exec.stats();
        assert_eq!(global.rows_scanned, total.rows_scanned, "{sql}");
        assert_eq!(global.index_probes, total.index_probes, "{sql}");
        assert_eq!(global.predicate_evals, total.predicate_evals, "{sql}");
    }
}

#[test]
fn elapsed_only_measured_under_profiling() {
    let db = two_table_db(10);
    let stmt = parse_sql("select a.id from t a").unwrap();

    let exec = Executor::new(&db);
    exec.run(&stmt).unwrap();
    let steps = exec.step_stats(&stmt.branches[0]).unwrap();
    assert_eq!(steps[0].elapsed_ns, 0, "no timing without profiling");

    let exec = Executor::new(&db);
    exec.set_profiling(true);
    exec.run(&stmt).unwrap();
    let steps = exec.step_stats(&stmt.branches[0]).unwrap();
    assert!(steps[0].elapsed_ns > 0, "profiling measures wall time");
}

#[test]
fn explain_analyze_renders_estimates_and_actuals() {
    let db = two_table_db(50);
    let stmt =
        parse_sql("select a.id from t a, t b where a.k = 3 and b.id = a.id order by a.id").unwrap();
    let out = explain_analyze(&db, &stmt).unwrap();
    assert!(out.contains("(est "), "{out}");
    assert!(out.contains("[actual: "), "{out}");
    assert!(out.contains("probes"), "{out}");
    assert!(out.contains(" ms, est="), "{out}");
    assert!(out.contains(" act="), "{out}");
    assert!(out.contains(" q="), "{out}");
    assert!(out.contains("sort: a.id"), "{out}");
    assert!(
        out.contains("actual: 10 row(s) in "),
        "summary line with row count: {out}"
    );
    assert!(out.contains("index_probes="), "{out}");
}

#[test]
fn explain_analyze_shows_actuals_for_executed_subqueries() {
    let db = two_table_db(20);
    let stmt =
        parse_sql("select a.id from t a where exists (select null from t b where b.id = a.k)")
            .unwrap();
    let out = explain_analyze(&db, &stmt).unwrap();
    assert!(out.contains("exists subquery:"), "{out}");
    assert!(
        !out.contains("never executed"),
        "the EXISTS ran once per outer row, its steps must show actuals: {out}"
    );
    // The subquery's probe step records one invocation per rescan.
    assert!(out.contains("20 invocation(s)"), "{out}");
}

#[test]
fn explain_analyze_marks_never_executed_subqueries() {
    let db = two_table_db(5);
    let stmt = parse_sql(
        "select a.id from t a where 1 = 2 and exists (select null from t b where b.id = a.id)",
    )
    .unwrap();
    let out = explain_analyze(&db, &stmt).unwrap();
    assert!(out.contains("[actual: never executed]"), "{out}");
}
