//! A `REGEXP_LIKE` pattern compiles once, when its statement is parsed,
//! and never while the statement runs: the executor matches through the
//! program the statement owns, on every executor that runs it.
//!
//! This file intentionally holds a single `#[test]` so the process-wide
//! `regexlite::stats` counters it asserts on are not perturbed by other
//! tests running in parallel threads of the same binary (integration
//! test files are separate processes).

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{parse_sql, Executor};

fn paths_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "Paths",
        &[("id", ColType::Int), ("path", ColType::Str)],
    ))
    .unwrap();
    let t = db.table_mut("Paths").unwrap();
    for i in 0..rows {
        let path = if i % 3 == 0 {
            format!("/site/regions/item{i}")
        } else {
            format!("/site/people/person{i}")
        };
        t.insert(vec![Value::Int(i), Value::Str(path)]).unwrap();
    }
    db
}

#[test]
fn regexp_pattern_compiles_once_per_query_not_per_row() {
    const ROWS: i64 = 300;
    let db = paths_db(ROWS);
    let sql = "select P.id from Paths P \
               where REGEXP_LIKE(P.path, '^/site/regions(/[^/]+)*$') \
               order by P.id";

    let before = regexlite::stats::snapshot();
    let stmt = parse_sql(sql).unwrap();
    let parsed = regexlite::stats::snapshot().since(&before);
    assert_eq!(
        parsed.compiles, 1,
        "parsing compiles the pattern: {parsed:?}"
    );

    let exec = Executor::new(&db);
    let rs = exec.run(&stmt).unwrap();
    assert_eq!(rs.rows.len(), 100);
    let cold = regexlite::stats::snapshot().since(&before);
    assert_eq!(cold.compiles, 1, "the cold run compiles nothing: {cold:?}");
    assert!(
        cold.match_calls >= ROWS as u64,
        "every row must be matched on the cold run: {cold:?}"
    );

    // A second executor runs the same statement: still no compile, and
    // the table's path-filter memo answers without a single match.
    let exec2 = Executor::new(&db);
    let rs2 = exec2.run(&stmt).unwrap();
    assert_eq!(rs2.rows, rs.rows);
    let warm = regexlite::stats::snapshot().since(&before);
    assert_eq!(warm.compiles, 1, "the warm run compiles nothing: {warm:?}");
    assert_eq!(
        warm.match_calls, cold.match_calls,
        "warm run answers from the path-filter memo: {warm:?}"
    );
    assert_eq!(exec2.stats().path_memo_hits, 1);
    assert_eq!(exec2.stats().path_memo_misses, 0);
}
