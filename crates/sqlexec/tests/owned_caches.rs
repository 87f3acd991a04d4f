//! Derived state is owned by the table it was derived from: a path
//! filter's memoized survivors — and the selectivity the planner learns
//! from them — belong to one `Database` and are invisible to every other
//! one in the process, whatever it has scanned.
//!
//! These tests assert only per-executor `ExecStats` and per-database
//! plans, so they are safe to run in parallel with each other.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{parse_sql, Executor};

/// A `Paths` table of `rows` rows of which the first `matching` are
/// under `/a/`.
fn paths_db(rows: i64, matching: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "Paths",
        &[("id", ColType::Int), ("path", ColType::Str)],
    ))
    .unwrap();
    let t = db.table_mut("Paths").unwrap();
    for i in 0..rows {
        let path = if i < matching {
            format!("/a/n{i}")
        } else {
            format!("/b/n{i}")
        };
        t.insert(vec![Value::Int(i), Value::Str(path)]).unwrap();
    }
    db
}

const FILTER: &str = "select P.id from Paths P where REGEXP_LIKE(P.path, '^/a/') order by P.id";

/// The planner's row estimate for FILTER's single scan step.
fn estimate(db: &Database) -> f64 {
    let stmt = parse_sql(FILTER).unwrap();
    let plan = sqlexec::plan::plan_select(db, &stmt.branches[0], &[]).unwrap();
    plan.steps[0].est_rows
}

fn run(db: &Database) -> (usize, sqlexec::ExecStats) {
    let exec = Executor::new(db);
    let rows = exec.query(FILTER).unwrap().rows.len();
    (rows, exec.stats())
}

#[test]
fn each_database_prices_a_pattern_from_its_own_survivors() {
    let half = paths_db(100, 50);
    let few = paths_db(100, 2);
    // Nothing scanned yet: both fall back to the fixed regex guess.
    assert_eq!(estimate(&half), estimate(&few));

    assert_eq!(run(&half).0, 50);
    assert!((estimate(&half) - 50.0).abs() < 1e-9, "{}", estimate(&half));
    // `few` has not run the pattern: it has learned nothing from `half`.
    assert!((estimate(&few) - 5.0).abs() < 1e-9, "{}", estimate(&few));

    assert_eq!(run(&few).0, 2);
    assert!((estimate(&few) - 2.0).abs() < 1e-9, "{}", estimate(&few));
    assert!((estimate(&half) - 50.0).abs() < 1e-9, "{}", estimate(&half));

    // What was learned goes with the memo it was read from.
    sqlexec::clear_filter_caches(&half);
    assert!((estimate(&half) - 5.0).abs() < 1e-9, "{}", estimate(&half));
    assert!((estimate(&few) - 2.0).abs() < 1e-9, "{}", estimate(&few));
}

#[test]
fn memo_hits_do_not_depend_on_what_other_databases_scanned() {
    let db = paths_db(64, 8);
    let others: Vec<Database> = (1..=4).map(|m| paths_db(64, m)).collect();

    let (rows, cold) = run(&db);
    assert_eq!(rows, 8);
    assert_eq!((cold.path_memo_misses, cold.path_memo_hits), (1, 0));

    for (i, other) in others.iter().enumerate() {
        // Same pattern, same table and column names, different contents.
        let (rows, first) = run(other);
        assert_eq!(rows, i + 1);
        assert_eq!((first.path_memo_misses, first.path_memo_hits), (1, 0));

        let (rows, warm) = run(&db);
        assert_eq!(rows, 8);
        assert_eq!((warm.path_memo_misses, warm.path_memo_hits), (0, 1));
    }
}
