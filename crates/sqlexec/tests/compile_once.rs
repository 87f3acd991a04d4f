//! A `REGEXP_LIKE` pattern is matched through the program its statement
//! owns: the cold run matches every row once, and a second executor
//! running the same statement answers from the table's path-filter memo
//! without a single match. (That the executor never compiles a pattern
//! is a source check in CI: `exec.rs` names no regex constructor.)

use regexlite::MatchCounts;
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
fn regexp_pattern_is_matched_once_per_row_then_memoised() {
    const ROWS: i64 = 300;
    let db = paths_db(ROWS);
    let sql = "select P.id from Paths P \
               where REGEXP_LIKE(P.path, '^/site/regions(/[^/]+)*$') \
               order by P.id";
    let stmt = parse_sql(sql).unwrap();

    let exec = Executor::new(&db);
    let rs = exec.run(&stmt).unwrap();
    assert_eq!(rs.rows.len(), 100);
    let cold = exec.stats().regex;
    assert_eq!(
        cold.match_calls, ROWS as u64,
        "every row is matched once on the cold run: {cold:?}"
    );
    assert_eq!(cold.dfa_matches, ROWS as u64, "{cold:?}");
    assert_eq!((cold.dfa_fallbacks, cold.vm_steps), (0, 0), "{cold:?}");

    // A second executor runs the same statement: the table's path-filter
    // memo answers without a single match.
    let exec2 = Executor::new(&db);
    let rs2 = exec2.run(&stmt).unwrap();
    assert_eq!(rs2.rows, rs.rows);
    let warm = exec2.stats();
    assert_eq!(warm.regex, MatchCounts::default(), "{warm:?}");
    assert_eq!(warm.path_memo_hits, 1);
    assert_eq!(warm.path_memo_misses, 0);
}
