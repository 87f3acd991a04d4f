//! Malformed and hostile SQL through the public [`Executor::query`] API:
//! every input here must come back as a typed [`ExecError`] — never a
//! panic, never a stack overflow — classified by lifecycle phase.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{ExecError, Executor};

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t",
        &[("id", ColType::Int), ("s", ColType::Str)],
    ))
    .expect("table");
    for i in 0..10 {
        db.table_mut("t")
            .unwrap()
            .insert(vec![Value::Int(i), Value::Str(format!("row{i}"))])
            .expect("insert");
    }
    db
}

#[test]
fn garbage_is_a_parse_error() {
    let db = db();
    let exec = Executor::new(&db);
    for sql in [
        "",
        "garbage",
        "select",
        "select t.id from",
        "select t.id from t where",
        "select t.id from t trailing junk !!!",
        "select t.id from t where t.s = 'unterminated",
        "\u{0}\u{1}",
    ] {
        let err = exec.query(sql).expect_err(sql);
        assert!(
            matches!(err, ExecError::Parse(_)),
            "{sql:?} should be Parse, got {err:?}"
        );
    }
}

#[test]
fn deep_nesting_is_a_parse_error() {
    let db = db();
    let exec = Executor::new(&db);
    let bomb = format!(
        "select t.id from t where {}1 = 1{}",
        "(".repeat(1_000_000),
        ")".repeat(1_000_000)
    );
    let err = exec.query(&bomb).expect_err("paren bomb");
    assert!(matches!(err, ExecError::Parse(_)), "{err:?}");
    assert!(err.message().contains("nested too deeply"), "{err}");
}

/// A name resolves when the statement is planned, so whether it fails
/// does not depend on the data: an unknown column is a plan error over
/// an empty table, and inside an `EXISTS` that never runs.
#[test]
fn unknown_names_are_plan_errors() {
    let mut db = db();
    db.create_table(TableSchema::new("e", &[("id", ColType::Int)]))
        .expect("table");
    let exec = Executor::new(&db);
    for sql in [
        "select m.id from missing_table m",
        "select t.id from t where t.nope = 1",
        // `e` is empty, so no row ever reads `e.nope`.
        "select e.id from e where e.nope = 1",
        // No row of `e` reaches the EXISTS.
        "select e.id from e where exists (select null from t u where u.nope = e.id)",
    ] {
        let err = exec.query(sql).expect_err(sql);
        assert!(
            matches!(err, ExecError::Plan(_)),
            "{sql:?} should be Plan, got {err:?}"
        );
    }
}

#[test]
fn runtime_failures_are_exec_errors() {
    let db = db();
    let exec = Executor::new(&db);
    for sql in [
        // Type error only discoverable at evaluation time.
        "select t.id from t where t.id + t.s = 1",
        // Non-boolean predicate.
        "select t.id from t where t.id + 1",
    ] {
        let err = exec.query(sql).expect_err(sql);
        assert!(
            matches!(err, ExecError::Exec(_)),
            "{sql:?} should be Exec, got {err:?}"
        );
    }
}

#[test]
fn regex_blowup_is_a_typed_error_not_oom() {
    let db = db();
    let exec = Executor::new(&db);
    // Counted-repetition bombs must be rejected by the compile-size
    // budget inside regexlite, and a syntax error by its parser. The
    // pattern compiles when the statement is parsed, so both surface as
    // parse errors.
    for pattern in [
        "a{1000000}",
        "(a{1000}){1000}",
        "((a{100}){100}){100}",
        "(a",
    ] {
        let sql = format!("select t.id from t where regexp_like(t.s, '{pattern}')");
        let err = exec.query(&sql).expect_err(&sql);
        assert!(matches!(err, ExecError::Parse(_)), "{err:?}");
        assert!(
            err.message().contains("bad regex"),
            "budget rejection should carry the pattern context: {err}"
        );
    }
}

#[test]
fn error_kind_tags_are_stable() {
    assert_eq!(ExecError::parse("x").kind(), "parse");
    assert_eq!(ExecError::plan("x").kind(), "plan");
    assert_eq!(ExecError::exec("x").kind(), "exec");
    assert_eq!(ExecError::limit("x").kind(), "limit");
    assert_eq!(ExecError::cancelled("x").kind(), "cancelled");
}
