//! Regression tests for code-review findings: each test pins a behaviour
//! that used to be a panic or a silently wrong (empty) result.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::Executor;

fn db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t",
        &[
            ("id", ColType::Int),
            ("s", ColType::Str),
            ("b", ColType::Bytes),
        ],
    ))
    .unwrap();
    {
        let t = db.table_mut("t").unwrap();
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::Str(format!("{i}")),
                Value::Bytes(vec![i as u8]),
            ])
            .unwrap();
        }
        t.create_index("t_id", &["id"]).unwrap();
        t.create_index("t_s", &["s"]).unwrap();
        // Composite with an Int leading column and Bytes suffix — the
        // shape where a fake 0xFF sentinel upper bound would be wrong.
        t.create_index("t_id_b", &["id", "b"]).unwrap();
    }
    db
}

#[test]
fn union_arity_mismatch_is_an_error_not_a_panic() {
    let d = db();
    let exec = Executor::new(&d);
    let err = exec
        .query("select t.id, t.s from t union select t.id from t order by s")
        .unwrap_err();
    assert!(err.to_string().contains("numbers of columns"), "{err}");
    // Same without ORDER BY: still rejected (dedup across widths).
    assert!(exec
        .query("select t.id, t.s from t union select t.id from t")
        .is_err());
}

#[test]
fn coercible_equality_on_indexed_column_still_matches() {
    // `id = '3'` must implicitly convert (Oracle-style), even though the
    // column is indexed — the planner must not probe the index with a
    // type-incompatible key.
    let d = db();
    let exec = Executor::new(&d);
    let rs = exec.query("select t.id from t where t.id = '3'").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Int(3)]]);
    // And the mirror case: a string column compared with a number.
    let rs2 = exec.query("select t.id from t where t.s = 7").unwrap();
    assert_eq!(rs2.rows, vec![vec![Value::Int(7)]]);
}

#[test]
fn composite_index_inclusive_upper_bound_covers_all_suffixes() {
    // Range on the leading Int column of (id, b): every suffix of id=5
    // must be included, even though Bytes sort above any sentinel.
    let mut d = db();
    {
        let t = d.table_mut("t").unwrap();
        // a row whose Bytes suffix is longer than any fixed sentinel
        t.insert(vec![
            Value::Int(5),
            Value::Str("x".into()),
            Value::Bytes(vec![0xFF; 32]),
        ])
        .unwrap();
    }
    let exec = Executor::new(&d);
    let rs = exec
        .query("select t.s from t where t.id between 4 and 5")
        .unwrap();
    assert_eq!(rs.rows.len(), 3, "rows 4, 5 and the long-suffix 5");
}

#[test]
fn shadowed_alias_in_subquery_is_uncorrelated() {
    // The inner `t` shadows the outer `t`; the EXISTS is uncorrelated and
    // true for every outer row (u joins the INNER t, never the outer one).
    let d = db();
    let exec = Executor::new(&d);
    let rs = exec
        .query(
            "select t.id from t where exists (\
             select u.id from t u, t where u.id = t.id and t.id = 0)",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 10, "EXISTS is constant-true for all rows");
}

#[test]
fn unqualified_columns_resolve_with_the_full_environment() {
    let mut d = Database::new();
    d.create_table(TableSchema::new("a", &[("x", ColType::Int)]))
        .unwrap();
    d.create_table(TableSchema::new("b", &[("v", ColType::Str)]))
        .unwrap();
    d.table_mut("a")
        .unwrap()
        .insert(vec![Value::Int(1)])
        .unwrap();
    d.table_mut("b")
        .unwrap()
        .insert(vec![Value::from("hit")])
        .unwrap();
    d.table_mut("b")
        .unwrap()
        .insert(vec![Value::from("miss")])
        .unwrap();
    let exec = Executor::new(&d);
    // `v` is unqualified and lives only in `b`; whatever join order the
    // planner picks, the filter must see it.
    let rs = exec.query("select a.x from a, b where v = 'hit'").unwrap();
    assert_eq!(rs.rows.len(), 1);
}

#[test]
fn correlated_probes_still_use_indexes() {
    // The type guard must not disable the index-nested-loop probe for the
    // bread-and-butter correlated case (both sides Int).
    let d = db();
    let exec = Executor::new(&d);
    let rs = exec
        .query(
            "select t.id from t where exists (\
             select null from t u where u.id = t.id)",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 10);
    let stats = exec.stats();
    assert!(
        stats.index_probes >= 10,
        "expected per-row index probes, got {stats:?}"
    );
}
