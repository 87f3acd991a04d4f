//! Hot-path cache behaviour: the path-filter memo, which its table owns,
//! must be dropped when the table mutates and must not carry over to a
//! cloned database; the Dewey window join must return exactly what the
//! brute-force reference returns; warm index probes must not fall back
//! to the heap.
//!
//! Every test builds its own database and passes its options to its own
//! executor, so they are safe to run in parallel with each other.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{parse_sql, ExecOptions, Executor};

fn paths_db() -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "Paths",
        &[("id", ColType::Int), ("path", ColType::Str)],
    ))
    .unwrap();
    let t = db.table_mut("Paths").unwrap();
    for (id, path) in [
        (1, "/a"),
        (2, "/a/b"),
        (3, "/a/b/c"),
        (4, "/a/x"),
        (5, "/a/x/c"),
    ] {
        t.insert(vec![Value::Int(id), Value::from(path)]).unwrap();
    }
    db
}

const FILTER: &str = "select P.id from Paths P \
                      where REGEXP_LIKE(P.path, '^/a(/[^/]+)*/c$') \
                      order by P.id";

fn ids(db: &Database, sql: &str) -> (Vec<i64>, sqlexec::ExecStats) {
    ids_with(db, sql, ExecOptions::default())
}

fn ids_with(db: &Database, sql: &str, opts: ExecOptions) -> (Vec<i64>, sqlexec::ExecStats) {
    let exec = Executor::with_options(db, opts);
    let rs = exec.query(sql).unwrap();
    let ids = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    (ids, exec.stats())
}

#[test]
fn path_memo_hits_then_invalidates_on_table_mutation() {
    let mut db = paths_db();

    let (cold_ids, cold) = ids(&db, FILTER);
    assert_eq!(cold_ids, vec![3, 5]);
    assert_eq!(cold.path_memo_misses, 1);
    assert_eq!(cold.path_memo_hits, 0);

    let (warm_ids, warm) = ids(&db, FILTER);
    assert_eq!(warm_ids, vec![3, 5]);
    assert_eq!(warm.path_memo_hits, 1);
    assert_eq!(warm.path_memo_misses, 0);

    // Any insert drops the table's memo: the next scan misses, and the
    // new row appears.
    db.table_mut("Paths")
        .unwrap()
        .insert(vec![Value::Int(6), Value::from("/a/y/c")])
        .unwrap();
    let (fresh_ids, fresh) = ids(&db, FILTER);
    assert_eq!(fresh_ids, vec![3, 5, 6]);
    assert_eq!(fresh.path_memo_misses, 1);
    assert_eq!(fresh.path_memo_hits, 0);
}

#[test]
fn path_memo_does_not_alias_across_cloned_databases() {
    let db = paths_db();
    let (_, s) = ids(&db, FILTER);
    assert_eq!(s.path_memo_misses, 1);

    // A clone starts with an empty memo, so the entry populated for the
    // original must not answer for it — even though the contents are
    // identical right now (they can diverge at any time).
    let mut clone = db.clone();
    clone
        .table_mut("Paths")
        .unwrap()
        .insert(vec![Value::Int(7), Value::from("/a/z/c")])
        .unwrap();
    let (clone_ids, cs) = ids(&clone, FILTER);
    assert_eq!(clone_ids, vec![3, 5, 7]);
    assert_eq!(cs.path_memo_misses, 1);
    assert_eq!(cs.path_memo_hits, 0);
}

/// Shredded-style tables: one outer table of 40 "context" Dewey keys,
/// inserted in document order or in reverse, and one inner table of 8
/// element rows under each, joined by the paper's `BETWEEN` containment
/// condition.
fn dewey_db(reverse: bool) -> Database {
    let mut db = Database::new();
    for name in ["A", "F"] {
        db.create_table(TableSchema::new(
            name,
            &[("id", ColType::Int), ("dewey_pos", ColType::Bytes)],
        ))
        .unwrap();
    }
    {
        let a = db.table_mut("A").unwrap();
        let mut contexts: Vec<i64> = (0..40).collect();
        if reverse {
            contexts.reverse();
        }
        for i in contexts {
            // Dewey prefix [0,0,i] — 40 ordered context nodes.
            a.insert(vec![Value::Int(i), Value::Bytes(vec![0, 0, i as u8])])
                .unwrap();
        }
        a.create_index("a_dewey", &["dewey_pos"]).unwrap();
    }
    {
        let f = db.table_mut("F").unwrap();
        let mut id = 1000i64;
        for i in 0..40i64 {
            for j in 0..8u8 {
                // Children [0,0,i,0,0,j] under context i.
                f.insert(vec![
                    Value::Int(id),
                    Value::Bytes(vec![0, 0, i as u8, 0, 0, j]),
                ])
                .unwrap();
                id += 1;
            }
        }
        f.create_index("f_dewey", &["dewey_pos"]).unwrap();
    }
    db
}

/// The Dewey window join probes `F`'s index once per outer row, seeking
/// each window from where the last one began: forward when the outer
/// rows arrive in document order, backward when they arrive in reverse.
/// Either way it returns exactly the brute-force cross product's rows,
/// in its order.
#[test]
fn window_join_matches_the_reference_in_either_outer_order() {
    const WINDOW_JOIN: &str = "select A.id, F.id from A, F \
         where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF'";
    let stmt = parse_sql(WINDOW_JOIN).unwrap();
    for reverse in [false, true] {
        let db = dewey_db(reverse);
        let exec = Executor::new(&db);
        let rs = exec.run(&stmt).unwrap();
        let want = sqlexec::naive_select(&db, &stmt.branches[0]).unwrap();
        let got: Vec<Vec<Value>> = rs.rows.iter().map(|r| r.to_vec()).collect();
        assert_eq!(got.len(), 40 * 8);
        assert_eq!(got, want, "reverse = {reverse}");
        assert_eq!(exec.stats().index_probes, 40, "{:?}", exec.stats());
        let plan = sqlexec::explain_analyze_with_limits(
            &db,
            &stmt,
            Default::default(),
            Default::default(),
        )
        .unwrap();
        assert!(plan.contains("via index f_dewey range["), "{plan}");
    }
}

/// Index probes reuse the executor's key scratch and row-buffer pool:
/// once an executor is warm, `probe_allocs` (every acquisition that fell
/// back to the heap) stays flat across equality and range probes.
#[test]
fn warm_index_probes_do_not_fall_back_to_the_heap() {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "t",
        &[("id", ColType::Int), ("v", ColType::Int)],
    ))
    .unwrap();
    let t = db.table_mut("t").unwrap();
    for i in 0..10_000i64 {
        t.insert(vec![Value::Int(i), Value::Int(i * 7)]).unwrap();
    }
    t.create_index("t_id", &["id"]).unwrap();

    let exec = Executor::new(&db);
    let eq = parse_sql("select t.v from t where t.id = 4321").unwrap();
    let range = parse_sql("select t.v from t where t.id between 4000 and 4100").unwrap();
    exec.run(&eq).unwrap();
    exec.run(&range).unwrap();
    let warm = exec.stats().probe_allocs;
    for _ in 0..1024 {
        assert_eq!(exec.run(&eq).unwrap().rows.len(), 1);
        assert_eq!(exec.run(&range).unwrap().rows.len(), 101);
    }
    assert_eq!(
        exec.stats().probe_allocs,
        warm,
        "warm index probes allocated"
    );
}
