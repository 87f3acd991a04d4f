//! What runs on top of the partitioned branch pipeline, the one
//! parallel operator: ORDER BY over rows the branch workers emitted,
//! hash-join probes inside branch workers, the single-thread pool, and
//! how `Auto` reports its fork decisions. Rows, order and
//! the core work counters (`rows_scanned`, `index_probes`,
//! `predicate_evals`) must match the serial engine under every mode.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{ExecOptions, ExecStats, Executor, ParallelMode};

/// Every test takes this guard, because one test resizes the
/// process-global pool that the others fork onto.
fn seq() -> std::sync::MutexGuard<'static, ()> {
    static SEQ: std::sync::Mutex<()> = std::sync::Mutex::new(());
    match SEQ.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

fn pool4() {
    ppf_pool::set_threads(4);
}

fn mode(parallel: ParallelMode) -> ExecOptions {
    ExecOptions {
        parallel,
        ..ExecOptions::default()
    }
}

fn run(db: &Database, sql: &str, opts: ExecOptions) -> (Vec<Vec<Value>>, ExecStats) {
    let exec = Executor::with_options(db, opts);
    let rs = exec.query(sql).unwrap();
    (rs.rows, exec.stats())
}

fn assert_core_counters_equal(s: &ExecStats, p: &ExecStats) {
    assert_eq!(p.rows_scanned, s.rows_scanned, "serial {s:?} vs par {p:?}");
    assert_eq!(p.index_probes, s.index_probes, "serial {s:?} vs par {p:?}");
    assert_eq!(
        p.predicate_evals, s.predicate_evals,
        "serial {s:?} vs par {p:?}"
    );
}

fn paths_db(rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "Paths",
        &[("id", ColType::Int), ("path", ColType::Str)],
    ))
    .unwrap();
    let t = db.table_mut("Paths").unwrap();
    for i in 0..rows {
        // Non-monotone path strings so ORDER BY path actually permutes.
        let path = format!("/site/n{}/item{}", (i * 37) % 101, i);
        t.insert(vec![Value::Int(i), Value::Str(path)]).unwrap();
    }
    db
}

// ----- ORDER BY over partitioned branch output -----

/// Sorts on a non-projected (computed) key plus a projected tiebreak,
/// descending — the shape that exercises both arms of `cmp_keyed`.
const ORDER_BY: &str = "select P.id from Paths P where P.id >= 0 order by P.path desc, P.id";

/// Equal sort keys everywhere: chunk outputs concatenate in serial
/// emission order, so the stable sort keeps the serial tie order, byte
/// for byte.
#[test]
fn order_by_ties_keep_serial_order_under_force_on() {
    let _g = seq();
    pool4();
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "T",
        &[("id", ColType::Int), ("k", ColType::Int)],
    ))
    .unwrap();
    let t = db.table_mut("T").unwrap();
    for i in 0..800i64 {
        t.insert(vec![Value::Int(i), Value::Int(i % 3)]).unwrap();
    }
    let sql = "select T.id from T where T.id >= 0 order by T.k";
    let (serial, _) = run(&db, sql, mode(ParallelMode::ForceOff));
    let (forced, f) = run(&db, sql, mode(ParallelMode::ForceOn));
    assert_eq!(
        forced, serial,
        "tie order changed under partitioned emission"
    );
    assert!(f.par_tasks >= 1, "{f:?}");
}

// ----- Hash join: probed from branch workers -----

fn hash_join_db(build_rows: i64, probe_rows: i64) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "R",
        &[("id", ColType::Int), ("k", ColType::Int)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "S",
        &[("id", ColType::Int), ("k", ColType::Int)],
    ))
    .unwrap();
    {
        let r = db.table_mut("R").unwrap();
        for i in 0..probe_rows {
            r.insert(vec![Value::Int(i), Value::Int(i % 50)]).unwrap();
        }
    }
    {
        let s = db.table_mut("S").unwrap();
        for i in 0..build_rows {
            // Sprinkle NULLs: they must be skipped by every build path.
            let k = if i % 97 == 0 {
                Value::Null
            } else {
                Value::Int(i % 50)
            };
            s.insert(vec![Value::Int(1000 + i), k]).unwrap();
        }
    }
    db
}

const HASH_JOIN: &str = "select S.id from R, S where S.k = R.k and R.id < 8 order by S.id, R.id";

/// `R` drives the branch pipeline and `S` is probed through its hash
/// side. Under `ForceOn` the first probes come from the branch workers
/// of a fresh table, so they race to build the side: the table builds it
/// once, and rows and counters match a serial run on another fresh copy.
#[test]
fn hash_join_in_branch_workers_matches_serial() {
    let _g = seq();
    pool4();
    let serial_db = hash_join_db(2000, 60);
    let (serial, s_stats) = run(&serial_db, HASH_JOIN, mode(ParallelMode::ForceOff));
    assert!(!serial.is_empty());

    let db = hash_join_db(2000, 60);
    let (forced, f_stats) = run(&db, HASH_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(
        forced, serial,
        "hash probes from branch workers changed the result"
    );
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert_core_counters_equal(&s_stats, &f_stats);
    assert_eq!(db.table("S").unwrap().hash_sides_len(), 1);

    let (auto, a_stats) = run(&db, HASH_JOIN, mode(ParallelMode::Auto));
    assert_eq!(auto, serial, "auto hash join changed the result");
    assert_core_counters_equal(&s_stats, &a_stats);
}

// ----- The single-thread pool and `Auto`'s decisions -----

/// With one pool thread there is nothing to fork onto: every mode runs
/// the serial engine and records zero fan-outs.
#[test]
fn single_thread_pool_stays_serial_even_forced() {
    let _g = seq();
    ppf_pool::set_threads(1);
    let db = paths_db(600);
    let (serial, _) = run(&db, ORDER_BY, mode(ParallelMode::ForceOff));
    let (forced, f_stats) = run(&db, ORDER_BY, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial);
    assert_eq!(f_stats.par_tasks, 0, "{f_stats:?}");
    pool4();
}

/// EXPLAIN ANALYZE surfaces `Auto`'s decision with the numbers it was
/// made from: a one-step branch's work is its row count.
#[test]
fn explain_analyze_reports_par_decisions() {
    let _g = seq();
    pool4();
    let db = paths_db(800);
    let stmt = sqlexec::parse_sql(ORDER_BY).unwrap();
    let out = sqlexec::explain_analyze_with_limits(
        &db,
        &stmt,
        sqlexec::QueryLimits::none(),
        mode(ParallelMode::Auto),
    )
    .unwrap();
    assert!(
        out.contains("par_decision: serial(rows=800,work=800)"),
        "{out}"
    );
}
