//! Serial-vs-parallel equivalence for the operators parallelized on top
//! of the partitioned branch pipeline: the final ORDER BY merge sort,
//! UNION arm fan-out, the hash-join build side, and COUNT(*) partial
//! aggregation. Every operator must return the same rows in the same
//! order with the same core work counters (`rows_scanned`,
//! `index_probes`, `predicate_evals`) under ForceOff, ForceOn, and Auto
//! — Auto pinned to a deterministic cost model via
//! `ExecOptions::cost_model`, so these tests cannot flap as the
//! process-wide model learns.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{CostModel, ExecOptions, ExecStats, Executor, ParallelMode};

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

/// `Auto` priced by a pinned cost model.
fn auto(model: CostModel) -> ExecOptions {
    ExecOptions {
        cost_model: Some(model),
        ..mode(ParallelMode::Auto)
    }
}

/// A cost model that prices every operator as enormous and the fork as
/// free: Auto forks everything fork-able, deterministically.
fn fork_everything() -> CostModel {
    CostModel {
        row_ns: 1e6,
        scan_ns: 1e6,
        hash_ns: 1e6,
        sort_cmp_ns: 1e6,
        fork_ns: 0.0,
        chunk_ns: 1.0,
        efficiency: 1.0,
    }
}

/// A cost model with zero parallel efficiency: Auto never forks.
fn fork_nothing() -> CostModel {
    CostModel {
        efficiency: 0.0,
        fork_ns: 1e18,
        ..CostModel::default()
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

// ----- ORDER BY: parallel merge sort -----

/// Sorts on a non-projected (computed) key plus a projected tiebreak,
/// descending — the shape that exercises both arms of `cmp_keyed`.
const ORDER_BY: &str = "select P.id from Paths P where P.id >= 0 order by P.path desc, P.id";

#[test]
fn parallel_order_by_matches_serial_in_every_mode() {
    let _g = seq();
    pool4();
    let db = paths_db(1500);

    let (serial, s_stats) = run(&db, ORDER_BY, mode(ParallelMode::ForceOff));
    assert_eq!(serial.len(), 1500);
    assert_eq!(s_stats.par_tasks, 0);

    let (forced, f_stats) = run(&db, ORDER_BY, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "parallel sort changed rows or order");
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert_core_counters_equal(&s_stats, &f_stats);

    let (auto, a_stats) = run(&db, ORDER_BY, auto(fork_everything()));
    assert_eq!(auto, serial, "auto parallel sort changed rows or order");
    assert!(a_stats.par_tasks >= 1, "{a_stats:?}");
    assert_core_counters_equal(&s_stats, &a_stats);
}

/// Equal sort keys everywhere: the k-way merge must reproduce the serial
/// stable sort's tie-break (leftmost chunk first), byte for byte.
#[test]
fn parallel_sort_is_stable_on_ties() {
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
        "tie-break order changed under parallel sort"
    );
    assert!(f.par_tasks >= 1, "{f:?}");
}

// ----- UNION: concurrent arm execution -----

const UNION: &str = "select P.id from Paths P where REGEXP_LIKE(P.path, 'item1[0-9]$') \
     union select P.id from Paths P where REGEXP_LIKE(P.path, 'item[0-9]$') \
     union select P.id from Paths P where P.id < 25 \
     order by id";

#[test]
fn parallel_union_arms_match_serial_in_every_mode() {
    let _g = seq();
    pool4();
    let db = paths_db(900);

    sqlexec::clear_filter_caches(&db);
    let (serial, s_stats) = run(&db, UNION, mode(ParallelMode::ForceOff));
    assert!(!serial.is_empty());
    assert_eq!(s_stats.par_tasks, 0);

    sqlexec::clear_filter_caches(&db);
    let (forced, f_stats) = run(&db, UNION, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "parallel UNION changed the result");
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert_core_counters_equal(&s_stats, &f_stats);

    sqlexec::clear_filter_caches(&db);
    let (auto, a_stats) = run(&db, UNION, auto(fork_everything()));
    assert_eq!(auto, serial, "auto parallel UNION changed the result");
    assert!(a_stats.par_tasks >= 1, "{a_stats:?}");
    assert_core_counters_equal(&s_stats, &a_stats);
}

/// Overlapping arms: UNION (distinct) must still deduplicate across
/// arms after the concurrent fan-out, in the serial emission order.
#[test]
fn parallel_union_distinct_dedups_across_arms() {
    let _g = seq();
    pool4();
    let db = paths_db(400);
    let sql = "select P.id from Paths P where P.id < 300 \
               union select P.id from Paths P where P.id >= 200 \
               order by id";
    let (serial, _) = run(&db, sql, mode(ParallelMode::ForceOff));
    assert_eq!(serial.len(), 400, "distinct collapsed the overlap");
    let (forced, _) = run(&db, sql, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial);
}

// ----- Hash join: partitioned build side -----

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

#[test]
fn parallel_hash_build_matches_serial_in_every_mode() {
    let _g = seq();
    pool4();
    let db = hash_join_db(2000, 60);

    let (serial, s_stats) = run(&db, HASH_JOIN, mode(ParallelMode::ForceOff));
    assert!(!serial.is_empty());

    let (forced, f_stats) = run(&db, HASH_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "partitioned hash build changed the result");
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert_core_counters_equal(&s_stats, &f_stats);

    let (auto, a_stats) = run(&db, HASH_JOIN, auto(fork_everything()));
    assert_eq!(auto, serial, "auto hash build changed the result");
    assert_core_counters_equal(&s_stats, &a_stats);
}

// ----- COUNT(*): per-chunk partial aggregation -----

fn dewey_db(contexts: u8, children: u8) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "A",
        &[("id", ColType::Int), ("dewey_pos", ColType::Bytes)],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "F",
        &[("id", ColType::Int), ("dewey_pos", ColType::Bytes)],
    ))
    .unwrap();
    {
        let a = db.table_mut("A").unwrap();
        for i in 0..contexts {
            a.insert(vec![Value::Int(i as i64), Value::Bytes(vec![0, 0, i])])
                .unwrap();
        }
        a.create_index("a_dewey", &["dewey_pos"]).unwrap();
    }
    {
        let f = db.table_mut("F").unwrap();
        let mut id = 1000i64;
        for i in 0..contexts {
            for j in 0..children {
                f.insert(vec![Value::Int(id), Value::Bytes(vec![0, 0, i, 0, 0, j])])
                    .unwrap();
                id += 1;
            }
        }
        f.create_index("f_dewey", &["dewey_pos"]).unwrap();
    }
    db
}

const COUNT_JOIN: &str = "select count(*) from A, F \
     where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF'";

#[test]
fn parallel_count_star_matches_serial_in_every_mode() {
    let _g = seq();
    pool4();
    let db = dewey_db(80, 6);

    let (serial, s_stats) = run(&db, COUNT_JOIN, mode(ParallelMode::ForceOff));
    assert_eq!(serial, vec![vec![Value::Int(480)]]);
    assert_eq!(s_stats.par_tasks, 0);

    let (forced, f_stats) = run(&db, COUNT_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "partial-aggregate COUNT(*) diverged");
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert_core_counters_equal(&s_stats, &f_stats);

    let (auto, a_stats) = run(&db, COUNT_JOIN, auto(fork_everything()));
    assert_eq!(auto, serial, "auto COUNT(*) diverged");
    assert!(a_stats.par_tasks >= 1, "{a_stats:?}");
    assert_core_counters_equal(&s_stats, &a_stats);
}

// ----- Cost-model gating and the single-thread pool -----

/// A pinned zero-efficiency model keeps Auto serial even on work that
/// ForceOn happily partitions — and the result is identical either way.
#[test]
fn auto_with_pinned_serial_model_never_forks() {
    let _g = seq();
    pool4();
    let db = dewey_db(80, 6);
    let sql = "select F.id from A, F \
               where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
               order by F.dewey_pos, F.id";
    let (serial, _) = run(&db, sql, mode(ParallelMode::ForceOff));
    let (auto, a_stats) = run(&db, sql, auto(fork_nothing()));
    assert_eq!(auto, serial);
    assert_eq!(a_stats.par_tasks, 0, "{a_stats:?}");
}

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

/// EXPLAIN ANALYZE surfaces the cost model's fork/serial decisions.
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
        auto(fork_everything()),
    )
    .unwrap();
    assert!(out.contains("par_decision: "), "{out}");
    assert!(out.contains(":fork(") || out.contains(":serial("), "{out}");
}
