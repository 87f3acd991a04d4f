//! Parallel-execution equivalence: partitioned path-filter scans and
//! partitioned structural-join pipelines must return exactly what the
//! serial engine returns — same rows, same document order — under every
//! [`ParallelMode`], and the partition boundary handling must be correct
//! even when an even split would land inside a Dewey subtree.
//!
//! The process pool is sized once for the whole test binary (the host
//! running CI may have a single core; partitioning is a property of the
//! pool's thread count, not the machine's). The mode is a field of each
//! executor's options, so `#[test]` threads cannot perturb each other.

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{ExecOptions, ExecStats, Executor, ParallelMode};

fn pool4() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| ppf_pool::set_threads(4));
}

fn mode(parallel: ParallelMode) -> ExecOptions {
    ExecOptions {
        parallel,
        ..ExecOptions::default()
    }
}

fn ids(db: &Database, sql: &str, opts: ExecOptions) -> (Vec<i64>, ExecStats) {
    let exec = Executor::with_options(db, opts);
    let rs = exec.query(sql).unwrap();
    let ids = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    (ids, exec.stats())
}

/// A `Paths`-style table large enough that even `Auto` mode would want
/// to fan out if the pool allowed it; `ForceOn` always does.
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
            format!("/site/regions/item{i}/keyword")
        } else {
            format!("/site/people/person{i}/name")
        };
        t.insert(vec![Value::Int(i), Value::Str(path)]).unwrap();
    }
    db
}

const FILTER: &str = "select P.id from Paths P \
                      where REGEXP_LIKE(P.path, '^/site/regions(/[^/]+)*/keyword$') \
                      order by P.id";

#[test]
fn partitioned_filter_scan_matches_serial() {
    pool4();
    let db = paths_db(600);
    sqlexec::clear_filter_caches(&db);
    let (serial, s_stats) = ids(&db, FILTER, mode(ParallelMode::ForceOff));
    assert_eq!(serial.len(), 200);
    assert_eq!(s_stats.par_tasks, 0);

    sqlexec::clear_filter_caches(&db);
    let (par, p_stats) = ids(&db, FILTER, mode(ParallelMode::ForceOn));
    assert_eq!(par, serial, "partitioned scan changed the result");
    assert!(p_stats.par_tasks >= 1, "{p_stats:?}");
    assert!(p_stats.par_chunks >= 2, "{p_stats:?}");
    // Skew accounting: every input row of every fan-out (the 600-row
    // filter scan, plus any downstream branch fan-out) is attributed to
    // a chunk, and the widest chunk is at least one even share.
    assert!(p_stats.par_rows >= 600, "{p_stats:?}");
    assert!(
        p_stats.par_chunk_rows_max >= p_stats.par_rows / p_stats.par_chunks.max(1),
        "{p_stats:?}"
    );

    sqlexec::clear_filter_caches(&db);
    let (auto, _) = ids(&db, FILTER, mode(ParallelMode::Auto));
    assert_eq!(auto, serial);
}

/// Shredded-style structural join: outer context nodes against their
/// Dewey descendants, the shape `branch_rows_parallel` partitions.
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

const DEWEY_JOIN: &str = "select F.id from A, F \
     where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
     order by F.dewey_pos, F.id";

#[test]
fn partitioned_structural_join_matches_serial_in_every_mode() {
    pool4();
    let db = dewey_db(80, 6);

    let (serial, s_stats) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOff));
    assert_eq!(serial.len(), 80 * 6);
    assert_eq!(s_stats.par_tasks, 0);

    let (forced, f_stats) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "forced partitioning changed the result");
    assert!(f_stats.par_tasks >= 1, "{f_stats:?}");
    assert!(f_stats.par_chunks >= 2, "{f_stats:?}");

    // Pin the cost model to one that always prefers forking: the Auto
    // path must then fan out deterministically, regardless of what the
    // process-wide model has learned from earlier tests.
    let pinned = ExecOptions {
        cost_model: Some(sqlexec::CostModel {
            row_ns: 1e6,
            scan_ns: 1e6,
            hash_ns: 1e6,
            sort_cmp_ns: 1e6,
            fork_ns: 0.0,
            chunk_ns: 1.0,
            efficiency: 1.0,
        }),
        ..mode(ParallelMode::Auto)
    };
    let (auto, a_stats) = ids(&db, DEWEY_JOIN, pinned);
    assert_eq!(auto, serial, "auto partitioning changed the result");
    assert!(a_stats.par_tasks >= 1, "{a_stats:?}");
}

#[test]
fn partitioned_join_preserves_work_counters() {
    pool4();
    let db = dewey_db(64, 8);

    let (serial, s) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOff));
    let (par, p) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(par, serial);
    // Partitioning redistributes the work; it must not change its size.
    assert_eq!(p.rows_scanned, s.rows_scanned, "serial {s:?} vs par {p:?}");
    assert_eq!(p.index_probes, s.index_probes, "serial {s:?} vs par {p:?}");
    assert_eq!(
        p.predicate_evals, s.predicate_evals,
        "serial {s:?} vs par {p:?}"
    );
}

/// An outer run whose even split lands inside a Dewey subtree: ancestor
/// contexts interleaved with their own descendants in the same table.
/// The boundary alignment keeps each subtree's rows on one worker, and —
/// whatever the boundaries — results must be byte-identical to serial.
#[test]
fn dewey_chunk_boundaries_do_not_corrupt_subtree_runs() {
    pool4();
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
        // Outer run: root [0,0,i] immediately followed by its own
        // children [0,0,i,0,0,j] — any even boundary inside a run would
        // separate a root from its descendants.
        let a = db.table_mut("A").unwrap();
        let mut id = 0i64;
        for i in 0..10u8 {
            a.insert(vec![Value::Int(id), Value::Bytes(vec![0, 0, i])])
                .unwrap();
            id += 1;
            for j in 0..5u8 {
                a.insert(vec![Value::Int(id), Value::Bytes(vec![0, 0, i, 0, 0, j])])
                    .unwrap();
                id += 1;
            }
        }
        a.create_index("a_dewey", &["dewey_pos"]).unwrap();
    }
    {
        let f = db.table_mut("F").unwrap();
        let mut id = 1000i64;
        for i in 0..10u8 {
            for j in 0..5u8 {
                // Leaves under both the child and (by prefix) the root.
                f.insert(vec![
                    Value::Int(id),
                    Value::Bytes(vec![0, 0, i, 0, 0, j, 0, 0, 0]),
                ])
                .unwrap();
                id += 1;
            }
        }
        f.create_index("f_dewey", &["dewey_pos"]).unwrap();
    }

    let (serial, _) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOff));
    // Every leaf matches its parent chain: 50 leaves × (root + child).
    assert_eq!(serial.len(), 100);
    let (par, p) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(par, serial, "chunk-edge handling changed the result");
    assert!(p.par_chunks >= 2, "{p:?}");
}

#[test]
fn explain_analyze_reports_parallel_counters() {
    pool4();
    let db = dewey_db(48, 4);
    let stmt = sqlexec::parse_sql(DEWEY_JOIN).unwrap();
    let out = sqlexec::explain_analyze_with_limits(
        &db,
        &stmt,
        sqlexec::QueryLimits::none(),
        mode(ParallelMode::ForceOn),
    )
    .unwrap();
    assert!(out.contains("pool_threads="), "{out}");
    assert!(out.contains("par_tasks="), "{out}");
    assert!(out.contains("par_chunks="), "{out}");
}

/// A correlated `EXISTS` first evaluated inside partition workers is
/// planned there under the coordinator's options: with statistics off,
/// its plan is the serial statistics-off plan, not one priced from the
/// table statistics the workers' threads would otherwise see.
#[test]
fn subquery_planned_in_a_worker_follows_the_coordinators_options() {
    pool4();
    let db = dewey_db(64, 8);
    relstore::stats::analyze_db(&db);
    // The EXISTS correlates with F, the join's second step, so it first
    // runs below depth 0: inside the workers of the partitioned branch.
    let stmt = sqlexec::parse_sql(
        "select F.id from A, F \
         where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
         and exists (select null from F G where G.id = F.id and G.dewey_pos >= x'000000') \
         order by F.id",
    )
    .unwrap();
    // The EXISTS block's plan, keyed by the `Select` inside the branch
    // plan's residual (the clone the executor actually ran).
    let exists_plan = |exec: &Executor| -> Vec<String> {
        let outer = exec.cached_plan(&stmt.branches[0]).expect("branch planned");
        let sub = outer
            .steps
            .iter()
            .flat_map(|s| &s.residuals)
            .find_map(|r| match r {
                sqlexec::Expr::Exists(sub) => Some(sub),
                _ => None,
            })
            .expect("EXISTS residual");
        let plan = exec.cached_plan(sub).expect("EXISTS block planned");
        plan.steps
            .iter()
            .map(|s| format!("{} {:?} est_rows={}", s.alias, s.access, s.est_rows))
            .collect()
    };
    let no_stats = ExecOptions {
        stats: false,
        ..ExecOptions::default()
    };
    let serial = Executor::with_options(
        &db,
        ExecOptions {
            parallel: ParallelMode::ForceOff,
            ..no_stats
        },
    );
    let want = serial.run(&stmt).unwrap();
    let want_plan = exists_plan(&serial);
    // Chunks run on whichever thread takes them; several rounds make
    // sure pool workers, not only the coordinator, plan the block.
    for round in 0..8 {
        let par = Executor::with_options(
            &db,
            ExecOptions {
                parallel: ParallelMode::ForceOn,
                ..no_stats
            },
        );
        assert_eq!(par.run(&stmt).unwrap(), want, "round {round}");
        assert!(par.stats().par_tasks >= 1, "round {round}");
        assert_eq!(exists_plan(&par), want_plan, "round {round}");
    }
}
