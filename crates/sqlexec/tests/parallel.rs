//! Parallel-execution equivalence: partitioned structural-join pipelines
//! must return exactly what the serial engine returns — same rows, same
//! document order — under every [`ParallelMode`], the partition boundary
//! handling must be correct even when an even split would land inside a
//! Dewey subtree, and `Auto` must decide from the plan alone.
//!
//! The process pool is sized once for the whole test binary (the host
//! running CI may have a single core; partitioning is a property of the
//! pool's thread count, not the machine's). The mode is a field of each
//! executor's options, so `#[test]` threads share the pool freely; only
//! the saturated-pool test takes it exclusively.

use std::sync::{PoisonError, RwLock, RwLockReadGuard};

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{ExecOptions, ExecStats, Executor, ParallelMode};

/// Held shared by every test and exclusively by the one that saturates
/// the pool, so no other test finds the pool's lanes busy.
static POOL: RwLock<()> = RwLock::new(());

fn pool4() -> RwLockReadGuard<'static, ()> {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| ppf_pool::set_threads(4));
    POOL.read().unwrap_or_else(PoisonError::into_inner)
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
    let _pool = pool4();
    let db = dewey_db(80, 6);

    let (serial, s_stats) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOff));
    assert_eq!(serial.len(), 80 * 6);
    assert_eq!(s_stats.par_tasks, 0);

    let (forced, f_stats) = ids(&db, DEWEY_JOIN, mode(ParallelMode::ForceOn));
    assert_eq!(forced, serial, "forced partitioning changed the result");
    assert_eq!(f_stats.par_tasks, 1, "{f_stats:?}");
    assert!(f_stats.par_chunks >= 2, "{f_stats:?}");
    // Skew accounting: every outer row is attributed to a chunk, and the
    // widest chunk is at least one even share.
    assert_eq!(f_stats.par_rows, 80, "{f_stats:?}");
    assert!(
        f_stats.par_chunk_rows_max >= f_stats.par_rows / f_stats.par_chunks,
        "{f_stats:?}"
    );

    // 80 outer rows at 2.4 planned fetches each is far below the fork
    // threshold: Auto runs the serial pipeline.
    let (auto, a_stats) = ids(&db, DEWEY_JOIN, mode(ParallelMode::Auto));
    assert_eq!(auto, serial, "auto changed the result");
    assert_eq!(a_stats.par_tasks, 0, "{a_stats:?}");
}

#[test]
fn partitioned_join_preserves_work_counters() {
    let _pool = pool4();
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
    let _pool = pool4();
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
    let _pool = pool4();
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
    let _pool = pool4();
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

/// A Dewey join whose planned work clears `Auto`'s fork threshold of
/// 100 000: 1 000 contexts with one child each, beside 23 000 `F` rows
/// under no context. Unanalyzed, the planner prices each window probe at
/// 0.5 % of `F` (120 rows), so the work is 1 000 × 120 = 120 000, while
/// the join itself returns 1 000 rows.
fn wide_join_db() -> Database {
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
        for i in 0..1_000u16 {
            let [hi, lo] = i.to_be_bytes();
            a.insert(vec![Value::Int(i.into()), Value::Bytes(vec![0, hi, lo])])
                .unwrap();
        }
        a.create_index("a_dewey", &["dewey_pos"]).unwrap();
    }
    {
        let f = db.table_mut("F").unwrap();
        for i in 0..1_000u16 {
            let [hi, lo] = i.to_be_bytes();
            f.insert(vec![
                Value::Int(i.into()),
                Value::Bytes(vec![0, hi, lo, 0, 0, 0]),
            ])
            .unwrap();
        }
        for i in 0..23_000u32 {
            let [_, b2, b1, b0] = i.to_be_bytes();
            f.insert(vec![
                Value::Int(10_000 + i64::from(i)),
                Value::Bytes(vec![1, b2, b1, b0]),
            ])
            .unwrap();
        }
        f.create_index("f_dewey", &["dewey_pos"]).unwrap();
    }
    db
}

/// `Auto` decides from the plan alone: one join above the fork threshold
/// and one below it, 60 runs each on a 4-thread pool, make the same
/// decision, the same fan-outs and the same chunk count every time —
/// nothing learned from earlier runs or from the clock feeds in.
#[test]
fn auto_fork_decisions_repeat_exactly() {
    let _pool = pool4();
    let wide = wide_join_db();
    let narrow = dewey_db(80, 6);
    for (db, forks) in [(&wide, true), (&narrow, false)] {
        let run = || {
            let exec = Executor::with_options(db, mode(ParallelMode::Auto));
            let rows = exec.query(DEWEY_JOIN).unwrap().rows.len();
            let s = exec.stats();
            (rows, s.par_tasks, s.par_chunks, exec.par_decisions())
        };
        let first = run();
        let (_, tasks, chunks, decisions) = &first;
        if forks {
            assert_eq!((*tasks, *chunks), (1, 8), "{first:?}");
            assert!(decisions[0].starts_with("fork("), "{first:?}");
        } else {
            assert_eq!((*tasks, *chunks), (0, 0), "{first:?}");
            assert!(decisions[0].starts_with("serial("), "{first:?}");
        }
        for i in 1..60 {
            assert_eq!(run(), first, "run {i}");
        }
    }
}

const WIDE_JOIN: &str = "select F.id from A, F \
     where F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF'";

/// Run `f` while every lane of the global pool sits inside an idle scope
/// held by another thread, so `f` sees a saturated pool.
fn with_saturated_pool<R>(f: impl FnOnce() -> R) -> R {
    let pool = ppf_pool::global();
    let lanes = pool.threads();
    let entered = std::sync::Barrier::new(lanes + 1);
    let release = std::sync::Barrier::new(lanes + 1);
    std::thread::scope(|s| {
        for _ in 0..lanes {
            s.spawn(|| {
                pool.scope(|_| {
                    entered.wait();
                    release.wait();
                })
            });
        }
        entered.wait();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert!(pool.is_saturated());
            f()
        }));
        release.wait();
        out.unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// `par_degraded` counts forks the rule approved and a saturated pool
/// turned down — not branches that would never have forked, and once per
/// branch of a UNION.
#[test]
fn saturated_pool_degrades_only_forks_the_rule_approved() {
    drop(pool4());
    let _exclusive = POOL.write().unwrap_or_else(PoisonError::into_inner);
    let db = wide_join_db();
    let small = "select A.id from A where A.id < 5";
    let union = format!("{WIDE_JOIN} union {small}");
    let (serial, _) = ids(&db, &union, mode(ParallelMode::ForceOff));

    let auto = |sql: &str| {
        let exec = Executor::with_options(&db, mode(ParallelMode::Auto));
        let rs = exec.query(sql).unwrap();
        let rows: Vec<i64> = rs.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        (rows, exec.stats(), exec.par_decisions())
    };
    let (wide, small_run, union_run) =
        with_saturated_pool(|| (auto(WIDE_JOIN), auto(small), auto(&union)));

    let (_, stats, decisions) = wide;
    assert_eq!((stats.par_degraded, stats.par_tasks), (1, 0), "{stats:?}");
    assert!(decisions[0].starts_with("degraded("), "{decisions:?}");

    let (_, stats, decisions) = small_run;
    assert_eq!(stats.par_degraded, 0, "{stats:?}");
    assert!(decisions[0].starts_with("serial("), "{decisions:?}");

    let (rows, stats, decisions) = union_run;
    assert_eq!(rows, serial);
    assert_eq!((stats.par_degraded, stats.par_tasks), (1, 0), "{stats:?}");
    assert_eq!(decisions.len(), 2, "{decisions:?}");

    // Released, the same wide join forks.
    let (rows, stats, _) = auto(&union);
    assert_eq!(rows, serial);
    assert_eq!((stats.par_degraded, stats.par_tasks), (0, 1), "{stats:?}");
}
