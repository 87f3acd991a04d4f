//! Copy-on-write snapshot semantics: atomic swap, crash-safe reload
//! isolation, version stamping, and deferred snapshot drop.
//!
//! The process-wide registry is shared by every test in this binary, so
//! the tests that assert registry deltas and the tests that move those
//! counters (every reload does) serialize on one mutex, and compare
//! before/after deltas rather than absolute values. Snapshot live/retired
//! counts belong to each test's own `SharedEngine` and need no such care.

use std::sync::{Arc, Mutex, OnceLock};

use ppf_core::{QueryLimits, ReloadError, SharedEngine, XmlDb};
use xmlschema::figure1_schema;

/// Serializes the tests that assert or move registry counters.
fn counter_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A figure-1 document with `n` `<D>` leaves, so row counts identify
/// which version answered a query.
fn doc(n: usize) -> String {
    let ds: String = (0..n).map(|i| format!("<D x='{i}'>{i}</D>")).collect();
    format!("<A x='1'><B><C>{ds}<E><F>10</F></E></C></B></A>")
}

fn build(n: usize) -> XmlDb {
    let mut db = XmlDb::new(&figure1_schema()).expect("schema");
    db.load_xml(&doc(n)).expect("load");
    db.finalize().expect("finalize");
    db
}

#[test]
fn swap_is_atomic_and_stamps_versions() {
    let _g = counter_lock();
    let engine = SharedEngine::new(build(2));
    assert_eq!(engine.version(), 1);
    let before = engine.query("/A/B/C/D").expect("v1 query");
    assert_eq!(before.snapshot_version, 1);
    assert_eq!(before.rows.rows.len(), 2);

    let snap = engine.reload_with(|| Ok(build(5))).expect("reload");
    assert_eq!(snap.version(), 2);
    assert_eq!(engine.version(), 2);

    let after = engine.query("/A/B/C/D").expect("v2 query");
    assert_eq!(after.snapshot_version, 2);
    assert_eq!(after.rows.rows.len(), 5);
}

#[test]
fn failed_reload_leaves_old_results_byte_identical() {
    let _g = counter_lock();
    let reg = obs::Registry::global();
    let engine = SharedEngine::new(build(3));
    let baseline = engine.query("/A/B/C/D").expect("baseline");

    let attempts0 = reg.counter("engine.reload_attempts");
    let failures0 = reg.counter("engine.reload_failures");
    let swaps0 = reg.counter("engine.reload_swaps");

    // Typed builder error (the malformed-XML / truncated-file path).
    let err = engine
        .reload_with(|| Err(ReloadError::parse("unexpected EOF at byte 17")))
        .expect_err("parse failure must not swap");
    assert_eq!(err.kind(), "parse");

    // Panic mid-build (the panic-mid-shred path) is contained and typed.
    let err = engine
        .reload_with(|| panic!("shredder exploded"))
        .expect_err("panic must not swap");
    assert_eq!(err.kind(), "panic");
    assert!(err.to_string().contains("shredder exploded"));

    // Builder that loads a malformed document through the real engine
    // path: the staging XmlDb fails, the serving one never sees it.
    let err = engine
        .reload_with(|| {
            let mut db = XmlDb::new(&figure1_schema()).map_err(ReloadError::from)?;
            db.load_xml("<A><B></A>").map_err(ReloadError::from)?;
            db.finalize().map_err(ReloadError::from)?;
            Ok(db)
        })
        .expect_err("malformed XML must not swap");
    assert!(matches!(err, ReloadError::Parse(_) | ReloadError::Shred(_)));

    assert_eq!(engine.version(), 1, "no failure may bump the version");
    let replay = engine.query("/A/B/C/D").expect("replay");
    assert_eq!(
        replay.rows, baseline.rows,
        "old snapshot must serve unchanged"
    );
    assert_eq!(replay.snapshot_version, 1);

    assert_eq!(reg.counter("engine.reload_attempts") - attempts0, 3);
    assert_eq!(reg.counter("engine.reload_failures") - failures0, 3);
    assert_eq!(reg.counter("engine.reload_swaps") - swaps0, 0);
}

#[test]
fn concurrent_reload_gets_typed_busy() {
    let _g = counter_lock();
    let reg = obs::Registry::global();
    let busy0 = reg.counter("engine.reload_busy");
    let engine = SharedEngine::new(build(1));
    let engine2 = engine.clone();

    // The first reload blocks inside its builder until the second reload
    // has been refused, proving Busy comes back while staging is live.
    let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let staging = std::thread::spawn(move || {
        engine2.reload_with(move || {
            enter_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            Ok(build(2))
        })
    });

    enter_rx.recv().unwrap();
    let err = engine
        .reload_with(|| Ok(build(9)))
        .expect_err("second concurrent reload must be refused");
    assert_eq!(err, ReloadError::Busy);
    assert!(err.is_retryable());

    done_tx.send(()).unwrap();
    let snap = staging.join().unwrap().expect("first reload succeeds");
    assert_eq!(snap.version(), 2);
    assert_eq!(reg.counter("engine.reload_busy") - busy0, 1);

    // After the staging lock is released, reload works again.
    assert_eq!(engine.reload_with(|| Ok(build(3))).unwrap().version(), 3);
}

#[test]
fn queries_racing_a_swap_see_exactly_one_version() {
    let _g = counter_lock();
    let engine = SharedEngine::new(build(2));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let checked = Arc::new(std::sync::atomic::AtomicU64::new(0));

    let mut workers = Vec::new();
    for _ in 0..4 {
        let engine = engine.clone();
        let stop = stop.clone();
        let checked = checked.clone();
        workers.push(std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let r = engine
                    .query_with_limits("/A/B/C/D", QueryLimits::none())
                    .expect("query during reload storm");
                // Version v serves 2 rows when odd-generation (1,3,5…
                // loaded doc(2)) and 5 rows when even-generation: each
                // result must be internally consistent with exactly the
                // version it claims.
                let expect = if r.snapshot_version % 2 == 1 { 2 } else { 5 };
                assert_eq!(
                    r.rows.rows.len(),
                    expect,
                    "rows inconsistent with snapshot version {}",
                    r.snapshot_version
                );
                checked.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }));
    }
    // Ten tiny reloads can finish before a freshly spawned worker gets
    // scheduled: start the storm only once queries are flowing.
    while checked.load(std::sync::atomic::Ordering::Relaxed) == 0 {
        std::thread::yield_now();
    }

    for gen in 0..10 {
        let n = if gen % 2 == 0 { 5 } else { 2 };
        engine.reload_with(|| Ok(build(n))).expect("reload");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in workers {
        w.join().expect("no worker saw an inconsistent result");
    }
    assert_eq!(engine.version(), 11);
}

#[test]
fn snapshot_drop_deferred_until_last_pin_releases() {
    // Held for the reload below (it moves the registry's reload
    // counters); the assertions read this engine's own counts.
    let _g = counter_lock();
    let engine = SharedEngine::new(build(2));
    let pinned = engine.snapshot();
    assert_eq!(pinned.version(), 1);
    assert_eq!(engine.snapshots_live(), 1);

    engine.reload_with(|| Ok(build(4))).expect("reload");

    // The superseded snapshot is still pinned: nothing retired, one more
    // snapshot alive, and the pin still answers from version 1.
    assert_eq!(engine.snapshots_retired(), 0);
    assert_eq!(engine.snapshots_live(), 2);
    let old = pinned
        .query_with_limits("/A/B/C/D", QueryLimits::none())
        .expect("pinned snapshot still queryable");
    assert_eq!(old.snapshot_version, 1);
    assert_eq!(old.rows.rows.len(), 2);

    drop(pinned);
    assert_eq!(
        engine.snapshots_retired(),
        1,
        "dropping the last pin must retire the superseded snapshot"
    );
    assert_eq!(engine.snapshots_live(), 1);
    assert_eq!(engine.query("/A/B/C/D").unwrap().rows.rows.len(), 4);
}

#[test]
fn retiring_a_snapshot_frees_its_stats_filter_memo_and_hash_sides() {
    let _g = counter_lock();
    // `G` is recursive in the figure-1 schema, so `//G` keeps its path
    // filter, and with more `G` rows than paths the plan scans `Paths`
    // first: running it leaves one memoized scan on that table.
    let with_gs = || {
        let mut db = XmlDb::new(&figure1_schema()).expect("schema");
        let gs = "<G/>".repeat(20);
        db.load_xml(&format!("<A x='1'><B><G>{gs}</G></B></A>"))
            .expect("load");
        db.finalize().expect("finalize");
        db
    };
    let engine = SharedEngine::new(with_gs());
    let pinned = engine.snapshot();
    assert_eq!(pinned.stats_tables(), pinned.table_count());
    assert_eq!(pinned.filter_memo_entries(), 0);
    assert_eq!(engine.query("//G").expect("query").rows.rows.len(), 21);
    assert_eq!(pinned.filter_memo_entries(), 1);
    // `@x` is unindexed, so the literal equality probes a hash side,
    // built on `A` by this first query.
    assert_eq!(pinned.hash_sides(), 0);
    assert_eq!(engine.query("/A[@x=1]").expect("query").rows.rows.len(), 1);
    assert_eq!(pinned.hash_sides(), 1);

    let sql = engine.sql_for("//G").expect("sql").expect("not empty");
    let pattern = sql
        .split("REGEXP_LIKE(G_Paths.path, '")
        .nth(1)
        .and_then(|rest| rest.split('\'').next())
        .expect("path filter in the SQL");
    let paths = pinned
        .db()
        .table(shred::naming::PATHS_TABLE)
        .expect("Paths");
    let path_col = paths.schema.col("path").expect("path column");
    let stats = Arc::downgrade(&relstore::stats::lookup(paths).expect("analyzed"));
    let memo = Arc::downgrade(&paths.filter_memo_get(path_col, pattern).expect("memoized"));
    let a = pinned.db().table("A").expect("A");
    let x_col = a.schema.col(&shred::naming::attr_col("x")).expect("@x");
    let side = Arc::downgrade(&a.hash_side(x_col));
    assert_eq!(pinned.hash_sides(), 1, "the query built the side taken");

    engine.reload_with(|| Ok(with_gs())).expect("reload");
    assert!(stats.upgrade().is_some() && memo.upgrade().is_some() && side.upgrade().is_some());
    assert_eq!(engine.snapshots_retired(), 0);
    assert_eq!(engine.snapshot().filter_memo_entries(), 0);
    assert_eq!(engine.snapshot().hash_sides(), 0);

    drop(pinned);
    assert_eq!(engine.snapshots_retired(), 1);
    assert!(stats.upgrade().is_none(), "stats outlived their snapshot");
    assert!(memo.upgrade().is_none(), "memo outlived its snapshot");
    assert!(side.upgrade().is_none(), "hash side outlived its snapshot");
}

#[test]
fn reload_slow_builder_does_not_block_queries() {
    let _g = counter_lock();
    let engine = SharedEngine::new(build(2));
    let engine2 = engine.clone();
    let (enter_tx, enter_rx) = std::sync::mpsc::channel::<()>();
    let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
    let reloader = std::thread::spawn(move || {
        engine2.reload_with(move || {
            enter_tx.send(()).unwrap();
            done_rx.recv().unwrap();
            Ok(build(7))
        })
    });
    enter_rx.recv().unwrap();
    // Builder is parked mid-stage; the serving path must stay open.
    let r = engine.query("/A/B/C/D").expect("query during staging");
    assert_eq!(r.snapshot_version, 1);
    assert_eq!(r.rows.rows.len(), 2);
    done_tx.send(()).unwrap();
    reloader.join().unwrap().expect("staged reload lands");
    assert_eq!(engine.query("/A/B/C/D").unwrap().snapshot_version, 2);
}
