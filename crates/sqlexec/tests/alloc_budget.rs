//! Allocation budgets for the executor's per-row work, counted by a
//! global allocator (which is why this is a test binary of its own).
//!
//! The counter is thread-local and a query runs on the thread that calls
//! it, so sibling tests cannot disturb the count.

use obs::alloc::thread_allocs;
use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{parse_sql, ExecStats, Executor, ResultSet};

#[global_allocator]
static GLOBAL: obs::alloc::Counting = obs::alloc::Counting;

/// Run `sql` once to warm up, then again on a fresh executor, returning
/// the second run's result, its counters and the allocations it made
/// (parsing excluded).
fn counted(db: &Database, sql: &str) -> (ResultSet, ExecStats, u64) {
    let stmt = parse_sql(sql).unwrap();
    Executor::new(db).run(&stmt).unwrap();
    let exec = Executor::new(db);
    let before = thread_allocs();
    let rs = exec.run(&stmt).unwrap();
    let allocs = thread_allocs() - before;
    (rs, exec.stats(), allocs)
}

/// A three-byte-per-level Dewey key for `i`, unique and ordered like `i`.
fn dewey(i: usize) -> Value {
    Value::Bytes(vec![1, (i >> 8) as u8, i as u8])
}

/// `select distinct … order by dewey` over a join that produces every
/// result row once and every tenth one twice. Each produced row costs its
/// own `Vec` and its Dewey cell (2 allocations); DISTINCT and ORDER BY
/// must add only a constant on top. At the parent, which cloned each
/// produced row into a `BTreeSet`, this measured 9 255 allocations for
/// 2 000 result rows from 2 200 produced (4.6 per result row); the
/// permutation dedup measured 4 522 (2.3 per result row, 2.06 per
/// produced row).
#[test]
fn distinct_costs_no_allocation_per_row() {
    const N: usize = 2_000;
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "T",
        &[("id", ColType::Int), ("dewey", ColType::Bytes)],
    ))
    .unwrap();
    db.create_table(TableSchema::new("U", &[("tid", ColType::Int)]))
        .unwrap();
    // Reverse Dewey order, so ORDER BY has work to do.
    let t = db.table_mut("T").unwrap();
    for i in 0..N {
        t.insert(vec![Value::Int(i as i64), dewey(N - i)]).unwrap();
    }
    let u = db.table_mut("U").unwrap();
    for i in 0..N {
        u.insert(vec![Value::Int(i as i64)]).unwrap();
        if i % 10 == 0 {
            u.insert(vec![Value::Int(i as i64)]).unwrap();
        }
    }
    u.create_index("u_tid", &["tid"]).unwrap();

    let (rs, _, allocs) = counted(
        &db,
        "select distinct T.id, T.dewey from T, U where T.id = U.tid order by dewey",
    );
    assert_eq!(rs.rows.len(), N);
    assert!(rs.rows.windows(2).all(|w| w[0][1] < w[1][1]));
    let produced = (N + N / 10) as u64;
    // The constant covers planning and the O(log n) growth of the row
    // buffers.
    assert!(
        allocs <= 2 * produced + 256,
        "{allocs} allocations for {produced} produced rows ({} result rows)",
        rs.rows.len()
    );
}

/// The descendant window `D.dewey > A.dewey and D.dewey < A.dewey ||
/// x'FF'`, with no index to turn it into a range probe, is evaluated as a
/// residual on every candidate pair. Comparing borrowed cells against the
/// unbuilt concatenation allocates nothing per candidate. At the parent,
/// which cloned both cells for each comparison and built `A.dewey ||
/// x'FF'`, this measured 42 342 allocations for 10 050 candidate rows
/// (4.2 each); borrowed operands measured 201 (0.02 each).
#[test]
fn dewey_window_residual_allocates_nothing_per_candidate() {
    let mut db = Database::new();
    for name in ["A", "D"] {
        db.create_table(TableSchema::new(name, &[("dewey", ColType::Bytes)]))
            .unwrap();
    }
    let a = db.table_mut("A").unwrap();
    for i in 0..50 {
        a.insert(vec![Value::Bytes(vec![1, i])]).unwrap();
    }
    let d = db.table_mut("D").unwrap();
    for i in 0..200u32 {
        d.insert(vec![Value::Bytes(vec![1, (i % 60) as u8, 1, i as u8])])
            .unwrap();
    }

    let (rs, stats, allocs) = counted(
        &db,
        "select count(*) from A, D \
         where D.dewey > A.dewey and D.dewey < A.dewey || x'FF'",
    );
    let candidates = stats.rows_scanned;
    // D rows under the first 50 of 60 prefixes are descendants.
    let expected = (0..200).filter(|i| i % 60 < 50).count() as i64;
    assert_eq!(rs.rows, vec![vec![Value::Int(expected)]]);
    assert!(candidates >= 10_000, "{candidates} candidate rows");
    assert!(
        allocs < candidates,
        "{allocs} allocations for {candidates} candidate rows"
    );
}

/// A literal equality on an unindexed text column plans as a hash join.
/// Its build side is the table's derived state, so the second executor
/// probes the side the first one built and is charged only the row it
/// fetches. At the parent, which rebuilt the side in every executor and
/// cloned each of the 5 000 cells into it, this measured 10 834
/// allocations and 5 001 rows scanned; the table-owned side measured 53
/// (planning, mostly) and 1.
#[test]
fn hash_join_probes_the_tables_build_side() {
    const N: usize = 5_000;
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "T",
        &[("id", ColType::Int), ("name", ColType::Str)],
    ))
    .unwrap();
    let t = db.table_mut("T").unwrap();
    for i in 0..N {
        t.insert(vec![Value::Int(i as i64), Value::Str(format!("n{i}"))])
            .unwrap();
    }

    let (rs, stats, allocs) = counted(&db, "select T.id from T where T.name = 'n4242'");
    assert_eq!(rs.rows, vec![vec![Value::Int(4242)]]);
    assert_eq!(stats.index_probes, 1, "{stats:?}");
    assert_eq!(stats.rows_scanned, 1, "{stats:?}");
    assert_eq!(db.table("T").unwrap().hash_sides_len(), 1);
    assert!(allocs < 64, "{allocs} allocations for one hash probe");
}

/// A Dewey descendant window over an indexed table plans as a merge
/// join: one merge probe per outer row. Keying the flattened index by
/// the table's address instead of its name leaves a probe only the
/// allocations its bound values need (the `A.dewey` copies and the
/// `A.dewey || x'FF'` concatenation). At the parent, which built a
/// `String` key per probe, this measured 1 154 allocations for 200 merge
/// probes (5.77 each); the address key measured 954 (4.77 each).
#[test]
fn merge_probe_key_allocates_nothing() {
    const OUTER: u8 = 200;
    let mut db = Database::new();
    for name in ["A", "D"] {
        db.create_table(TableSchema::new(name, &[("dewey", ColType::Bytes)]))
            .unwrap();
    }
    let a = db.table_mut("A").unwrap();
    for i in 0..OUTER {
        a.insert(vec![Value::Bytes(vec![1, i])]).unwrap();
    }
    let d = db.table_mut("D").unwrap();
    for i in 0..OUTER {
        for j in 0..4 {
            d.insert(vec![Value::Bytes(vec![1, i, 1, j])]).unwrap();
        }
    }
    d.create_index("d_dewey", &["dewey"]).unwrap();

    let (rs, stats, allocs) = counted(
        &db,
        "select count(*) from A, D \
         where D.dewey between A.dewey and A.dewey || x'FF'",
    );
    assert_eq!(rs.rows, vec![vec![Value::Int(4 * i64::from(OUTER))]]);
    assert_eq!(stats.merge_probes, u64::from(OUTER), "{stats:?}");
    // Four per probe for the bounds; the constant covers planning.
    assert!(
        allocs <= 4 * stats.merge_probes + 200,
        "{allocs} allocations for {} merge probes",
        stats.merge_probes
    );
}
