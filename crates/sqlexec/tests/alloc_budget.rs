//! Allocation budgets for the executor's per-row work, counted by a
//! global allocator (which is why this is a test binary of its own).
//!
//! The counter is thread-local and every query runs with
//! `ParallelMode::ForceOff`, so all of a query's work happens on the
//! test's own thread and sibling tests cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::{parse_sql, ExecOptions, Executor, ParallelMode, ResultSet};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which does
// not allocate (const-initialised `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `sql` once to warm up, then again on a fresh executor, returning
/// the second run's result, its `rows_scanned` and the allocations it
/// made (parsing excluded).
fn counted(db: &Database, sql: &str) -> (ResultSet, u64, u64) {
    let serial = ExecOptions {
        parallel: ParallelMode::ForceOff,
        ..ExecOptions::default()
    };
    let stmt = parse_sql(sql).unwrap();
    Executor::with_options(db, serial).run(&stmt).unwrap();
    let exec = Executor::with_options(db, serial);
    let before = ALLOCS.with(Cell::get);
    let rs = exec.run(&stmt).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;
    (rs, exec.stats().rows_scanned, allocs)
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

    let (rs, candidates, allocs) = counted(
        &db,
        "select count(*) from A, D \
         where D.dewey > A.dewey and D.dewey < A.dewey || x'FF'",
    );
    // D rows under the first 50 of 60 prefixes are descendants.
    let expected = (0..200).filter(|i| i % 60 < 50).count() as i64;
    assert_eq!(rs.rows, vec![vec![Value::Int(expected)]]);
    assert!(candidates >= 10_000, "{candidates} candidate rows");
    assert!(
        allocs < candidates,
        "{allocs} allocations for {candidates} candidate rows"
    );
}
