//! Work must grow with the data, not faster: XMark QA (open auctions with
//! a bid dated on the auction's start date) at scale 1 and scale 10.
//!
//! The work counted is `rows_scanned + index_probes + predicate_evals`,
//! the executor's own counts, so the check repeats exactly on any host.
//! A plan that probes every bid date by value instead of inside its
//! auction's Dewey window does work quadratic in the document (each
//! probe returns the dates of the whole document); the planner must see
//! that from the statistics and keep QA's work linear.
//!
//! Scale 10 takes seconds to load in release and minutes in debug, so
//! the test runs in release only: `cargo test --release -p ppf-bench
//! --test scaling`.

use ppf_bench::{generate_xmark, xmark_queries, xmark_schema, XMarkConfig};
use ppf_core::XmlDb;

/// Data grows 10× from scale 1 to scale 10; work may grow 12×.
const MAX_WORK_GROWTH: f64 = 12.0;

/// QA's result rows and work at one XMark scale (seed 42).
fn qa_at(scale: f64) -> (u64, u64) {
    let doc = generate_xmark(XMarkConfig { scale, seed: 42 });
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    drop(doc);
    let (_, qa) = xmark_queries()
        .into_iter()
        .find(|(name, _)| *name == "QA")
        .expect("QA is an XMark query");
    let r = db.query(qa).expect("QA runs");
    let work = r.stats.rows_scanned + r.stats.index_probes + r.stats.predicate_evals;
    (r.rows.rows.len() as u64, work)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "loads XMark scale 10: run with --release")]
fn qa_work_grows_linearly_from_scale_1_to_10() {
    let (rows_1, work_1) = qa_at(1.0);
    let (rows_10, work_10) = qa_at(10.0);
    let rows_growth = rows_10 as f64 / rows_1.max(1) as f64;
    let work_growth = work_10 as f64 / work_1.max(1) as f64;
    eprintln!(
        "QA: rows {rows_1} → {rows_10} ({rows_growth:.1}×), work {work_1} → {work_10} ({work_growth:.1}×)"
    );
    assert!(
        (5.0..=20.0).contains(&rows_growth),
        "QA's result should grow with the data: {rows_1} → {rows_10} rows"
    );
    assert!(
        work_growth <= MAX_WORK_GROWTH,
        "QA's work grew {work_growth:.1}× for 10× the data ({work_1} → {work_10}; limit {MAX_WORK_GROWTH}×)"
    );
}
