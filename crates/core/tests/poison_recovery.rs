//! Panic containment and resource limits through the public engine API.
//!
//! The acceptance bar for the panic-free query lifecycle: an injected
//! mid-query pool-task panic fails only that query (as a typed error),
//! and the same [`SharedEngine`] serves correct results afterwards; a
//! query exceeding its deadline / row budget / cancel token aborts with
//! `QueryError::Limit` / `QueryError::Cancelled` while other queries on
//! the same engine are unaffected.
//!
//! Lives in its own integration-test binary because it sizes the
//! process-wide pool.

use std::time::Duration;

use ppf_core::{CancelToken, ExecOptions, QueryError, QueryLimits, SharedEngine, XmlDb};
use sqlexec::ParallelMode;
use xmlschema::parse_schema;

fn engine() -> SharedEngine {
    let schema = parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id = title\n\
         title : text\n",
    )
    .expect("schema");
    let mut db = XmlDb::new(&schema).expect("db");
    let mut xml = String::from("<lib>");
    for i in 0..600 {
        xml.push_str(&format!("<book id='b{i}'><title>T{i}</title></book>"));
    }
    xml.push_str("</lib>");
    db.load_xml(&xml).expect("load");
    db.finalize().expect("indexes");
    SharedEngine::new(db)
}

#[test]
fn injected_worker_panic_fails_one_query_and_engine_survives() {
    ppf_pool::set_threads(4);
    let engine = engine();
    let q = "/lib/book";
    let baseline = engine.query(q).expect("baseline").ids();
    assert_eq!(baseline.len(), 600);

    // Force the partitioned branch pipeline so a pool task actually runs,
    // with the injected panic inside its worker tasks — for this query
    // only.
    let armed = ExecOptions {
        parallel: ParallelMode::ForceOn,
        worker_panic: true,
        ..ExecOptions::default()
    };
    let err = engine
        .query_with_options(q, QueryLimits::none(), armed)
        .expect_err("the armed query must fail, not bring the process down");

    match &err {
        QueryError::Exec(msg) => assert!(
            msg.contains("panicked") && msg.contains("injected worker panic"),
            "unexpected exec message: {msg}"
        ),
        other => panic!("expected QueryError::Exec, got {other:?}"),
    }

    // The very same engine keeps answering correctly afterwards.
    for _ in 0..3 {
        assert_eq!(engine.query(q).expect("post-panic query").ids(), baseline);
    }

    // The failure is classified in the process-wide registry.
    let reg = obs::Registry::global();
    assert!(reg.counter("engine.query_errors") >= 1);
    assert!(reg.counter("engine.query_errors.exec") >= 1);
    // The poison-recovery mirrors exist as registry counters (zero is
    // fine: pool tasks are caught per-task, before any lock poisons).
    let snapshot = reg.snapshot();
    for name in [
        "pool.poison_recoveries",
        "regex.poison_recoveries",
        "sqlexec.cache_poison_recoveries",
        "engine.cache_poison_recoveries",
    ] {
        assert!(
            snapshot.counters.iter().any(|(k, _)| k == name),
            "registry is missing the {name} mirror"
        );
    }
}

#[test]
fn row_budget_aborts_with_limit_error_and_others_run_on() {
    ppf_pool::set_threads(4);
    let engine = engine();
    let q = "/lib/book/title";
    let baseline = engine.query(q).expect("baseline").ids();

    let err = engine
        .query_with_limits(q, QueryLimits::none().with_max_rows(10))
        .expect_err("10-row budget cannot cover a 600-book scan");
    match &err {
        QueryError::Limit(msg) => {
            assert!(msg.contains("row budget exceeded"), "{msg}")
        }
        other => panic!("expected QueryError::Limit, got {other:?}"),
    }
    assert!(err.is_aborted());

    // An unlimited query on the same engine is unaffected, as is a
    // limited one with enough budget.
    assert_eq!(engine.query(q).expect("unlimited").ids(), baseline);
    assert_eq!(
        engine
            .query_with_limits(q, QueryLimits::none().with_max_rows(1_000_000))
            .expect("roomy budget")
            .ids(),
        baseline
    );
    assert!(obs::Registry::global().counter("engine.limit_aborts") >= 1);
}

#[test]
fn expired_deadline_aborts_with_limit_error() {
    let engine = engine();
    let err = engine
        .query_with_limits(
            "/lib/book",
            QueryLimits::none().with_timeout(Duration::ZERO),
        )
        .expect_err("zero timeout must abort");
    match &err {
        QueryError::Limit(msg) => assert!(msg.contains("deadline exceeded"), "{msg}"),
        other => panic!("expected QueryError::Limit, got {other:?}"),
    }
    // Same engine still answers.
    assert_eq!(
        engine.query("/lib/book").expect("after abort").ids().len(),
        600
    );
}

#[test]
fn fired_cancel_token_aborts_with_cancelled_error() {
    let engine = engine();
    let token = CancelToken::new();
    token.cancel();
    let err = engine
        .query_with_limits(
            "/lib/book",
            QueryLimits::none().with_cancel_token(token.clone()),
        )
        .expect_err("fired token must abort");
    match &err {
        QueryError::Cancelled(msg) => assert!(msg.contains("cancel token"), "{msg}"),
        other => panic!("expected QueryError::Cancelled, got {other:?}"),
    }
    assert_eq!(err.kind(), "cancelled");

    // A fresh token does not abort anything.
    let calm = CancelToken::new();
    assert_eq!(
        engine
            .query_with_limits("/lib/book", QueryLimits::none().with_cancel_token(calm),)
            .expect("unfired token")
            .ids()
            .len(),
        600
    );
    assert!(obs::Registry::global().counter("engine.query_cancelled") >= 1);
}
