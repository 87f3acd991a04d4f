//! Panic containment and resource limits through the public engine API.
//!
//! A query exceeding its deadline / row budget / cancel token aborts
//! with `QueryError::Limit` / `QueryError::Cancelled` while other
//! queries on the same [`SharedEngine`] are unaffected, and the
//! poison-recovery counters are visible in the registry.

use std::time::Duration;

use ppf_core::{CancelToken, QueryError, QueryLimits, SharedEngine, XmlDb};
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

/// The poison-recovery counters that live in statics are mirrored into
/// the registry on every query, so one `stats` snapshot shows them
/// (zero is fine: nothing here panics under a lock).
#[test]
fn registry_mirrors_the_poison_recovery_counters() {
    let engine = engine();
    engine.query("/lib/book").expect("query");
    let snapshot = obs::Registry::global().snapshot();
    for name in ["regex.poison_recoveries", "engine.cache_poison_recoveries"] {
        assert!(
            snapshot.counters.iter().any(|(k, _)| k == name),
            "registry is missing the {name} mirror"
        );
    }
}

#[test]
fn row_budget_aborts_with_limit_error_and_others_run_on() {
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
