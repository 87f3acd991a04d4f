//! Mid-flight cancellation on the one serial pipeline.
//!
//! The contract: firing a query's [`CancelToken`] while the executor's
//! row loop runs stops the query promptly (bounded wall-clock, not
//! "after the whole scan finishes"), surfaces as the typed `cancelled`
//! error, and leaves the engine answering correctly afterwards.

use std::time::{Duration, Instant};

use ppf_core::{CancelToken, QueryError, QueryLimits, SharedEngine, XmlDb};
use xmlschema::parse_schema;

/// Large enough that a full scan takes measurable time, so a staggered
/// token lands inside the row loop.
const BOOKS: usize = 6_000;

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
    for i in 0..BOOKS {
        xml.push_str(&format!("<book id='b{i}'><title>T{i}</title></book>"));
    }
    xml.push_str("</lib>");
    db.load_xml(&xml).expect("load");
    db.finalize().expect("indexes");
    SharedEngine::new(db)
}

#[test]
fn cancel_mid_scan() {
    let engine = engine();
    let q = "/lib/book[title]";

    let baseline = engine.query(q).expect("baseline").ids().len();
    assert_eq!(baseline, BOOKS);

    // Race the cancel against the query repeatedly, at staggered delays,
    // so the token fires at many different points in the pipeline —
    // before execution, inside the row loop, after completion.
    let mut cancelled_seen = 0;
    for round in 0..40 {
        let token = CancelToken::new();
        let fire = token.clone();
        let delay = Duration::from_micros(50 * round as u64);
        let firer = std::thread::spawn(move || {
            std::thread::sleep(delay);
            fire.cancel();
        });

        let started = Instant::now();
        let limits = QueryLimits::none().with_cancel_token(token);
        let outcome = engine.query_with_limits(q, limits);
        let elapsed = started.elapsed();
        firer.join().expect("firer thread");

        match outcome {
            Ok(result) => assert_eq!(result.ids().len(), BOOKS, "round {round}"),
            Err(QueryError::Cancelled(_)) => {
                cancelled_seen += 1;
                // Prompt: the row loop must notice the token at its next
                // row-batch check, not run the scan out. The bound is
                // generous to stay robust on loaded CI, but far below
                // "ignored the token entirely".
                assert!(
                    elapsed < Duration::from_secs(5),
                    "round {round}: cancellation took {elapsed:?}"
                );
            }
            Err(other) => panic!("round {round}: unexpected error {other}"),
        }
    }

    // The races must have actually produced mid-flight cancellations,
    // not 40 untouched completions.
    assert!(
        cancelled_seen > 0,
        "no round observed a cancellation; the race never fired in time"
    );

    // No cancel path left the engine in a bad state.
    let after = engine.query(q).expect("query after the cancellations");
    assert_eq!(after.ids().len(), BOOKS);
}

#[test]
fn pre_cancelled_token_aborts_immediately() {
    let engine = engine();
    let token = CancelToken::new();
    token.cancel();
    let started = Instant::now();
    let err = engine
        .query_with_limits(
            "/lib/book[title]",
            QueryLimits::none().with_cancel_token(token),
        )
        .expect_err("pre-cancelled token must abort the query");
    assert!(matches!(err, QueryError::Cancelled(_)), "got {err}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "pre-cancelled query still ran for {:?}",
        started.elapsed()
    );
}
