//! Mid-flight cancellation under forced parallel execution.
//!
//! The contract: firing a query's [`CancelToken`] while partitioned
//! chunks are outstanding on the pool stops the query promptly (bounded
//! wall-clock, not "after the whole scan finishes"), surfaces as the
//! typed `cancelled` error, and leaves the fan-out's shared merge map
//! unpoisoned — the same engine keeps answering correctly afterwards.
//!
//! Lives in its own integration-test binary because it sizes the
//! process-wide pool.

use std::time::{Duration, Instant};

use ppf_core::{CancelToken, ExecOptions, QueryError, QueryLimits, SharedEngine, XmlDb};
use sqlexec::ParallelMode;
use xmlschema::parse_schema;

fn mode(parallel: ParallelMode) -> ExecOptions {
    ExecOptions {
        parallel,
        ..ExecOptions::default()
    }
}

/// Large enough that a full scan takes measurable time and partitioned
/// execution actually splits it into multiple pool chunks.
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
fn cancel_mid_flight_under_forced_parallelism() {
    ppf_pool::set_threads(4);
    let engine = engine();
    let q = "/lib/book[title]";

    let forced = mode(ParallelMode::ForceOn);
    let baseline = engine
        .query_with_options(q, QueryLimits::none(), forced)
        .expect("baseline")
        .ids()
        .len();
    assert_eq!(baseline, BOOKS);
    let poison_before = sqlexec::cache_poison_recoveries();

    // Race the cancel against the query repeatedly, at staggered delays,
    // so the token fires at many different points in the pipeline —
    // before translation, during partitioned execution, after completion.
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
        let outcome = engine.query_with_options(q, limits, forced);
        let elapsed = started.elapsed();
        firer.join().expect("firer thread");

        match outcome {
            Ok(result) => assert_eq!(result.ids().len(), BOOKS, "round {round}"),
            Err(QueryError::Cancelled(_)) => {
                cancelled_seen += 1;
                // Prompt: outstanding chunks must notice the token at
                // their next row-batch check, not run the scan out. The
                // bound is generous to stay robust on loaded CI, but far
                // below "ignored the token entirely".
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

    // No cancel path may have poisoned the shared merge map: recovery
    // counter untouched, and the engine still answers correctly both
    // parallel and serial.
    assert_eq!(
        sqlexec::cache_poison_recoveries(),
        poison_before,
        "cancellation poisoned a shared cache"
    );
    for (opts, what) in [
        (forced, "parallel after"),
        (mode(ParallelMode::ForceOff), "serial after"),
    ] {
        let after = engine.query_with_options(q, QueryLimits::none(), opts);
        assert_eq!(after.expect(what).ids().len(), BOOKS);
    }
}

#[test]
fn pre_cancelled_token_aborts_immediately() {
    ppf_pool::set_threads(4);
    let engine = engine();
    let token = CancelToken::new();
    token.cancel();
    let started = Instant::now();
    let err = engine
        .query_with_options(
            "/lib/book[title]",
            QueryLimits::none().with_cancel_token(token),
            mode(ParallelMode::ForceOn),
        )
        .expect_err("pre-cancelled token must abort the query");
    assert!(matches!(err, QueryError::Cancelled(_)), "got {err}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "pre-cancelled query still ran for {:?}",
        started.elapsed()
    );
}
