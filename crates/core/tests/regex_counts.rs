//! Each query's regex work is counted by the executor that ran it, so the
//! counts are exact while other queries match on other threads at the
//! same time.

use ppf_core::XmlDb;
use xmark::{generate_xmark, xmark_schema, XMarkConfig};

const THREADS: usize = 4;
const ROUNDS: usize = 200;
/// Q3. With path marking off its `Paths` filter stays in the statement,
/// so every cold run matches the pattern against every `Paths` row.
const QUERY: &str = "//keyword";

fn xmark_db(doc: &xmldom::Document) -> XmlDb {
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    db.set_path_marking(false);
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// Run `QUERY` with the path-filter memo cleared, so the filter scan and
/// its matches happen on this run.
fn cold_run(db: &XmlDb) -> ppf_core::QueryResult {
    sqlexec::clear_filter_caches(db.db());
    db.query(QUERY).expect(QUERY)
}

#[test]
fn regex_counts_are_exact_under_concurrent_queries() {
    let doc = generate_xmark(XMarkConfig {
        scale: 0.02,
        seed: 7,
    });
    let serial = cold_run(&xmark_db(&doc));
    let expected = serial.stats.regex;
    assert!(expected.match_calls > 0, "{expected:?}");
    assert_eq!(
        expected.match_calls, serial.engine.path_candidates,
        "one match per Paths candidate: {expected:?}"
    );

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let db = xmark_db(&doc);
                for round in 0..ROUNDS {
                    let result = cold_run(&db);
                    assert_eq!(result.ids(), serial.ids());
                    assert_eq!(result.stats.regex, expected, "round {round}");
                }
            });
        }
    });
}
