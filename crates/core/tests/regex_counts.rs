//! Each query's regex work is counted by the executor that ran it, so the
//! counts are exact while other queries match on other threads at the
//! same time.

use ppf_core::{ExecOptions, XmlDb};
use xmark::{generate_xmark, xmark_schema, XMarkConfig};

const THREADS: usize = 4;
const ROUNDS: usize = 200;
/// Q3. With path marking off its `Paths` filter stays in the statement,
/// so every cold plan matches the pattern against every `Paths` row to
/// build the key set its `keyword` step tests.
const QUERY: &str = "//keyword";

fn xmark_db(doc: &xmldom::Document) -> XmlDb {
    let mut db = XmlDb::new(&xmark_schema()).expect("schema db");
    db.set_path_marking(false);
    db.load(doc).expect("load");
    db.finalize().expect("indexes");
    db
}

/// Run `QUERY` with the path-filter memo and the cached plans dropped,
/// so the filter scan and its matches happen on this run, as it plans.
fn cold_run(db: &mut XmlDb) -> ppf_core::QueryResult {
    sqlexec::clear_filter_caches(db.db());
    db.set_exec_options(ExecOptions::default());
    db.query(QUERY).expect(QUERY)
}

#[test]
fn regex_counts_are_exact_under_concurrent_queries() {
    let doc = generate_xmark(XMarkConfig {
        scale: 0.02,
        seed: 7,
    });
    let mut serial_db = xmark_db(&doc);
    let serial = cold_run(&mut serial_db);
    let expected = serial.stats.regex;
    let paths = serial_db
        .db()
        .table(shred::naming::PATHS_TABLE)
        .expect("Paths");
    assert!(expected.match_calls > 0, "{expected:?}");
    assert_eq!(
        expected.match_calls,
        paths.len() as u64,
        "one match per Paths row: {expected:?}"
    );

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let mut db = xmark_db(&doc);
                for round in 0..ROUNDS {
                    let result = cold_run(&mut db);
                    assert_eq!(result.ids(), serial.ids());
                    assert_eq!(result.stats.regex, expected, "round {round}");
                }
            });
        }
    });
}
