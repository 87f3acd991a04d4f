//! The engine's XPath-keyed query cache: warm repeats must skip parse,
//! translate and plan entirely (zero phase nanos, `plan_cache_hits`
//! set), give identical results, and invalidate whenever the database
//! mutates — most importantly after a new document load, which can
//! change the translation itself (§4.5 path marking depends on which
//! paths exist).

use ppf_core::{EdgeDb, XmlDb};

fn figure1_xml() -> &'static str {
    "<A x='4'>\
       <B><C><D x='1'>9</D></C><C><E><F>1</F><F>2</F></E></C><G/></B>\
       <B><G><G/></G></B>\
     </A>"
}

fn figure1_db() -> XmlDb {
    let schema = xmlschema::figure1_schema();
    let mut db = XmlDb::new(&schema).unwrap();
    db.load_xml(figure1_xml()).unwrap();
    db.finalize().unwrap();
    db
}

const PHASES: [&str; 4] = ["parse", "translate", "plan", "execute"];

#[test]
fn warm_query_skips_parse_translate_and_plan() {
    let db = figure1_db();
    let q = "//C//F";

    let cold = db.query(q).unwrap();
    assert_eq!(cold.engine.plan_cache_hits, 0);
    assert!(cold.engine.parse_ns > 0, "{:?}", cold.engine);
    assert!(cold.engine.translate_ns > 0, "{:?}", cold.engine);
    assert!(cold.engine.plan_ns > 0, "{:?}", cold.engine);
    // The §4.5 marking check compiles the path filter's pattern at
    // translate time; that compile is the query's.
    assert!(cold.engine.regex_compiles >= 1, "{:?}", cold.engine);

    let warm = db.query(q).unwrap();
    assert_eq!(warm.engine.plan_cache_hits, 1);
    assert_eq!(warm.engine.parse_ns, 0, "{:?}", warm.engine);
    assert_eq!(warm.engine.translate_ns, 0, "{:?}", warm.engine);
    assert_eq!(warm.engine.plan_ns, 0, "{:?}", warm.engine);
    assert_eq!(warm.engine.plan_steps, 0, "{:?}", warm.engine);
    assert_eq!(warm.engine.regex_compiles, 0, "{:?}", warm.engine);
    assert!(warm.engine.execute_ns > 0, "execution still runs");

    // Same answer, same SQL, same translate-time counters.
    assert_eq!(warm.ids(), cold.ids());
    assert_eq!(warm.sql(), cold.sql());
    assert_eq!(warm.engine.ppf_count, cold.engine.ppf_count);
    assert_eq!(warm.engine.union_branches, cold.engine.union_branches);
    assert_eq!(warm.engine.path_filters, cold.engine.path_filters);

    // The trace keeps its four-phase shape even on the warm path.
    let trace = warm.trace(q);
    for phase in PHASES {
        assert!(trace.span_named(phase).is_some(), "missing `{phase}`");
    }
}

#[test]
fn statically_empty_queries_are_cached_too() {
    let db = figure1_db();
    let cold = db.query("/A/Z").unwrap();
    assert!(cold.sql().is_none());
    let warm = db.query("/A/Z").unwrap();
    assert!(warm.sql().is_none());
    assert_eq!(warm.engine.plan_cache_hits, 1);
    assert!(warm.rows.rows.is_empty());
}

#[test]
fn cache_invalidates_after_a_new_document_load() {
    let mut db = figure1_db();
    let q = "//C//F";

    let first = db.query(q).unwrap();
    assert_eq!(first.ids().len(), 2);
    assert_eq!(db.query(q).unwrap().engine.plan_cache_hits, 1);

    // Loading another document must drop the cached statement and plans:
    // the result now includes the new F elements, and the query re-runs
    // the cold path (plan_cache_hits back to 0, phases re-timed).
    db.load_xml("<A><B><C><E><F>9</F></E></C></B></A>").unwrap();
    db.finalize().unwrap();
    let second = db.query(q).unwrap();
    assert_eq!(second.engine.plan_cache_hits, 0);
    assert!(second.engine.translate_ns > 0, "{:?}", second.engine);
    assert_eq!(second.ids().len(), 3, "new document's F must appear");

    // And the re-cached entry serves warm repeats again.
    assert_eq!(db.query(q).unwrap().engine.plan_cache_hits, 1);
}

#[test]
fn cache_invalidates_when_translate_options_change() {
    let mut db = figure1_db();
    let q = "//C//F";
    let marked = db.query(q).unwrap();
    assert!(db.query(q).unwrap().engine.plan_cache_hits == 1);

    // Toggling §4.5 marking changes the generated SQL (path filters
    // reappear); a stale cached statement would silently keep the old
    // shape.
    db.set_path_marking(false);
    let unmarked = db.query(q).unwrap();
    assert_eq!(unmarked.engine.plan_cache_hits, 0);
    assert_eq!(unmarked.ids(), marked.ids());
    assert!(
        unmarked.engine.path_filters >= marked.engine.path_filters,
        "marking off keeps at least as many path filters"
    );
}

#[test]
fn edge_db_cache_behaves_the_same() {
    let mut db = EdgeDb::new();
    db.load_xml(figure1_xml()).unwrap();
    db.finalize().unwrap();
    let q = "//C//F";

    let cold = db.query(q).unwrap();
    let warm = db.query(q).unwrap();
    assert_eq!(warm.engine.plan_cache_hits, 1);
    assert_eq!(
        warm.engine.parse_ns + warm.engine.translate_ns + warm.engine.plan_ns,
        0
    );
    assert_eq!(warm.ids(), cold.ids());

    db.load_xml("<A><C><F>9</F></C></A>").unwrap();
    db.finalize().unwrap();
    let after = db.query(q).unwrap();
    assert_eq!(after.engine.plan_cache_hits, 0);
    assert_eq!(after.ids().len(), cold.ids().len() + 1);
}
