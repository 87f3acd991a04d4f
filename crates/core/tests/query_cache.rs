//! The engine's XPath-keyed query cache: warm repeats must skip parse,
//! translate and plan entirely (zero phase nanos, `plan_cache_hits`
//! set), give identical results, and invalidate whenever the database
//! mutates — most importantly after a new document load, which can
//! change the translation itself (§4.5 path marking depends on which
//! paths exist). A text that misses but has the shape of a cached one
//! (the same query up to the string literals it compares paths with)
//! skips translation only; whatever translation reads stays in the
//! shape.

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

/// A library with text values, for the shape-cache tests: the texts of
/// one shape differ in the string literals they compare paths with.
fn library_xml() -> &'static str {
    "<lib>\
       <book id='b1' n='1'><title>XPath</title><author>Ann</author></book>\
       <book id='b2' n='2'><title>SQL</title><author>Bob</author><author>Cy</author></book>\
       <book id=\"it's\" n='3'><title>Trees</title></book>\
     </lib>"
}

fn library_db() -> XmlDb {
    let schema = xmlschema::parse_schema(
        "root lib\n\
         lib = book*\n\
         book @id @n:int = title author*\n\
         title : text\n\
         author : text\n",
    )
    .unwrap();
    let mut db = XmlDb::new(&schema).unwrap();
    db.load_xml(library_xml()).unwrap();
    db.finalize().unwrap();
    db
}

fn library_edge_db() -> EdgeDb {
    let mut db = EdgeDb::new();
    db.load_xml(library_xml()).unwrap();
    db.finalize().unwrap();
    db
}

/// Runs `$body` once with `$db` bound to a loaded library `XmlDb` and
/// `$fresh` to the function building it, then once with the `EdgeDb`.
macro_rules! on_both_mappings {
    (|$db:ident, $fresh:ident| $body:block) => {{
        {
            let $fresh = library_db;
            let $db = $fresh();
            $body
        }
        {
            let $fresh = library_edge_db;
            let $db = $fresh();
            $body
        }
    }};
}

#[test]
fn second_literal_of_a_shape_skips_translation() {
    on_both_mappings!(|db, fresh| {
        for [first, second] in [
            ["//book[@id = 'b1']/title", "//book[@id = 'b2']/title"],
            ["/lib/book[title = 'SQL']", "/lib/book[title = 'XPath']"],
            ["//book['Ann' = author]/@id", "//book['Cy' = author]/@id"],
            [
                "//book[author = 'Ann' or author = 'Cy']/title",
                "//book[author = 'Bob' or author = 'Ann']/title",
            ],
            // The quote a literal is written with is not part of its shape.
            ["//book[@id = 'b2']", "//book[@id = \"it's\"]"],
        ] {
            let cold = db.query(first).unwrap();
            assert_eq!(cold.engine.shape_hits, 0, "{first}");
            assert!(cold.engine.translate_ns > 0, "{first}: {:?}", cold.engine);

            let r = db.query(second).unwrap();
            assert_eq!(r.engine.plan_cache_hits, 0, "{second}");
            assert_eq!(r.engine.shape_hits, 1, "{second}");
            assert_eq!(r.engine.translate_ns, 0, "{second}: {:?}", r.engine);
            assert_eq!(r.engine.regex_compiles, 0, "{second}: {:?}", r.engine);
            assert!(r.engine.parse_ns > 0, "{second}: {:?}", r.engine);
            assert!(r.engine.plan_ns > 0, "{second}: {:?}", r.engine);
            let expected = fresh().query(second).unwrap().ids();
            assert!(!expected.is_empty(), "{second} selects something");
            assert_eq!(r.ids(), expected, "{second}");
            assert_eq!(r.sql(), db.sql_for(second).unwrap(), "{second}");

            // The text itself is now cached under its own key.
            let warm = db.query(second).unwrap();
            assert_eq!(warm.engine.plan_cache_hits, 1, "{second}");
            assert_eq!(warm.engine.shape_hits, 0, "{second}");
            assert_eq!(warm.ids(), r.ids(), "{second}");
        }
    });
}

#[test]
fn what_translation_reads_stays_in_the_shape() {
    on_both_mappings!(|db, fresh| {
        for [first, second] in [
            [
                "//book[contains(title, 'S')]",
                "//book[contains(title, 'X')]",
            ],
            [
                "//book[starts-with(title, 'T')]",
                "//book[starts-with(title, 'S')]",
            ],
            ["//book[@n = 1]", "//book[@n = 2]"],
            ["/lib/book[1]", "/lib/book[2]"],
            ["//book[count(author) = 1]", "//book[count(author) = 2]"],
        ] {
            db.query(first).unwrap();
            let r = db.query(second).unwrap();
            assert_eq!(r.engine.plan_cache_hits, 0, "{second}");
            assert_eq!(r.engine.shape_hits, 0, "{second}");
            assert!(r.engine.translate_ns > 0, "{second}: {:?}", r.engine);
            let expected = fresh().query(second).unwrap().ids();
            assert!(!expected.is_empty(), "{second} selects something");
            assert_eq!(r.ids(), expected, "{second}");
        }
    });
}

#[test]
fn every_invalidation_drops_shapes_too() {
    let shape_hit = |r: ppf_core::QueryResult| r.engine.shape_hits == 1;
    let extra = "<lib><book id='b9' n='9'><title>More</title></book></lib>";

    let mut db = library_db();
    let mut edge = library_edge_db();
    db.query("//book[@id = 'b1']").unwrap();
    edge.query("//book[@id = 'b1']").unwrap();
    db.load_xml(extra).unwrap();
    edge.load_xml(extra).unwrap();
    let r = db.query("//book[@id = 'b9']").unwrap();
    assert!(!shape_hit(r.clone()), "load");
    assert_eq!(r.ids().len(), 1, "the loaded document's book matches");
    let r = edge.query("//book[@id = 'b9']").unwrap();
    assert!(!shape_hit(r.clone()), "load (edge)");
    assert_eq!(
        r.ids().len(),
        1,
        "the loaded document's book matches (edge)"
    );

    db.finalize().unwrap();
    edge.finalize().unwrap();
    assert!(
        !shape_hit(db.query("//book[@id = 'b2']").unwrap()),
        "finalize"
    );
    assert!(
        !shape_hit(edge.query("//book[@id = 'b2']").unwrap()),
        "finalize (edge)"
    );

    db.set_exec_options(ppf_core::ExecOptions::default());
    edge.set_exec_options(ppf_core::ExecOptions::default());
    assert!(
        !shape_hit(db.query("//book[@id = 'x3']").unwrap()),
        "exec options"
    );
    assert!(
        !shape_hit(edge.query("//book[@id = 'x3']").unwrap()),
        "exec options (edge)"
    );

    db.set_path_marking(true);
    assert!(
        !shape_hit(db.query("//book[@id = 'x4']").unwrap()),
        "path marking"
    );

    db.set_fk_joins(true);
    assert!(
        !shape_hit(db.query("//book[@id = 'x5']").unwrap()),
        "fk joins"
    );

    // Untouched, the shape serves the next literal.
    assert!(
        shape_hit(db.query("//book[@id = 'x6']").unwrap()),
        "still cached"
    );
    assert!(
        shape_hit(edge.query("//book[@id = 'x6']").unwrap()),
        "still cached (edge)"
    );
}
