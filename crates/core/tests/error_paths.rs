//! Error handling and boundary behaviour of the translator and engine:
//! unsupported constructs must fail cleanly (never silently return wrong
//! answers), and statically-empty queries must be detected.

use ppf_core::XmlDb;
use xmlschema::figure1_schema;

fn db() -> XmlDb {
    let mut db = XmlDb::new(&figure1_schema()).expect("db");
    db.load_xml("<A x='1'><B><C><D>1</D></C></B></A>")
        .expect("load");
    db.finalize().expect("indexes");
    db
}

#[test]
fn statically_empty_queries() {
    let db = db();
    // Names not in the schema, impossible nestings, unsatisfiable
    // attribute tests.
    for q in [
        "/Z",
        "/A/F",
        "//F/parent::D",
        "/B/A",
        "//D[@y=1]",
        "/A/parent::B",
    ] {
        let t = db.translate(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert!(t.stmt.is_none(), "{q} should be statically empty");
        let r = db.query(q).expect("empty result");
        assert!(r.rows.rows.is_empty());
        assert!(r.sql().is_none());
    }
}

#[test]
fn unsupported_constructs_error() {
    let db = db();
    for q in [
        "//B[position() = last()]", // last() needs windowing
        "//B[C][2]",                // positional after a filter predicate
        "//B[count(*) = 1]",        // ambiguous count
        "3",                        // not a path
        "B/C",                      // relative top-level path
    ] {
        assert!(db.query(q).is_err(), "{q} should be rejected");
    }
}

#[test]
fn malformed_xpath_is_a_parse_error() {
    let db = db();
    for q in ["//", "/A[", "/A]", "/A/unknown::B", "/A/@"] {
        assert!(db.query(q).is_err(), "{q} should fail to parse");
    }
}

#[test]
fn load_rejects_schema_violations() {
    let mut db = XmlDb::new(&figure1_schema()).expect("db");
    assert!(db.load_xml("<A><Zed/></A>").is_err());
    assert!(db.load_xml("<Wrong/>").is_err());
    assert!(db.load_xml("<A x='1'").is_err());
}

#[test]
fn queries_work_before_finalize_too() {
    // Indexes are an optimization; correctness must not depend on them.
    let mut db = XmlDb::new(&figure1_schema()).expect("db");
    db.load_xml("<A x='4'><B><C><D>7</D></C></B></A>")
        .expect("load");
    // no finalize()
    let r = db.query("//D").expect("query without indexes");
    assert_eq!(r.rows.rows.len(), 1);
}

#[test]
fn empty_database_returns_empty_results() {
    let db = XmlDb::new(&figure1_schema()).expect("db");
    let r = db.query("//F").expect("query on empty db");
    assert!(r.rows.rows.is_empty());
}

#[test]
fn multiple_documents_are_isolated() {
    let mut db = XmlDb::new(&figure1_schema()).expect("db");
    db.load_xml("<A x='1'><B><C><D>1</D></C></B></A>")
        .expect("doc1");
    db.load_xml("<A x='2'><B><G/></B></A>").expect("doc2");
    db.finalize().expect("indexes");
    // Per-document structural joins: the descendant join must not leak
    // across documents.
    let r = db.query("/A[@x=1]//G").expect("query");
    assert!(r.rows.rows.is_empty(), "G belongs to the other document");
    let r2 = db.query("/A[@x=2]//G").expect("query");
    assert_eq!(r2.rows.rows.len(), 1);
    let all = db.query("//A").expect("query");
    assert_eq!(all.rows.rows.len(), 2);
}

#[test]
fn attribute_projection_output() {
    let db = db();
    let r = db.query("/A/@x").expect("attribute query");
    assert_eq!(r.output, ppf_core::OutputKind::AttributeValue);
    assert_eq!(r.rows.rows.len(), 1);
    // value column holds the attribute
    let vi = r
        .rows
        .columns
        .iter()
        .position(|c| c == "value")
        .expect("value col");
    assert_eq!(r.rows.rows[0][vi], relstore::Value::Int(1));
}

#[test]
fn statically_empty_results_report_their_kinds_columns() {
    let db = db();
    for (empty, full) in [
        ("/B", "/A"),
        ("/A/@y", "/A/@x"),
        ("//G/text()", "//D/text()"),
    ] {
        let e = db.query(empty).expect(empty);
        let f = db.query(full).expect(full);
        assert!(e.stmt.is_none(), "{empty} should be statically empty");
        assert!(e.rows.rows.is_empty(), "{empty}");
        assert_eq!(e.output, f.output, "{empty}");
        assert_eq!(e.rows.columns, f.rows.columns, "{empty} vs {full}");
    }
}

#[test]
fn text_projection_output() {
    let db = db();
    let r = db.query("//D/text()").expect("text query");
    assert_eq!(r.output, ppf_core::OutputKind::TextValue);
    assert_eq!(r.rows.rows.len(), 1);
}
