//! End-to-end equivalence on the paper's Figure 1 document: for a broad
//! query corpus, the PPF-translated SQL (schema-aware AND Edge-like) must
//! return exactly the elements the native XPath evaluator returns.

use ppf_core::{EdgeDb, XmlDb};
use xmldom::Document;
use xpath::{evaluate, parse_xpath, Item};

fn figure1_doc() -> Document {
    xmldom::parse(
        "<A x='4'>\
           <B><C><D x='1'>9</D></C><C><E><F>1</F><F>2</F></E></C><G/></B>\
           <B><G><G/></G></B>\
         </A>",
    )
    .expect("xml")
}

/// Queries covering every axis, wildcards, predicates, unions.
const CORPUS: &[&str] = &[
    "/A",
    "/A/B",
    "/A/*",
    "/A/B/C",
    "/A/B/C/D",
    "/A/B/C/E/F",
    "//F",
    "//G",
    "//C//F",
    "/A//C",
    "/A/B//F",
    "//C/*/F",
    "/A/*/C",
    "/descendant-or-self::G",
    "//G//G",
    "//G/G",
    "/A[@x=4]//C",
    "/A[@x=5]//C",
    "/A[@x]/B",
    "/A/B[C]",
    "/A/B[G]",
    "/A/B[not(C)]",
    "/A/B[C and G]",
    "/A/B[C or G]",
    "/A/B[C/E/F=2]",
    "/A/*[C//F=2]",
    "/A/B[C/*/F=2]",
    "//E[F=1]",
    "//E[F=3]",
    "//F[.=2]",
    "//D[@x=1]",
    "//D[@x=2]",
    "//F/parent::E",
    "//F/parent::C",
    "//F/ancestor::B",
    "//F/ancestor::*",
    "//F/ancestor-or-self::F",
    "//G/ancestor-or-self::G",
    "//F/parent::E/parent::C",
    "//F/ancestor::C/D",
    "//D/following-sibling::*",
    "//D/following-sibling::E",
    "//C/following-sibling::G",
    "//G/preceding-sibling::C",
    "//E/preceding-sibling::D",
    "//D/following::F",
    "//D/following::G",
    "//G/preceding::F",
    "//F/following::G",
    "//F[parent::E]",
    "//F[parent::D]",
    "//*[parent::C]",
    "//G[parent::G or parent::B]",
    "//F[ancestor::B]",
    "//F[ancestor::G]",
    "//*[@x]",
    "/A/B/G | /A/B/C",
    "//D | //F",
    "//C[D]/following-sibling::C",
    "//B[C/D]",
    "//B[./C]",
    "//F[not(parent::D) and ancestor::B]",
    "/A/B/C/E/F[2]",
    "/A/B[1]/C",
    "/A/B[2]/G",
    "//D/following-sibling::E/F",
    "//F/following::G/G",
    "//C/following-sibling::G/preceding-sibling::C",
    "//G/preceding::D/following-sibling::E",
    "//F/ancestor::C/following-sibling::G",
    "//B/C/following-sibling::C[E]",
    "//E[count(F) = 2]",
    "//B[count(C) = 0]",
    "//C[count(D) = 1]",
    "//C[count(E) = 1]",
];

fn native_ids(doc: &Document, loaded: &shred::LoadedDoc, q: &str) -> Vec<i64> {
    let expr = parse_xpath(q).expect("parse");
    let items = evaluate(doc, &expr).expect("native eval");
    let mut out: Vec<i64> = items
        .into_iter()
        .map(|i| match i {
            Item::Node(n) => *loaded
                .element_ids
                .get(&n)
                .unwrap_or_else(|| panic!("result node {n:?} should be an element")),
            Item::Attr(..) => panic!("corpus queries return elements"),
        })
        .collect();
    out.sort();
    out
}

#[test]
fn schema_aware_matches_native() {
    let doc = figure1_doc();
    let mut db = XmlDb::new(&xmlschema::figure1_schema()).expect("db");
    let loaded = db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    for q in CORPUS {
        let expected = native_ids(&doc, &loaded, q);
        let result = db.query(q).unwrap_or_else(|e| panic!("query {q}: {e}"));
        let mut got = result.ids();
        got.sort();
        assert_eq!(got, expected, "query {q}\nsql: {:?}", result.sql());
    }
}

#[test]
fn edge_like_matches_native() {
    let doc = figure1_doc();
    let mut db = EdgeDb::new();
    let loaded = db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    for q in CORPUS {
        let expected = native_ids(&doc, &loaded, q);
        let result = db.query(q).unwrap_or_else(|e| panic!("query {q}: {e}"));
        let mut got = result.ids();
        got.sort();
        assert_eq!(got, expected, "query {q}\nsql: {:?}", result.sql());
    }
}

#[test]
fn marking_toggle_is_transparent() {
    // §4.5 optimization must never change results, only the SQL.
    let doc = figure1_doc();
    let mut db = XmlDb::new(&xmlschema::figure1_schema()).expect("db");
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    let mut db_off = XmlDb::new(&xmlschema::figure1_schema()).expect("db");
    db_off.set_path_marking(false);
    db_off.load(&doc).expect("load");
    db_off.finalize().expect("indexes");
    for q in CORPUS {
        let a = db.query(q).unwrap_or_else(|e| panic!("query {q}: {e}"));
        let b = db_off.query(q).unwrap_or_else(|e| panic!("query {q}: {e}"));
        let mut ia = a.ids();
        let mut ib = b.ids();
        ia.sort();
        ib.sort();
        assert_eq!(ia, ib, "marking changed results for {q}");
    }
}

#[test]
fn results_arrive_in_document_order() {
    let doc = figure1_doc();
    let mut db = XmlDb::new(&xmlschema::figure1_schema()).expect("db");
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    for q in ["//G", "//D | //F", "/A/B/*"] {
        let ids = db.query(q).expect("query").ids();
        // Loader ids follow document order, so sorted == document order.
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "out of order for {q}");
    }
}

#[test]
fn positional_predicate_unsupported_cases_error_cleanly() {
    let mut db = XmlDb::new(&xmlschema::figure1_schema()).expect("db");
    db.load(&figure1_doc()).expect("load");
    db.finalize().expect("indexes");
    // position() on a descendant-axis step is outside the SQL subset —
    // must be a clean error, not a wrong answer.
    assert!(db.query("//F[position() = last()]").is_err());
}
