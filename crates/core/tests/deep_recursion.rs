//! Stress tests over deeply recursive documents: the I-P machinery, the
//! Dewey codec at depth, and the regex path filters must all hold up when
//! root-to-node paths are dozens of segments long.

use ppf_core::{EdgeDb, XmlDb};
use xmldom::TreeBuilder;
use xpath::{evaluate, parse_xpath, Item};

const DEPTH: usize = 40;

/// parlist/listitem towers of depth 40, with keywords sprinkled at every
/// fifth level.
fn deep_doc() -> xmldom::Document {
    let mut b = TreeBuilder::new();
    b.start_element("doc");
    b.start_element("parlist");
    for level in 0..DEPTH {
        b.start_element("listitem");
        if level % 5 == 0 {
            b.leaf("keyword", format!("k{level}"));
        }
        b.start_element("parlist");
    }
    // unwind: each level opened listitem + parlist
    for _ in 0..DEPTH {
        b.end_element(); // parlist
        b.end_element(); // listitem
    }
    b.end_element(); // outer parlist
    b.end_element(); // doc
    b.finish()
}

fn schema() -> xmlschema::Schema {
    xmlschema::parse_schema(
        "root doc\ndoc = parlist\nparlist = listitem*\nlistitem = keyword? parlist?\nkeyword : text",
    )
    .expect("schema")
}

const QUERIES: &[&str] = &[
    "//keyword",
    "//listitem//keyword",
    "//parlist/listitem/parlist/listitem/keyword",
    "//listitem[keyword]",
    "//keyword/ancestor::listitem",
    "//listitem[not(keyword)]",
    "//keyword[.='k20']/ancestor::listitem/keyword",
    "/doc//parlist//parlist//keyword",
];

#[test]
fn deep_recursion_equivalence() {
    let doc = deep_doc();
    let mut sa = XmlDb::new(&schema()).expect("db");
    let sa_loaded = sa.load(&doc).expect("load");
    sa.finalize().expect("indexes");
    let mut ed = EdgeDb::new();
    let ed_loaded = ed.load(&doc).expect("load");
    ed.finalize().expect("indexes");

    for q in QUERIES {
        let e = parse_xpath(q).expect("parse");
        let items = evaluate(&doc, &e).unwrap_or_else(|err| panic!("{q}: {err}"));
        let mut expected_sa: Vec<i64> = items
            .iter()
            .map(|i| match i {
                Item::Node(n) => sa_loaded.element_ids[n],
                _ => panic!("elements only"),
            })
            .collect();
        expected_sa.sort();
        let mut got = sa.query(q).unwrap_or_else(|err| panic!("{q}: {err}")).ids();
        got.sort();
        assert_eq!(got, expected_sa, "schema-aware {q}");

        let mut expected_ed: Vec<i64> = items
            .iter()
            .map(|i| match i {
                Item::Node(n) => ed_loaded.element_ids[n],
                _ => panic!("elements only"),
            })
            .collect();
        expected_ed.sort();
        let mut got = ed.query(q).unwrap_or_else(|err| panic!("{q}: {err}")).ids();
        got.sort();
        assert_eq!(got, expected_ed, "edge {q}");
    }
}

#[test]
fn all_recursive_relations_are_infinite_marked() {
    let m = xmlschema::Marking::analyze(&schema());
    for name in ["parlist", "listitem", "keyword"] {
        assert_eq!(
            m.mark(name),
            Some(&xmlschema::PathMark::Infinite),
            "{name} should be I-P"
        );
    }
    assert_eq!(
        m.mark("doc"),
        Some(&xmlschema::PathMark::Unique("/doc".into()))
    );
}

#[test]
fn dewey_depth_is_bounded_by_tree_depth() {
    let doc = deep_doc();
    let mut db = XmlDb::new(&schema()).expect("db");
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    // The deepest keyword sits ~80 levels down; its dewey_pos is a binary
    // string of 3 bytes per level and everything still works.
    // Results carry only the id, so the Dewey key is read from the store.
    let r = db.query("//keyword[.='k35']").expect("query");
    assert_eq!(r.rows.rows.len(), 1);
    let id = relstore::Value::Int(r.ids()[0]);
    let keyword = db.db().table("keyword").expect("keyword table");
    let (id_col, dewey_col) = (
        keyword.schema.col("id").expect("id column"),
        keyword.schema.col("dewey_pos").expect("dewey column"),
    );
    let (_, row) = keyword
        .rows()
        .find(|(_, row)| row[id_col] == id)
        .expect("keyword row");
    let dewey = row[dewey_col].as_bytes().expect("dewey").len();
    assert!(dewey > 3 * 60, "deep dewey expected, got {dewey} bytes");
}

#[test]
fn regex_on_long_paths_stays_fast() {
    // A pathological pattern over an 80-segment path must complete
    // quickly (the Pike VM is linear; a backtracker would blow up).
    let doc = deep_doc();
    let mut db = XmlDb::new(&schema()).expect("db");
    db.load(&doc).expect("load");
    db.finalize().expect("indexes");
    let t0 = std::time::Instant::now();
    let r = db
        .query("//parlist//listitem//parlist//listitem//keyword")
        .expect("query");
    assert!(!r.rows.rows.is_empty());
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(5),
        "took {:?}",
        t0.elapsed()
    );
}
