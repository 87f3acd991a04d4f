//! The invariant the XPath translator's `ORDER BY id` rests on: both
//! shredders number elements in preorder from one counter per store, so
//! across every element table and every loaded document, ascending `id`
//! is document order (ascending `dewey_pos`, whose first component is the
//! document id), and no `id` is given out twice.

use relstore::{Database, Value};
use shred::naming::{COL_DEWEY, COL_ID};
use shred::{EdgeStore, SchemaAwareStore};
use xmlschema::figure1_schema;

/// Two Figure 1 documents of different shapes: recursion under `G`,
/// repeated `C`/`F` siblings, and a second document whose ids continue
/// the first's counter.
const DOCS: [&str; 2] = [
    "<A x='4'>\
       <B><C><D x='1'>9</D></C><C><E><F>1</F><F>2</F></E></C><G/></B>\
       <B><G><G/></G></B>\
     </A>",
    "<A x='7'>\
       <B><G><G><G/></G></G><C><E><F>3</F></E><D x='2'>5</D></C></B>\
       <B/><B><C><E/></C></B>\
     </A>",
];

/// `(id, dewey_pos)` of every row of every table that has a Dewey column.
fn element_rows(db: &Database) -> Vec<(i64, Vec<u8>)> {
    let mut rows = Vec::new();
    for table in db.tables() {
        let Some(dewey) = table.schema.col(COL_DEWEY) else {
            continue;
        };
        let id = table.schema.col(COL_ID).expect("element tables have an id");
        for (_, row) in table.rows() {
            let key = match &row[dewey] {
                Value::Bytes(b) => b.clone(),
                other => panic!("{}: Dewey cell {other}", table.name()),
            };
            rows.push((row[id].as_int().expect("integer id"), key));
        }
    }
    rows
}

fn assert_id_order_is_dewey_order(store: &str, db: &Database, expected_rows: usize) {
    let mut by_id = element_rows(db);
    assert_eq!(by_id.len(), expected_rows, "{store}: element rows");
    let mut by_dewey = by_id.clone();
    by_id.sort_by_key(|(id, _)| *id);
    by_dewey.sort_by(|a, b| a.1.cmp(&b.1));
    assert_eq!(by_id, by_dewey, "{store}: id order is not Dewey order");
    assert!(
        by_id.windows(2).all(|w| w[0].0 < w[1].0),
        "{store}: an id repeats across tables"
    );
}

#[test]
fn schema_aware_ids_follow_document_order_across_tables_and_documents() {
    let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
    let mut elements = 0;
    for xml in DOCS {
        let loaded = store.load(&xmldom::parse(xml).expect("xml")).expect("load");
        elements += loaded.element_ids.len();
    }
    store.create_indexes().expect("indexes");
    assert_id_order_is_dewey_order("schema-aware", store.db(), elements);
}

#[test]
fn edge_ids_follow_document_order_across_documents() {
    let mut store = EdgeStore::new();
    let mut elements = 0;
    for xml in DOCS {
        let loaded = store.load(&xmldom::parse(xml).expect("xml")).expect("load");
        elements += loaded.element_ids.len();
    }
    store.create_indexes().expect("indexes");
    assert_id_order_is_dewey_order("edge", store.db(), elements);
}
