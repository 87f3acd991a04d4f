//! XPath Accelerator storage (Grust's pre/post encoding, paper ref 2).
//!
//! One central `Accel` relation holds every element with its preorder
//! rank (`pre`), postorder rank (`post`), parent's preorder rank
//! (`par_pre`), subtree `size`, tree `level`, tag `name` and direct text
//! `value`. Attributes live in a separate `AccelAttrs` relation. The
//! structural axes become *window* predicates over (pre, post).

use std::collections::HashMap;

use relstore::{ColType, Database, TableSchema, Value};
use shred::schema_aware::{LoadedDoc, ShredError};
use xmldom::{Document, NodeId};

/// Central accelerator relation.
pub const ACCEL_TABLE: &str = "Accel";
/// Attribute side relation.
pub const ACCEL_ATTRS: &str = "AccelAttrs";

/// The schema-oblivious pre/post store.
pub struct AccelStore {
    db: Database,
    next_pre: i64,
    next_doc: i64,
    indexed: bool,
}

impl Default for AccelStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AccelStore {
    pub fn new() -> AccelStore {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            ACCEL_TABLE,
            &[
                ("pre", ColType::Int),
                ("post", ColType::Int),
                ("par_pre", ColType::Int),
                ("size", ColType::Int),
                ("level", ColType::Int),
                ("doc_id", ColType::Int),
                ("name", ColType::Str),
                ("value", ColType::Str),
            ],
        ))
        .expect("fresh database");
        db.create_table(TableSchema::new(
            ACCEL_ATTRS,
            &[
                ("owner_pre", ColType::Int),
                ("name", ColType::Str),
                ("value", ColType::Str),
            ],
        ))
        .expect("fresh database");
        AccelStore {
            db,
            next_pre: 1,
            next_doc: 1,
            indexed: false,
        }
    }

    /// Load a document; element ids are the global `pre` ranks (document
    /// order, like the other stores).
    pub fn load(&mut self, doc: &Document) -> Result<LoadedDoc, ShredError> {
        let root = doc
            .document_element()
            .ok_or_else(|| ShredError("document has no element".into()))?;
        let doc_id = self.next_doc;
        self.next_doc += 1;

        // Assign pre/post/size/level in one traversal.
        let mut element_ids: HashMap<NodeId, i64> = HashMap::new();
        let mut post_counter: i64 = 1;
        let mut rows: Vec<(NodeId, i64, i64, i64, i64)> = Vec::new(); // (node, pre, post, size, level)

        fn walk(
            doc: &Document,
            n: NodeId,
            level: i64,
            next_pre: &mut i64,
            post: &mut i64,
            ids: &mut HashMap<NodeId, i64>,
            rows: &mut Vec<(NodeId, i64, i64, i64, i64)>,
        ) -> i64 {
            let pre = *next_pre;
            *next_pre += 1;
            ids.insert(n, pre);
            let mut size = 0;
            for c in doc.child_elements(n).collect::<Vec<_>>() {
                size += 1 + walk(doc, c, level + 1, next_pre, post, ids, rows);
            }
            let my_post = *post;
            *post += 1;
            rows.push((n, pre, my_post, size, level));
            size
        }
        walk(
            doc,
            root,
            1,
            &mut self.next_pre,
            &mut post_counter,
            &mut element_ids,
            &mut rows,
        );

        // Globalize post ranks per document by offsetting with the pre
        // base, preserving intra-document comparisons. Window predicates
        // compare within a document; the doc_id column scopes them.
        let base = element_ids[&root] - 1;
        for (n, pre, post, size, level) in rows {
            let par = doc
                .parent(n)
                .and_then(|p| element_ids.get(&p))
                .copied()
                .map(Value::Int)
                .unwrap_or(Value::Null);
            let text = doc.direct_text(n);
            self.db.table_mut(ACCEL_TABLE).expect("Accel").insert(vec![
                Value::Int(pre),
                Value::Int(post + base),
                par,
                Value::Int(size),
                Value::Int(level),
                Value::Int(doc_id),
                Value::Str(doc.name(n).expect("element").to_string()),
                if text.is_empty() {
                    Value::Null
                } else {
                    Value::Str(text)
                },
            ])?;
            for (aname, avalue) in doc.attributes(n) {
                self.db
                    .table_mut(ACCEL_ATTRS)
                    .expect("AccelAttrs")
                    .insert(vec![
                        Value::Int(pre),
                        Value::Str(aname.clone()),
                        Value::Str(avalue.clone()),
                    ])?;
            }
        }
        Ok(LoadedDoc {
            doc_id,
            element_ids,
        })
    }

    /// Ordered indexes: `pre` (PK), `par_pre`, `(name, pre)` and `post`.
    pub fn create_indexes(&mut self) -> Result<(), ShredError> {
        if self.indexed {
            return Ok(());
        }
        {
            let t = self.db.table_mut(ACCEL_TABLE).expect("Accel");
            t.create_index("accel_pre", &["pre"])?;
            t.create_index("accel_par", &["par_pre"])?;
            t.create_index("accel_name_pre", &["name", "pre"])?;
            t.create_index("accel_post", &["post"])?;
        }
        let a = self.db.table_mut(ACCEL_ATTRS).expect("AccelAttrs");
        a.create_index("accelattrs_owner", &["owner_pre"])?;
        a.create_index("accelattrs_name", &["name"])?;
        self.indexed = true;
        Ok(())
    }

    pub fn db(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pre_post_windows() {
        let mut s = AccelStore::new();
        let doc = xmldom::parse("<a><b><c/></b><d/></a>").expect("xml");
        let loaded = s.load(&doc).expect("load");
        s.create_indexes().expect("index");
        let t = s.db().table(ACCEL_TABLE).expect("Accel");
        assert_eq!(t.len(), 4);
        // find rows by name
        let row = |name: &str| -> Vec<i64> {
            t.rows()
                .find(|(_, r)| r[6] == Value::from(name))
                .map(|(_, r)| {
                    vec![
                        r[0].as_int().expect("pre"),
                        r[1].as_int().expect("post"),
                        r[3].as_int().expect("size"),
                        r[4].as_int().expect("level"),
                    ]
                })
                .expect("row")
        };
        let a = row("a");
        let b = row("b");
        let c = row("c");
        let d = row("d");
        // descendant windows: pre(desc) > pre(anc) && post(desc) < post(anc)
        assert!(b[0] > a[0] && b[1] < a[1]);
        assert!(c[0] > b[0] && c[1] < b[1]);
        assert!(d[0] > a[0] && d[1] < a[1]);
        // following: pre(d) > pre(c) && post(d) > post(c)
        assert!(d[0] > c[0] && d[1] > c[1]);
        // sizes
        assert_eq!(a[2], 3);
        assert_eq!(b[2], 1);
        assert_eq!(c[2], 0);
        // levels
        assert_eq!(a[3], 1);
        assert_eq!(c[3], 3);
        assert_eq!(loaded.element_ids.len(), 4);
    }

    #[test]
    fn ids_follow_document_order() {
        let mut s = AccelStore::new();
        let doc = xmldom::parse("<a><b><c/></b><d/></a>").expect("xml");
        let loaded = s.load(&doc).expect("load");
        let mut pairs: Vec<_> = loaded.element_ids.into_iter().collect();
        pairs.sort();
        for w in pairs.windows(2) {
            assert!(w[0].1 < w[1].1);
        }
    }

    #[test]
    fn attributes_in_side_relation() {
        let mut s = AccelStore::new();
        let doc = xmldom::parse("<a id='x'><b k='v'/></a>").expect("xml");
        s.load(&doc).expect("load");
        assert_eq!(s.db().table(ACCEL_ATTRS).expect("attrs").len(), 2);
    }
}
