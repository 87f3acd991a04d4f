//! Schema-aware XML-to-relational shredding (paper §3).
//!
//! One relation per element definition (our schemas are DTD-style, so
//! element name ↔ relation is a bijection — see DESIGN.md). Every relation
//! carries the four descriptors of Figure 1(c): element id, parent id,
//! root-to-node path id and binary Dewey position; text content and
//! attributes are inlined as typed columns; root relations also carry a
//! `doc_id`.
//!
//! Indexes per §3.1: the `id` primary key, the parent foreign key, and a
//! composite `(dewey_pos, path_id)` index, each an ordered index.

use std::collections::HashMap;

use relstore::{ColType, Database, StoreError, TableSchema, Value};
use xmldom::{Document, NodeId};
use xmlschema::{Marking, Schema, ValueType};

use crate::dewey;
use crate::naming::*;

/// Mapping from schema value types to SQL column types.
fn col_type(v: ValueType) -> ColType {
    match v {
        ValueType::Text => ColType::Str,
        ValueType::Int => ColType::Int,
        ValueType::Float => ColType::Float,
    }
}

/// Parse a text value according to its declared type; falls back to NULL
/// when the content does not parse (dirty data stays queryable as text in
/// `Text` columns; typed columns are strict).
fn typed_value(raw: &str, ty: ValueType) -> Value {
    let trimmed = raw.trim();
    match ty {
        ValueType::Text => {
            if raw.is_empty() {
                Value::Null
            } else {
                Value::Str(raw.to_string())
            }
        }
        ValueType::Int => trimmed
            .parse::<i64>()
            .map(Value::Int)
            .unwrap_or(Value::Null),
        ValueType::Float => trimmed
            .parse::<f64>()
            .map(Value::Float)
            .unwrap_or(Value::Null),
    }
}

/// Error raised by loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShredError(pub String);

impl std::fmt::Display for ShredError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shredding error: {}", self.0)
    }
}

impl std::error::Error for ShredError {}

impl From<StoreError> for ShredError {
    fn from(e: StoreError) -> Self {
        ShredError(e.to_string())
    }
}

/// One loaded document: its assigned id and the tree-node → element-id map
/// (used by the equivalence tests to compare SQL results against the
/// native evaluator).
#[derive(Debug, Clone)]
pub struct LoadedDoc {
    pub doc_id: i64,
    pub element_ids: HashMap<NodeId, i64>,
}

/// A schema-aware shredded store.
pub struct SchemaAwareStore {
    db: Database,
    schema: Schema,
    marking: Marking,
    path_ids: HashMap<String, i64>,
    next_id: i64,
    next_doc: i64,
    indexed: bool,
}

impl SchemaAwareStore {
    /// Create the relational structures for a schema (empty tables).
    pub fn new(schema: &Schema) -> Result<SchemaAwareStore, ShredError> {
        let mut db = Database::new();
        db.create_table(TableSchema::new(
            PATHS_TABLE,
            &[(PATHS_ID, ColType::Int), (PATHS_PATH, ColType::Str)],
        ))?;
        for name in schema.names() {
            let def = schema.def(name).expect("listed name");
            let mut cols: Vec<(String, ColType)> = vec![
                (COL_ID.to_string(), ColType::Int),
                (COL_PAR.to_string(), ColType::Int),
                (COL_PATH.to_string(), ColType::Int),
                (COL_DEWEY.to_string(), ColType::Bytes),
            ];
            if name == schema.root() {
                cols.push((COL_DOC.to_string(), ColType::Int));
            }
            if let Some(t) = def.text {
                cols.push((COL_TEXT.to_string(), col_type(t)));
            }
            for attr in &def.attributes {
                cols.push((attr_col(&attr.name), col_type(attr.ty)));
            }
            let col_refs: Vec<(&str, ColType)> =
                cols.iter().map(|(n, t)| (n.as_str(), *t)).collect();
            db.create_table(TableSchema::new(name, &col_refs))?;
        }
        Ok(SchemaAwareStore {
            db,
            marking: Marking::analyze(schema),
            schema: schema.clone(),
            path_ids: HashMap::new(),
            next_id: 1,
            next_doc: 1,
            indexed: false,
        })
    }

    /// Load one document. The document must validate against the schema.
    pub fn load(&mut self, doc: &Document) -> Result<LoadedDoc, ShredError> {
        // relstore maintains indexes on insert, so loading after
        // `create_indexes` is allowed — bulk loads are just faster before.
        self.schema
            .validate(doc)
            .map_err(|e| ShredError(e.to_string()))?;
        let doc_id = self.next_doc;
        self.next_doc += 1;
        let mut element_ids = HashMap::new();

        let root = doc.document_element().expect("validated document");
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            let name = doc.name(n).expect("element").to_string();
            let def = self.schema.def(&name).expect("validated").clone();
            let id = self.next_id;
            self.next_id += 1;
            element_ids.insert(n, id);

            let par = doc
                .parent(n)
                .and_then(|p| element_ids.get(&p))
                .copied()
                .map(Value::Int)
                .unwrap_or(Value::Null);
            let path_id = self.intern_path(&doc.path_string(n))?;
            // Dewey: prepend the document id so structural joins cannot
            // match across documents (see DESIGN.md).
            let mut vector = vec![doc_id as u32];
            vector.extend(doc.dewey(n));
            let dewey = dewey::encode(&vector).map_err(|e| ShredError(e.to_string()))?;

            let mut row = vec![
                Value::Int(id),
                par,
                Value::Int(path_id),
                Value::Bytes(dewey),
            ];
            if name == self.schema.root() {
                row.push(Value::Int(doc_id));
            }
            if let Some(t) = def.text {
                row.push(typed_value(&doc.direct_text(n), t));
            }
            for attr in &def.attributes {
                let v = doc
                    .attribute(n, &attr.name)
                    .map(|raw| typed_value(raw, attr.ty))
                    .unwrap_or(Value::Null);
                row.push(v);
            }
            self.db
                .table_mut(&name)
                .expect("created in new()")
                .insert(row)?;

            // Push children in reverse so ids follow document order.
            for c in doc.child_elements(n).collect::<Vec<_>>().into_iter().rev() {
                stack.push(c);
            }
        }
        Ok(LoadedDoc {
            doc_id,
            element_ids,
        })
    }

    fn intern_path(&mut self, path: &str) -> Result<i64, ShredError> {
        if let Some(&id) = self.path_ids.get(path) {
            return Ok(id);
        }
        let id = self.path_ids.len() as i64 + 1;
        self.path_ids.insert(path.to_string(), id);
        self.db
            .table_mut(PATHS_TABLE)
            .expect("created in new()")
            .insert(vec![Value::Int(id), Value::Str(path.to_string())])?;
        Ok(id)
    }

    /// Create the §3.1 indexes. Call once after bulk loading.
    pub fn create_indexes(&mut self) -> Result<(), ShredError> {
        if self.indexed {
            return Ok(());
        }
        let names: Vec<String> = self.schema.names().map(|s| s.to_string()).collect();
        for name in names {
            let t = self.db.table_mut(&name).expect("mapping relation");
            t.create_index(&format!("{name}_id"), &[COL_ID])?;
            t.create_index(&format!("{name}_par"), &[COL_PAR])?;
            // path_id is a foreign-key column (into Paths), so it gets an
            // index per §3.1's "one index for each foreign-key column".
            t.create_index(&format!("{name}_pathid"), &[COL_PATH])?;
            t.create_index(&format!("{name}_dewey_path"), &[COL_DEWEY, COL_PATH])?;
        }
        let p = self.db.table_mut(PATHS_TABLE).expect("Paths");
        p.create_index("paths_id", &[PATHS_ID])?;
        self.indexed = true;
        Ok(())
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The §4.5 U-P/F-P/I-P marking for this schema.
    pub fn marking(&self) -> &Marking {
        &self.marking
    }

    /// Number of distinct root-to-node paths seen so far.
    pub fn path_count(&self) -> usize {
        self.path_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlschema::figure1_schema;

    fn figure1_doc() -> Document {
        xmldom::parse(
            "<A x='4'>\
               <B><C><D x='1'>9</D></C><C><E><F>1</F><F>2</F></E></C><G/></B>\
               <B><G><G/></G></B>\
             </A>",
        )
        .expect("xml")
    }

    #[test]
    fn creates_relation_per_definition() {
        let store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        let names: Vec<&str> = store.db().table_names().collect();
        assert_eq!(names, vec!["A", "B", "C", "D", "E", "F", "G", "Paths"]);
        // Root relation has doc_id.
        let a = store.db().table("A").expect("A");
        assert!(a.schema.col(COL_DOC).is_some());
        assert!(a.schema.col(&attr_col("x")).is_some());
        let b = store.db().table("B").expect("B");
        assert!(b.schema.col(COL_DOC).is_none());
    }

    #[test]
    fn loads_figure1_document() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        let loaded = store.load(&figure1_doc()).expect("load");
        store.create_indexes().expect("index");
        assert_eq!(loaded.element_ids.len(), 12);
        assert_eq!(store.db().table("A").expect("A").len(), 1);
        assert_eq!(store.db().table("B").expect("B").len(), 2);
        assert_eq!(store.db().table("F").expect("F").len(), 2);
        assert_eq!(store.db().table("G").expect("G").len(), 3);
        // Distinct paths: /A, /A/B, /A/B/C, /A/B/C/D, /A/B/C/E, /A/B/C/E/F,
        // /A/B/G, /A/B/G/G, /A/B/G/G/G? No — G under B, G under G.
        assert!(store.path_count() >= 7);
    }

    #[test]
    fn element_ids_are_document_ordered() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        let doc = figure1_doc();
        let loaded = store.load(&doc).expect("load");
        let mut pairs: Vec<(NodeId, i64)> = loaded.element_ids.into_iter().collect();
        pairs.sort();
        for w in pairs.windows(2) {
            assert!(w[0].1 < w[1].1, "ids must follow document order");
        }
    }

    #[test]
    fn typed_columns() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        store.load(&figure1_doc()).expect("load");
        let f = store.db().table("F").expect("F");
        let texts: Vec<Value> = f.rows().map(|(_, r)| r[4].clone()).collect();
        assert_eq!(texts, vec![Value::Int(1), Value::Int(2)]);
        let d = store.db().table("D").expect("D");
        let (_, row) = d.rows().next().expect("one D");
        assert_eq!(row[d.schema.col("text").expect("text")], Value::Int(9));
        assert_eq!(
            row[d.schema.col(&attr_col("x")).expect("attr_x")],
            Value::Int(1)
        );
    }

    #[test]
    fn dewey_positions_prefix_doc_id() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        store.load(&figure1_doc()).expect("load");
        store.load(&figure1_doc()).expect("load 2");
        let a = store.db().table("A").expect("A");
        let deweys: Vec<Vec<u32>> = a
            .rows()
            .map(|(_, r)| dewey::decode(r[3].as_bytes().expect("bytes")))
            .collect();
        assert_eq!(deweys, vec![vec![1, 1], vec![2, 1]]);
    }

    #[test]
    fn paths_are_interned_once() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        store.load(&figure1_doc()).expect("load");
        let before = store.path_count();
        store.load(&figure1_doc()).expect("load 2");
        assert_eq!(store.path_count(), before);
    }

    #[test]
    fn rejects_invalid_documents() {
        let mut store = SchemaAwareStore::new(&figure1_schema()).expect("store");
        let bad = xmldom::parse("<A><X/></A>").expect("xml");
        assert!(store.load(&bad).is_err());
    }
}
