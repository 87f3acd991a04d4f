//! `relstore` — the in-memory relational storage engine.
//!
//! Stands in for Oracle 10g's storage layer in the paper's setup: heap
//! tables with typed, nullable columns and ordered indexes (single-column
//! and composite, each one sorted array of keys, supporting equality
//! probes and range probes that seek from a position and walk forward).
//! The SQL planner/executor lives in the `sqlexec` crate.
//!
//! Binary `dewey_pos` values are [`Value::Bytes`] and compare
//! lexicographically, which is exactly the property the paper's Dewey
//! structural joins need (§4.2).
//!
//! # Example
//! ```
//! use relstore::{ColType, Database, TableSchema, Value};
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("item", &[("id", ColType::Int), ("name", ColType::Str)])).unwrap();
//! let t = db.table_mut("item").unwrap();
//! t.insert(vec![Value::Int(1), Value::from("axe")]).unwrap();
//! t.create_index("item_id", &["id"]).unwrap();
//! assert_eq!(t.index_on(&[0]).unwrap().get(&[Value::Int(1)]), &[0]);
//! ```

pub mod db;
pub mod stats;
pub mod table;
pub mod value;

pub use db::Database;
pub use table::{Column, Index, RowId, StoreError, Table, TableSchema};
pub use value::{ColType, Value};
