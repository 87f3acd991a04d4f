//! The database catalog: a named collection of tables.

use std::collections::BTreeMap;

use crate::table::{StoreError, Table, TableSchema};

/// An in-memory database instance.
#[derive(Debug, Clone, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Create an empty table. Fails if the name is taken.
    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), StoreError> {
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(StoreError(format!("table `{name}` already exists")));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(name)
    }

    /// Table lookup that reports a useful error.
    pub fn require(&self, name: &str) -> Result<&Table, StoreError> {
        self.table(name)
            .ok_or_else(|| StoreError(format!("no such table `{name}`")))
    }

    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(|s| s.as_str())
    }

    /// Every table, in name order.
    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values()
    }

    pub fn len(&self) -> usize {
        self.tables.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Total number of rows across all tables (used for reporting database
    /// sizes in the experiment harness).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{ColType, Value};

    #[test]
    fn catalog_basics() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("t", &[("id", ColType::Int)]))
            .expect("create");
        assert!(db.create_table(TableSchema::new("t", &[])).is_err());
        db.table_mut("t")
            .expect("t")
            .insert(vec![Value::Int(1)])
            .expect("insert");
        assert_eq!(db.require("t").expect("t").len(), 1);
        assert!(db.require("missing").is_err());
        assert_eq!(db.total_rows(), 1);
        assert_eq!(db.table_names().collect::<Vec<_>>(), vec!["t"]);
    }
}
