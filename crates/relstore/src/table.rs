//! Tables: schemas, rows, and secondary B-tree indexes.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::{Arc, PoisonError, RwLock};

use crate::stats::TableStats;
use crate::value::{ColType, Value};

/// Position of a row within its table.
pub type RowId = usize;

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: ColType,
}

/// Table schema: ordered column list.
#[derive(Debug, Clone)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl TableSchema {
    pub fn new(name: &str, columns: &[(&str, ColType)]) -> TableSchema {
        TableSchema {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|(n, t)| Column {
                    name: n.to_string(),
                    ty: *t,
                })
                .collect(),
        }
    }

    /// Index of a column by name.
    pub fn col(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// A B-tree index over one or more columns. Maps composite keys to the
/// rows holding them. Rows with a NULL in any key column are excluded
/// (matching how RDBMS B-trees are used for equality/range lookups).
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    pub key_cols: Vec<usize>,
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    fn key_of(&self, row: &[Value]) -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(self.key_cols.len());
        for &c in &self.key_cols {
            if row[c].is_null() {
                return None;
            }
            key.push(row[c].clone());
        }
        Some(key)
    }

    fn insert_row(&mut self, rid: RowId, row: &[Value]) {
        if let Some(key) = self.key_of(row) {
            self.map.entry(key).or_default().push(rid);
        }
    }

    /// Rows whose full key equals `key`.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Rows whose key is within the given bounds (composite keys compare
    /// lexicographically). Used for `BETWEEN` on `dewey_pos`. Bounds are
    /// borrowed straight through to the B-tree — no per-probe key copies.
    pub fn range(
        &self,
        lo: Bound<&[Value]>,
        hi: Bound<&[Value]>,
    ) -> impl Iterator<Item = RowId> + '_ {
        self.map
            .range::<[Value], _>((lo, hi))
            .flat_map(|(_, rids)| rids.iter().copied())
    }

    /// Rows whose key starts with `prefix` (for composite indexes probed on
    /// a leading-column equality). The prefix is borrowed for the life of
    /// the iterator — no per-probe key copies.
    pub fn prefix<'a>(&'a self, prefix: &'a [Value]) -> impl Iterator<Item = RowId> + 'a {
        self.map
            .range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| k.starts_with(prefix))
            .flat_map(|(_, rids)| rids.iter().copied())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// All (key, rows) entries in key order. The sort-merge structural
    /// join materializes this once into a flat array and then advances a
    /// monotonic cursor over it instead of re-probing the B-tree.
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], &[RowId])> {
        self.map
            .iter()
            .map(|(k, rids)| (k.as_slice(), rids.as_slice()))
    }
}

/// Filter-memo entries one table keeps before the memo is cleared
/// wholesale (coarse but effective bound; entries re-warm on next use).
const FILTER_MEMO_CAP: usize = 512;

/// Memoized filter scans, one map per column (allocated on first
/// insert): predicate text → the rows that survive it, in row order.
type FilterMemo = Vec<HashMap<String, Arc<Vec<RowId>>>>;

/// A hash-join build side over one column: every non-NULL value → the
/// rows holding it, row ids ascending.
pub type HashSide = BTreeMap<Value, Vec<RowId>>;

/// A heap table plus its indexes — and everything derived from its
/// contents: the planner statistics ([`crate::stats`]), the memo of
/// filter scans the executor has already run over it, and the hash-join
/// build sides it has been probed through. Derived state shares the
/// table's lifetime (dropping the table frees it), is dropped by every
/// mutation, and is never copied by `Clone`. Every slot sits behind a
/// read-mostly lock so `&Table` readers can fill it; a poisoned lock is
/// recovered as-is (the guarded data is plain: a panicking holder cannot
/// leave it half-written).
#[derive(Debug)]
pub struct Table {
    pub schema: TableSchema,
    rows: Vec<Vec<Value>>,
    indexes: Vec<Index>,
    stats: RwLock<Option<Arc<TableStats>>>,
    filter_memo: RwLock<FilterMemo>,
    /// One slot per column, allocated on the first build.
    hash_sides: RwLock<Vec<Option<Arc<HashSide>>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        // The copy can diverge from the original at any time: it starts
        // with no derived state of its own and shares none.
        Table {
            schema: self.schema.clone(),
            rows: self.rows.clone(),
            indexes: self.indexes.clone(),
            stats: RwLock::default(),
            filter_memo: RwLock::default(),
            hash_sides: RwLock::default(),
        }
    }
}

/// Errors from table operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError(pub String);

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store error: {}", self.0)
    }
}

impl std::error::Error for StoreError {}

impl Table {
    pub fn new(schema: TableSchema) -> Table {
        Table {
            schema,
            rows: Vec::new(),
            indexes: Vec::new(),
            stats: RwLock::default(),
            filter_memo: RwLock::default(),
            hash_sides: RwLock::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.schema.name
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn row(&self, rid: RowId) -> &[Value] {
        &self.rows[rid]
    }

    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        self.rows.iter().enumerate().map(|(i, r)| (i, r.as_slice()))
    }

    /// Append a row, maintaining all indexes. The row must match the schema
    /// arity and column types (NULL allowed anywhere).
    pub fn insert(&mut self, row: Vec<Value>) -> Result<RowId, StoreError> {
        if row.len() != self.schema.columns.len() {
            return Err(StoreError(format!(
                "table `{}`: expected {} columns, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (value, col) in row.iter().zip(&self.schema.columns) {
            if let Some(vt) = value.col_type() {
                let compatible =
                    vt == col.ty || matches!((vt, col.ty), (ColType::Int, ColType::Float));
                if !compatible {
                    return Err(StoreError(format!(
                        "table `{}`, column `{}`: type mismatch ({vt:?} into {:?})",
                        self.schema.name, col.name, col.ty
                    )));
                }
            }
        }
        let rid = self.rows.len();
        for idx in &mut self.indexes {
            idx.insert_row(rid, &row);
        }
        self.rows.push(row);
        self.drop_derived();
        Ok(rid)
    }

    /// Create a B-tree index over the named columns (builds eagerly).
    pub fn create_index(&mut self, name: &str, cols: &[&str]) -> Result<(), StoreError> {
        let key_cols: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.schema.col(c).ok_or_else(|| {
                    StoreError(format!("table `{}` has no column `{c}`", self.schema.name))
                })
            })
            .collect::<Result<_, _>>()?;
        let mut idx = Index {
            name: name.to_string(),
            key_cols,
            map: BTreeMap::new(),
        };
        for (rid, row) in self.rows.iter().enumerate() {
            idx.insert_row(rid, row);
        }
        self.indexes.push(idx);
        self.drop_derived();
        Ok(())
    }

    /// Forget everything derived from the contents; every mutation ends
    /// here. O(1) when there is nothing to forget (bulk loads).
    fn drop_derived(&mut self) {
        *self.stats.get_mut().unwrap_or_else(PoisonError::into_inner) = None;
        self.filter_memo
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hash_sides
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// Statistics computed for the current contents, if any (the slot
    /// behind [`crate::stats::lookup`]).
    pub(crate) fn stats(&self) -> Option<Arc<TableStats>> {
        self.stats
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    pub(crate) fn set_stats(&self, stats: Arc<TableStats>) {
        *self.stats.write().unwrap_or_else(PoisonError::into_inner) = Some(stats);
    }

    /// The rows a filter scan of `predicate` over column `col` kept, if
    /// that scan has run against the current contents.
    pub fn filter_memo_get(&self, col: usize, predicate: &str) -> Option<Arc<Vec<RowId>>> {
        self.filter_memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(col)?
            .get(predicate)
            .cloned()
    }

    /// Remember the survivors of one filter scan. Two readers missing on
    /// the same key may both scan and insert (last one wins) —
    /// duplicated work once, never a wrong answer.
    pub fn filter_memo_insert(&self, col: usize, predicate: &str, rows: Arc<Vec<RowId>>) {
        let mut memo = self
            .filter_memo
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if memo.iter().map(HashMap::len).sum::<usize>() >= FILTER_MEMO_CAP {
            memo.clear();
        }
        if memo.len() <= col {
            memo.resize_with(col + 1, HashMap::new);
        }
        memo[col].insert(predicate.to_string(), rows);
    }

    /// Filter scans currently memoized for this table.
    pub fn filter_memo_len(&self) -> usize {
        self.filter_memo
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(HashMap::len)
            .sum()
    }

    /// Drop the memoized filter scans (cold-cache benchmarks;
    /// correctness never requires it).
    pub fn clear_filter_memo(&self) {
        self.filter_memo
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    /// The hash-join build side of column `col` for the current
    /// contents, built on the first call. A hit is one shared read and
    /// one `Arc` clone. A miss builds serially under the write lock,
    /// after checking the slot again, so concurrent callers build each
    /// side exactly once and wait for it rather than racing.
    pub fn hash_side(&self, col: usize) -> Arc<HashSide> {
        let built = self
            .hash_sides
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(col)
            .cloned()
            .flatten();
        if let Some(side) = built {
            return side;
        }
        let mut sides = self
            .hash_sides
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        if sides.len() <= col {
            sides.resize(col + 1, None);
        }
        sides[col]
            .get_or_insert_with(|| {
                let mut side = HashSide::new();
                for (rid, row) in self.rows() {
                    let v = &row[col];
                    if v.is_null() {
                        continue;
                    }
                    // One clone per distinct value, not one per row.
                    match side.get_mut(v) {
                        Some(rids) => rids.push(rid),
                        None => {
                            side.insert(v.clone(), vec![rid]);
                        }
                    }
                }
                Arc::new(side)
            })
            .clone()
    }

    /// Hash-join build sides currently built for this table.
    pub fn hash_sides_len(&self) -> usize {
        self.hash_sides
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .flatten()
            .count()
    }

    /// Drop the built hash-join sides (cold-cache benchmarks;
    /// correctness never requires it).
    pub fn clear_hash_sides(&self) {
        self.hash_sides
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }

    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index whose leading key columns are exactly `cols` (in
    /// order), preferring the shortest such index.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes
            .iter()
            .filter(|i| i.key_cols.len() >= cols.len() && i.key_cols[..cols.len()] == *cols)
            .min_by_key(|i| i.key_cols.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Table {
        let mut t = Table::new(TableSchema::new(
            "people",
            &[
                ("id", ColType::Int),
                ("name", ColType::Str),
                ("age", ColType::Int),
            ],
        ));
        for (id, name, age) in [
            (1, "ann", 30),
            (2, "bob", 25),
            (3, "cho", 30),
            (4, "dee", 41),
        ] {
            t.insert(vec![Value::Int(id), Value::from(name), Value::Int(age)])
                .expect("insert");
        }
        t
    }

    #[test]
    fn insert_and_scan() {
        let t = people();
        assert_eq!(t.len(), 4);
        assert_eq!(t.row(2)[1], Value::from("cho"));
    }

    #[test]
    fn arity_and_type_checks() {
        let mut t = people();
        assert!(t.insert(vec![Value::Int(9)]).is_err());
        assert!(t
            .insert(vec![Value::from("x"), Value::from("y"), Value::Int(1)])
            .is_err());
        assert!(t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .is_ok());
    }

    #[test]
    fn index_equality_lookup() {
        let mut t = people();
        t.create_index("people_age", &["age"]).expect("index");
        let idx = t.index_on(&[2]).expect("index on age");
        assert_eq!(idx.get(&[Value::Int(30)]), &[0, 2]);
        assert_eq!(idx.get(&[Value::Int(99)]), &[] as &[RowId]);
    }

    #[test]
    fn index_range_scan() {
        let mut t = people();
        t.create_index("people_age", &["age"]).expect("index");
        let idx = &t.indexes()[0];
        let got: Vec<RowId> = idx
            .range(
                Bound::Included(&[Value::Int(26)][..]),
                Bound::Included(&[Value::Int(40)][..]),
            )
            .collect();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn composite_index_prefix() {
        let mut t = people();
        t.create_index("people_age_name", &["age", "name"])
            .expect("index");
        let idx = &t.indexes()[0];
        let got: Vec<RowId> = idx.prefix(&[Value::Int(30)]).collect();
        assert_eq!(got, vec![0, 2]);
        // index_on with the leading column only still finds it
        assert!(t.index_on(&[2]).is_some());
        assert!(t.index_on(&[1]).is_none());
    }

    #[test]
    fn nulls_excluded_from_index() {
        let mut t = people();
        t.insert(vec![Value::Int(5), Value::Null, Value::Null])
            .expect("insert");
        t.create_index("people_age", &["age"]).expect("index");
        let idx = &t.indexes()[0];
        let total: usize = t.rows().filter(|(_, r)| !r[2].is_null()).count();
        let indexed: usize = idx.range(Bound::Unbounded, Bound::Unbounded).count();
        assert_eq!(indexed, total);
    }

    #[test]
    fn index_maintained_on_insert() {
        let mut t = people();
        t.create_index("people_name", &["name"]).expect("index");
        t.insert(vec![Value::Int(6), Value::from("eve"), Value::Int(22)])
            .expect("insert");
        let idx = &t.indexes()[0];
        assert_eq!(idx.get(&[Value::from("eve")]), &[4]);
    }

    #[test]
    fn index_on_unknown_column_fails() {
        let mut t = people();
        assert!(t.create_index("x", &["nope"]).is_err());
    }

    fn survivors(rows: &[RowId]) -> Arc<Vec<RowId>> {
        Arc::new(rows.to_vec())
    }

    #[test]
    fn insert_and_create_index_drop_stats_memo_and_hash_sides() {
        let mut t = people();
        let fill = |t: &Table| {
            crate::stats::analyze(t);
            t.filter_memo_insert(1, "^a", survivors(&[0]));
            t.hash_side(2);
            assert!(crate::stats::lookup(t).is_some());
            assert_eq!(t.filter_memo_len(), 1);
            assert_eq!(t.hash_sides_len(), 1);
        };
        fill(&t);
        t.insert(vec![Value::Int(9), Value::from("zed"), Value::Int(30)])
            .expect("insert");
        assert!(crate::stats::lookup(&t).is_none(), "insert drops stats");
        assert!(t.filter_memo_get(1, "^a").is_none(), "insert drops memo");
        assert_eq!(t.hash_sides_len(), 0, "insert drops hash sides");
        assert_eq!(
            t.hash_side(2).get(&Value::Int(30)),
            Some(&vec![0, 2, 4]),
            "a rebuilt side sees the new row"
        );

        fill(&t);
        t.create_index("people_age", &["age"]).expect("index");
        assert!(crate::stats::lookup(&t).is_none(), "index drops stats");
        assert_eq!(t.filter_memo_len(), 0, "index drops memo");
        assert_eq!(t.hash_sides_len(), 0, "index drops hash sides");
    }

    #[test]
    fn clone_starts_without_derived_state_and_shares_none() {
        let t = people();
        crate::stats::analyze(&t);
        t.filter_memo_insert(1, "^a", survivors(&[0]));
        let side = t.hash_side(1);

        let clone = t.clone();
        assert!(crate::stats::lookup(&clone).is_none());
        assert_eq!(clone.filter_memo_len(), 0);
        assert_eq!(clone.hash_sides_len(), 0);

        clone.filter_memo_insert(1, "^b", survivors(&[1]));
        clone.filter_memo_insert(1, "^a", survivors(&[]));
        assert_eq!(t.filter_memo_len(), 1, "original untouched");
        assert_eq!(t.filter_memo_get(1, "^a").as_deref(), Some(&vec![0]));
        assert!(t.filter_memo_get(1, "^b").is_none());
        assert!(
            !Arc::ptr_eq(&clone.hash_side(1), &side),
            "clone builds its own"
        );
        assert!(Arc::ptr_eq(&t.hash_side(1), &side));
    }

    #[test]
    fn hash_side_skips_nulls_and_lists_rows_ascending() {
        let mut t = people();
        t.insert(vec![Value::Int(5), Value::Null, Value::Int(30)])
            .expect("insert");
        let ages = t.hash_side(2);
        assert_eq!(ages.get(&Value::Int(30)), Some(&vec![0, 2, 4]));
        assert_eq!(ages.get(&Value::Int(41)), Some(&vec![3]));
        assert_eq!(ages.values().map(Vec::len).sum::<usize>(), t.len());
        let names = t.hash_side(1);
        assert_eq!(names.len(), 4, "the NULL name is not a key");
        assert_eq!(t.hash_sides_len(), 2);
        t.clear_hash_sides();
        assert_eq!(t.hash_sides_len(), 0);
    }

    #[test]
    fn concurrent_callers_share_one_build() {
        let t = people();
        let start = std::sync::Barrier::new(4);
        let sides: Vec<Arc<HashSide>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        t.hash_side(2)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("hash_side caller"))
                .collect()
        });
        assert!(sides.iter().all(|s| Arc::ptr_eq(s, &sides[0])));
        assert_eq!(t.hash_sides_len(), 1);
    }

    #[test]
    fn memo_overflow_clears_and_keeps_serving() {
        let t = people();
        for i in 0..FILTER_MEMO_CAP {
            t.filter_memo_insert(1, &format!("^p{i}$"), survivors(&[i]));
        }
        assert_eq!(t.filter_memo_len(), FILTER_MEMO_CAP);
        assert_eq!(t.filter_memo_get(1, "^p7$").as_deref(), Some(&vec![7]));

        t.filter_memo_insert(1, "^one-more$", survivors(&[2, 3]));
        assert_eq!(t.filter_memo_len(), 1, "overflow clears wholesale");
        assert!(t.filter_memo_get(1, "^p7$").is_none());
        assert_eq!(
            t.filter_memo_get(1, "^one-more$").as_deref(),
            Some(&vec![2, 3])
        );
        // Same text on another column is a different entry.
        assert!(t.filter_memo_get(0, "^one-more$").is_none());

        t.clear_filter_memo();
        assert_eq!(t.filter_memo_len(), 0);
    }

    #[test]
    fn entries_iterates_in_key_order() {
        let mut t = people();
        t.create_index("people_age", &["age"]).expect("index");
        let idx = &t.indexes()[0];
        let keys: Vec<i64> = idx
            .entries()
            .map(|(k, _)| match k[0] {
                Value::Int(v) => v,
                _ => panic!("expected int key"),
            })
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        let total: usize = idx.entries().map(|(_, rids)| rids.len()).sum();
        assert_eq!(total, t.len());
    }
}
