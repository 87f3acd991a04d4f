//! Tables: schemas, rows, and secondary ordered indexes.

use std::cmp::Ordering;
use std::collections::HashMap;
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

/// An ordered index over one or more columns: every distinct composite
/// key with the rows holding it, in one array sorted by key (composite
/// keys compare lexicographically). Rows with a NULL in any key column
/// are excluded (matching how RDBMS indexes are used for equality/range
/// lookups). An equality probe is a binary search; a range probe seeks
/// its lower bound from a position and walks forward to its upper bound.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    pub key_cols: Vec<usize>,
    entries: Vec<(Box<[Value]>, Postings)>,
}

/// The rows holding one key, ascending. Most keys of a shredded document
/// (Dewey positions, node ids) name exactly one row, so that row is kept
/// inline in the array rather than in a heap block of its own.
#[derive(Debug, Clone)]
enum Postings {
    One(RowId),
    Many(Vec<RowId>),
}

impl Postings {
    fn as_slice(&self) -> &[RowId] {
        match self {
            Postings::One(rid) => std::slice::from_ref(rid),
            Postings::Many(rids) => rids,
        }
    }

    fn push(&mut self, rid: RowId) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, rid]),
            Postings::Many(rids) => rids.push(rid),
        }
    }
}

impl Index {
    /// Index the rows of `table` on `key_cols` with one sort of their
    /// ids, copying each distinct key once. The sort is stable, so each
    /// key's rows stay ascending.
    fn build(name: String, key_cols: Vec<usize>, table: &Table) -> Index {
        let mut rids = Vec::with_capacity(table.len());
        rids.extend(
            table
                .rows()
                .filter(|(_, row)| !key_cols.iter().any(|&c| row[c].is_null()))
                .map(|(rid, _)| rid),
        );
        let cmp = |a: RowId, b: RowId| {
            let (a, b) = (table.row(a), table.row(b));
            key_cols
                .iter()
                .map(|&c| a[c].cmp(&b[c]))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        };
        rids.sort_by(|&a, &b| cmp(a, b));
        let groups = || rids.chunk_by(|&a, &b| cmp(a, b).is_eq());
        // Sized exactly: the array is most of an index's memory.
        let mut entries = Vec::with_capacity(groups().count());
        entries.extend(groups().map(|group| {
            let rows = match group {
                [rid] => Postings::One(*rid),
                _ => Postings::Many(group.to_vec()),
            };
            (key_of(&key_cols, table.row(group[0])), rows)
        }));
        Index {
            name,
            key_cols,
            entries,
        }
    }

    /// Add row `rid`. A later document's keys sort after the earlier
    /// ones', so the search usually lands at the end and this appends.
    fn insert_row(&mut self, rid: RowId, row: &[Value]) {
        if self.key_cols.iter().any(|&c| row[c].is_null()) {
            return;
        }
        let key = key_of(&self.key_cols, row);
        let at = self.entries.partition_point(|(k, _)| *k < key);
        match self.entries.get_mut(at) {
            Some((k, rids)) if *k == key => rids.push(rid),
            _ => self.entries.insert(at, (key, Postings::One(rid))),
        }
    }

    /// Rows whose full key equals `key`.
    pub fn get(&self, key: &[Value]) -> &[RowId] {
        match self.entries.binary_search_by(|(k, _)| (**k).cmp(key)) {
            Ok(at) => self.entries[at].1.as_slice(),
            Err(_) => &[],
        }
    }

    /// The position of the first key at or above `lo`, a bound on the
    /// leading column, found by galloping from position `from`. When
    /// successive probes arrive in key order (the staircase case of Dewey
    /// structural joins) `from` is the previous probe's answer and the
    /// seek costs O(1) plus the distance moved; any other `from` still
    /// gives the right position, in O(log n).
    pub fn seek(&self, lo: Bound<&Value>, from: usize) -> usize {
        let entries = &self.entries;
        let len = entries.len();
        let pos = from.min(len);
        let (lo_i, hi_i) = if pos < len && !above_lo(&entries[pos].0, lo) {
            // The window starts right of `from`: gallop to bracket it.
            let mut width = 1usize;
            let mut prev = pos;
            loop {
                let next = (prev + width).min(len);
                if next == len || above_lo(&entries[next].0, lo) {
                    break (prev + 1, next);
                }
                prev = next;
                width *= 2;
            }
        } else {
            // `from` is already inside the window; if its predecessor is
            // below the bound, `from` is exactly the window start.
            if pos == 0 || !above_lo(&entries[pos - 1].0, lo) {
                return pos;
            }
            (0, pos)
        };
        lo_i + entries[lo_i..hi_i].partition_point(|(k, _)| !above_lo(k, lo))
    }

    /// The rows of each key from position `at` on, in key order, up to
    /// `hi`, a bound on the leading column.
    pub fn walk<'a>(
        &'a self,
        at: usize,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = &'a [RowId]> + 'a {
        self.entries[at.min(self.entries.len())..]
            .iter()
            .take_while(move |(k, _)| within_hi(k, hi))
            .map(|(_, rids)| rids.as_slice())
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.entries.len()
    }

    /// All (key, rows) entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], &[RowId])> {
        self.entries.iter().map(|(k, rids)| (&**k, rids.as_slice()))
    }
}

/// A copy of the key `row` holds on `key_cols`.
fn key_of(key_cols: &[usize], row: &[Value]) -> Box<[Value]> {
    key_cols.iter().map(|&c| row[c].clone()).collect()
}

/// Does `key` satisfy the lower bound? A bound on the leading column
/// compares as a one-value key, so a key extending it sorts after it.
fn above_lo(key: &[Value], lo: Bound<&Value>) -> bool {
    match lo {
        Bound::Unbounded => true,
        Bound::Included(v) => key >= std::slice::from_ref(v),
        Bound::Excluded(v) => key > std::slice::from_ref(v),
    }
}

/// Does `key` satisfy the upper bound (compared as in [`above_lo`])?
fn within_hi(key: &[Value], hi: Bound<&Value>) -> bool {
    match hi {
        Bound::Unbounded => true,
        Bound::Included(v) => key <= std::slice::from_ref(v),
        Bound::Excluded(v) => key < std::slice::from_ref(v),
    }
}

/// Filter-memo entries one table keeps before the memo is cleared
/// wholesale (coarse but effective bound; entries re-warm on next use).
const FILTER_MEMO_CAP: usize = 512;

/// Memoized filter scans, one map per column (allocated on first
/// insert): predicate text → the rows that survive it, in row order.
type FilterMemo = Vec<HashMap<String, Arc<Vec<RowId>>>>;

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
    /// Every row's cells in one row-major vector: row `r` is
    /// `cells[r * arity..(r + 1) * arity]`. A scan walks contiguous
    /// memory instead of chasing one heap block per row.
    cells: Vec<Value>,
    /// Row count, kept apart from `cells` so a zero-column table still
    /// counts its rows.
    n_rows: usize,
    indexes: Vec<Index>,
    stats: RwLock<Option<Arc<TableStats>>>,
    filter_memo: RwLock<FilterMemo>,
    /// One slot per column, allocated on the first build.
    hash_sides: RwLock<Vec<Option<Arc<Index>>>>,
}

impl Clone for Table {
    fn clone(&self) -> Self {
        // The copy can diverge from the original at any time: it starts
        // with no derived state of its own and shares none.
        Table {
            schema: self.schema.clone(),
            cells: self.cells.clone(),
            n_rows: self.n_rows,
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
            cells: Vec::new(),
            n_rows: 0,
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
        self.n_rows
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// The cells of row `rid`. Panics if there is no such row.
    pub fn row(&self, rid: RowId) -> &[Value] {
        assert!(
            rid < self.n_rows,
            "table `{}` has no row {rid}",
            self.schema.name
        );
        let arity = self.schema.columns.len();
        &self.cells[rid * arity..(rid + 1) * arity]
    }

    pub fn rows(&self) -> impl Iterator<Item = (RowId, &[Value])> {
        let arity = self.schema.columns.len();
        (0..self.n_rows).map(move |rid| (rid, &self.cells[rid * arity..(rid + 1) * arity]))
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
        let rid = self.n_rows;
        for idx in &mut self.indexes {
            idx.insert_row(rid, &row);
        }
        self.cells.extend(row);
        self.n_rows += 1;
        self.drop_derived();
        Ok(rid)
    }

    /// Create an index over the named columns (builds eagerly).
    pub fn create_index(&mut self, name: &str, cols: &[&str]) -> Result<(), StoreError> {
        let key_cols: Vec<usize> = cols
            .iter()
            .map(|c| {
                self.schema.col(c).ok_or_else(|| {
                    StoreError(format!("table `{}` has no column `{c}`", self.schema.name))
                })
            })
            .collect::<Result<_, _>>()?;
        let idx = Index::build(name.to_string(), key_cols, self);
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
    /// contents: a one-column [`Index`] over it, built on the first call.
    /// A hit is one shared read and one `Arc` clone. A miss builds
    /// serially under the write lock, after checking the slot again, so
    /// concurrent callers build each side exactly once and wait for it
    /// rather than racing.
    pub fn hash_side(&self, col: usize) -> Arc<Index> {
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
                let name = self.schema.columns[col].name.clone();
                Arc::new(Index::build(name, vec![col], self))
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

    /// The rows of every key of `idx` within `lo ..= hi`, sought from
    /// position 0.
    fn window(idx: &Index, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
        let at = idx.seek(lo, 0);
        idx.walk(at, hi).flatten().copied().collect()
    }

    #[test]
    fn index_range_scan() {
        let mut t = people();
        t.create_index("people_age", &["age"]).expect("index");
        let idx = &t.indexes()[0];
        let got = window(
            idx,
            Bound::Included(&Value::Int(26)),
            Bound::Included(&Value::Int(40)),
        );
        assert_eq!(got, vec![0, 2]);
        let above = window(idx, Bound::Excluded(&Value::Int(30)), Bound::Unbounded);
        assert_eq!(above, vec![3]);
    }

    #[test]
    fn composite_index_leading_column_window() {
        let mut t = people();
        t.create_index("people_age_name", &["age", "name"])
            .expect("index");
        let idx = &t.indexes()[0];
        // A composite key extends its leading value, so it sorts after a
        // bound on that value: the window ends before the next value.
        let got = window(
            idx,
            Bound::Included(&Value::Int(30)),
            Bound::Excluded(&Value::Int(31)),
        );
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
        let indexed = window(idx, Bound::Unbounded, Bound::Unbounded).len();
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
            t.hash_side(2).get(&[Value::Int(30)]),
            &[0, 2, 4],
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
        assert_eq!(ages.get(&[Value::Int(30)]), &[0, 2, 4]);
        assert_eq!(ages.get(&[Value::Int(41)]), &[3]);
        let indexed: usize = ages.entries().map(|(_, rids)| rids.len()).sum();
        assert_eq!(indexed, t.len());
        let names = t.hash_side(1);
        assert_eq!(names.distinct_keys(), 4, "the NULL name is not a key");
        assert_eq!(t.hash_sides_len(), 2);
        t.clear_hash_sides();
        assert_eq!(t.hash_sides_len(), 0);
    }

    #[test]
    fn concurrent_callers_share_one_build() {
        let t = people();
        let start = std::sync::Barrier::new(4);
        let sides: Vec<Arc<Index>> = std::thread::scope(|s| {
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

    /// The same rows indexed the obvious way: every non-NULL key with
    /// the rows holding it, in key order, found by a scan per key.
    fn reference_index(t: &Table, cols: &[usize]) -> Vec<(Vec<Value>, Vec<RowId>)> {
        let key = |row: &[Value]| -> Vec<Value> { cols.iter().map(|&c| row[c].clone()).collect() };
        let mut keys: Vec<Vec<Value>> = t
            .rows()
            .map(|(_, row)| key(row))
            .filter(|k| !k.iter().any(Value::is_null))
            .collect();
        keys.sort();
        keys.dedup();
        keys.into_iter()
            .map(|k| {
                let rids = t
                    .rows()
                    .filter(|(_, row)| key(row) == k)
                    .map(|(rid, _)| rid);
                let rids = rids.collect();
                (k, rids)
            })
            .collect()
    }

    #[test]
    fn postings_grow_from_one_row_to_many_after_create_index() {
        let mut t = people();
        t.create_index("people_age_name", &["age", "name"])
            .expect("index");
        t.create_index("people_name", &["name"]).expect("index");
        // Every name is unique so far: each key holds one row inline.
        assert!(t.indexes()[1].entries().all(|(_, rids)| rids.len() == 1));
        for (id, name, age) in [(5, "ann", 30), (6, "bob", 25), (7, "ann", 30)] {
            t.insert(vec![Value::Int(id), Value::from(name), Value::Int(age)])
                .expect("insert");
        }
        t.insert(vec![Value::Int(8), Value::Null, Value::Int(30)])
            .expect("insert");
        assert_eq!(t.indexes()[1].get(&[Value::from("ann")]), &[0, 4, 6]);
        assert_eq!(t.indexes()[1].get(&[Value::from("cho")]), &[2]);

        for (ix, cols) in t.indexes().iter().zip([&[2, 1][..], &[1][..]]) {
            let want = reference_index(&t, cols);
            let got: Vec<(Vec<Value>, Vec<RowId>)> = ix
                .entries()
                .map(|(k, rids)| (k.to_vec(), rids.to_vec()))
                .collect();
            assert_eq!(got, want);
            assert_eq!(ix.distinct_keys(), want.len());
            for (key, rids) in &want {
                assert_eq!(ix.get(key), rids.as_slice());
                let lead = &key[0];
                let from_lead = window(ix, Bound::Included(lead), Bound::Unbounded);
                let want_from_lead: Vec<RowId> = want
                    .iter()
                    .filter(|(k, _)| k[0] >= *lead)
                    .flat_map(|(_, r)| r.iter().copied())
                    .collect();
                assert_eq!(from_lead, want_from_lead);
            }
            let all = window(ix, Bound::Unbounded, Bound::Unbounded);
            let want_all: Vec<RowId> = want.iter().flat_map(|(_, r)| r).copied().collect();
            assert_eq!(all, want_all);
        }
    }

    #[test]
    fn zero_column_table_still_counts_its_rows() {
        let mut t = Table::new(TableSchema::new("unit", &[]));
        assert!(t.is_empty());
        for _ in 0..3 {
            t.insert(Vec::new()).expect("insert");
        }
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.row(2), &[] as &[Value]);
        let rids: Vec<RowId> = t.rows().map(|(rid, _)| rid).collect();
        assert_eq!(rids, vec![0, 1, 2]);
        assert_eq!(t.clone().len(), 3);
    }

    #[test]
    #[should_panic(expected = "has no row 3")]
    fn zero_column_table_rejects_a_row_past_the_end() {
        let mut t = Table::new(TableSchema::new("unit", &[]));
        for _ in 0..3 {
            t.insert(Vec::new()).expect("insert");
        }
        t.row(3);
    }

    #[test]
    fn clone_shares_no_cells() {
        let t = people();
        let mut clone = t.clone();
        for (rid, row) in t.rows() {
            let copy = clone.row(rid);
            assert_eq!(row, copy, "row {rid} copied as-is");
            assert_ne!(row.as_ptr(), copy.as_ptr(), "row {rid} shares its cells");
            assert_ne!(
                row[1].as_str().expect("name").as_ptr(),
                copy[1].as_str().expect("name").as_ptr(),
                "row {rid} shares its text"
            );
        }
        clone
            .insert(vec![Value::Int(5), Value::from("eve"), Value::Int(19)])
            .expect("insert");
        assert_eq!(clone.len(), 5);
        assert_eq!(t.len(), 4, "original untouched");
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
