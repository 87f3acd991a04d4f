//! Table and column statistics for cost-based planning.
//!
//! A commercial optimizer (the paper's Oracle 10g) estimates
//! cardinalities from `ANALYZE`-time statistics; this module is our
//! equivalent. [`analyze`] computes, per table:
//!
//! * the row count;
//! * per column: non-null/null counts, distinct count, min/max, and an
//!   **equi-depth histogram** (each bucket holds ≈ rows/64, with its
//!   upper boundary value, row count, and distinct count — so equality
//!   selectivity inside a bucket is `rows/distinct` and range
//!   selectivity interpolates across buckets);
//! * for `Bytes` columns, a **prefix fanout**: the average number of
//!   strict byte-prefix descendants per value. Dewey position columns
//!   are byte-strings where ancestor = prefix, so this is exactly the
//!   expected size of one `dewey_pos BETWEEN self AND self||max`
//!   descendant window — the cardinality the paper's structural joins
//!   live or die on.
//!
//! The result lives on the [`Table`] it describes — next to the
//! executor's filter memo, with the same lifetime and the same
//! invalidation: any insert or index build drops it and [`lookup`]
//! returns `None` until the next [`analyze`]; dropping the table frees
//! it. The engine re-analyzes on `load`/`finalize`; the planner only
//! ever calls [`lookup`] (never builds), so planning latency cannot
//! spike on a stats miss — it falls back to its fixed selectivity
//! constants.

use std::sync::Arc;

use crate::db::Database;
use crate::table::Table;
use crate::value::{ColType, Value};

/// Target bucket count for equi-depth histograms. Small columns get
/// fewer buckets (never more than one per distinct run).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// One equi-depth histogram bucket: all values `v` with
/// `previous_upper < v <= upper` (the first bucket starts at the column
/// minimum, inclusive).
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Largest value in the bucket (inclusive upper boundary).
    pub upper: Value,
    /// Rows in the bucket. Equal values never straddle a boundary, so
    /// `rows / distinct` is an honest per-key depth.
    pub rows: u64,
    /// Distinct values in the bucket.
    pub distinct: u64,
}

/// Statistics for one column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Non-NULL rows.
    pub non_null: u64,
    /// NULL rows.
    pub nulls: u64,
    /// Distinct non-NULL values.
    pub distinct: u64,
    /// Smallest non-NULL value.
    pub min: Option<Value>,
    /// Largest non-NULL value.
    pub max: Option<Value>,
    /// Equi-depth histogram over the non-NULL values (empty when the
    /// column is all NULL).
    pub buckets: Vec<Bucket>,
    /// `Bytes` columns only: average number of strict byte-prefix
    /// descendants per value (≙ expected Dewey descendant-window size).
    pub prefix_fanout: Option<f64>,
}

impl ColumnStats {
    /// Fraction of the table's rows expected to match `col = value`.
    /// With a known comparison value the containing histogram bucket
    /// answers (`rows/distinct` of that bucket); for an unknown
    /// (correlated) probe value the average key depth answers. `rows`
    /// is the table's total row count.
    pub fn eq_fraction(&self, value: Option<&Value>, rows: u64) -> f64 {
        let rows = rows.max(1) as f64;
        if self.non_null == 0 {
            return 0.0;
        }
        match value {
            Some(v) => match self.bucket_for(v) {
                Some(b) => (b.rows as f64 / b.distinct.max(1) as f64) / rows,
                // Outside [min, max]: matches nothing.
                None => 0.0,
            },
            None => (self.non_null as f64 / self.distinct.max(1) as f64) / rows,
        }
    }

    /// Fraction of the table's rows expected inside `lo..hi` (either
    /// bound optional; `None` = unbounded on that side). Interpolates
    /// linearly inside numeric buckets, half-bucket otherwise.
    pub fn range_fraction(&self, lo: Option<&Value>, hi: Option<&Value>, rows: u64) -> f64 {
        let rows = rows.max(1) as f64;
        if self.non_null == 0 {
            return 0.0;
        }
        let hi_f = hi.map(|v| self.frac_le(v)).unwrap_or(1.0);
        // Subtract everything strictly below `lo`: `frac_le(lo)` minus
        // the mass of `lo` itself (BETWEEN is inclusive).
        let lo_f = lo.map(|v| self.frac_le(v) - self.mass(v)).unwrap_or(0.0);
        let inside = (hi_f - lo_f).clamp(0.0, 1.0);
        inside * self.non_null as f64 / rows
    }

    /// Fraction of the non-NULL values equal to `v`.
    fn mass(&self, v: &Value) -> f64 {
        match self.bucket_for(v) {
            Some(b) => (b.rows as f64 / b.distinct.max(1) as f64) / self.non_null.max(1) as f64,
            None => 0.0,
        }
    }

    /// The bucket containing `v`, if `v` is within `[min, max]`.
    fn bucket_for(&self, v: &Value) -> Option<&Bucket> {
        if let Some(min) = &self.min {
            if v < min {
                return None;
            }
        }
        self.buckets.iter().find(|b| v <= &b.upper)
    }

    /// Estimated fraction of the **non-NULL** values `<= v`.
    fn frac_le(&self, v: &Value) -> f64 {
        if self.non_null == 0 {
            return 0.0;
        }
        if let Some(min) = &self.min {
            if v < min {
                return 0.0;
            }
        }
        let mut cum = 0u64;
        let mut lower: Option<&Value> = self.min.as_ref();
        for b in &self.buckets {
            if v >= &b.upper {
                cum += b.rows;
                lower = Some(&b.upper);
                continue;
            }
            let within = interp(lower, &b.upper, v);
            return (cum as f64 + within * b.rows as f64) / self.non_null as f64;
        }
        1.0
    }
}

/// Position of `v` within `(lo, hi]` in `[0, 1]`: linear for numeric
/// boundaries, half a bucket otherwise (strings/bytes have no metric).
fn interp(lo: Option<&Value>, hi: &Value, v: &Value) -> f64 {
    match (lo.and_then(numeric), numeric(hi), numeric(v)) {
        (Some(a), Some(b), Some(x)) if b > a => ((x - a) / (b - a)).clamp(0.0, 1.0),
        _ => 0.5,
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Statistics for one table's contents.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count at analyze time.
    pub rows: u64,
    /// Per-column stats, aligned with `schema.columns`.
    pub columns: Vec<ColumnStats>,
}

/// Statistics for `table`'s **current** contents, or `None` when none
/// have been computed since its last mutation. Never computes — the
/// read-only planner path must stay cheap.
pub fn lookup(table: &Table) -> Option<Arc<TableStats>> {
    table.stats()
}

/// Compute statistics for `table`'s current contents and store them on
/// the table. Always rebuilds: callers analyze right after a mutation,
/// which has already dropped the previous result.
pub fn analyze(table: &Table) -> Arc<TableStats> {
    let stats = Arc::new(build(table));
    table.set_stats(stats.clone());
    stats
}

/// Analyze every table in `db`; returns the number of tables analyzed.
pub fn analyze_db(db: &Database) -> usize {
    db.tables().map(analyze).count()
}

/// No-op: statistics live on their table, nothing process-wide is left
/// to clear. Kept only because `serve_bench` calls it before timing a
/// cold [`analyze_db`] (which now always rebuilds).
pub fn clear() {}

fn build(table: &Table) -> TableStats {
    let rows = table.len() as u64;
    let columns = (0..table.schema.columns.len())
        .map(|ci| build_column(table, ci))
        .collect();
    TableStats { rows, columns }
}

fn build_column(table: &Table, ci: usize) -> ColumnStats {
    let mut vals: Vec<&Value> = Vec::with_capacity(table.len());
    let mut nulls = 0u64;
    for (_, row) in table.rows() {
        if row[ci].is_null() {
            nulls += 1;
        } else {
            vals.push(&row[ci]);
        }
    }
    vals.sort_unstable_by(|a, b| a.cmp_total(b));
    let non_null = vals.len() as u64;
    let mut distinct = 0u64;
    for (i, v) in vals.iter().enumerate() {
        if i == 0 || vals[i - 1] != *v {
            distinct += 1;
        }
    }
    let prefix_fanout = if table.schema.columns[ci].ty == ColType::Bytes {
        prefix_fanout(&vals)
    } else {
        None
    };
    ColumnStats {
        non_null,
        nulls,
        distinct,
        min: vals.first().map(|v| (*v).clone()),
        max: vals.last().map(|v| (*v).clone()),
        buckets: equi_depth(&vals),
        prefix_fanout,
    }
}

/// Equi-depth bucketing over sorted values. A run of equal values never
/// straddles a boundary (the boundary slides right past it), so each
/// bucket's `rows / distinct` is a true average key depth.
fn equi_depth(sorted: &[&Value]) -> Vec<Bucket> {
    let n = sorted.len();
    if n == 0 {
        return Vec::new();
    }
    let depth = n.div_ceil(HISTOGRAM_BUCKETS).max(1);
    let mut buckets = Vec::new();
    let mut i = 0;
    while i < n {
        let mut j = (i + depth).min(n);
        while j < n && sorted[j] == sorted[j - 1] {
            j += 1;
        }
        let mut distinct = 1u64;
        for k in i + 1..j {
            if sorted[k] != sorted[k - 1] {
                distinct += 1;
            }
        }
        buckets.push(Bucket {
            upper: sorted[j - 1].clone(),
            rows: (j - i) as u64,
            distinct,
        });
        i = j;
    }
    buckets
}

/// Average number of strict byte-prefix descendants per value, over
/// lexicographically sorted byte strings. In sorted order every
/// value's prefix-ancestors form a contiguous stack (exactly the
/// document-order property Dewey encodings give), so one forward pass
/// counts all (ancestor, descendant) pairs. `None` if any value is not
/// `Bytes` (mixed columns carry no usable prefix structure).
fn prefix_fanout(sorted: &[&Value]) -> Option<f64> {
    if sorted.is_empty() {
        return Some(0.0);
    }
    let mut stack: Vec<&[u8]> = Vec::new();
    let mut pairs = 0u64;
    for v in sorted {
        let b = v.as_bytes()?;
        while let Some(top) = stack.last() {
            if b.len() > top.len() && b.starts_with(top) {
                break;
            }
            stack.pop();
        }
        pairs += stack.len() as u64;
        stack.push(b);
    }
    Some(pairs as f64 / sorted.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableSchema;

    fn table_with(vals: &[Value], ty: ColType) -> Table {
        let mut t = Table::new(TableSchema::new("t", &[("v", ty)]));
        for v in vals {
            t.insert(vec![v.clone()]).expect("insert");
        }
        t
    }

    #[test]
    fn row_and_null_counts() {
        let t = table_with(
            &[Value::Int(1), Value::Null, Value::Int(2), Value::Int(2)],
            ColType::Int,
        );
        let s = analyze(&t);
        assert_eq!(s.rows, 4);
        let c = &s.columns[0];
        assert_eq!((c.non_null, c.nulls, c.distinct), (3, 1, 2));
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(2)));
    }

    #[test]
    fn buckets_cover_all_rows_and_respect_equal_runs() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i / 10)).collect();
        let t = table_with(&vals, ColType::Int);
        let s = analyze(&t);
        let c = &s.columns[0];
        let total: u64 = c.buckets.iter().map(|b| b.rows).sum();
        assert_eq!(total, 1000);
        assert!(c.buckets.len() <= HISTOGRAM_BUCKETS + 1);
        // No run of 10 equal values straddles a boundary: each bucket's
        // rows is a multiple of the run length.
        for b in &c.buckets {
            assert_eq!(b.rows % 10, 0, "bucket {b:?}");
            assert_eq!(b.rows / 10, b.distinct);
        }
    }

    #[test]
    fn eq_fraction_from_histogram() {
        let vals: Vec<Value> = (0..1000).map(|i| Value::Int(i % 100)).collect();
        let t = table_with(&vals, ColType::Int);
        let s = analyze(&t);
        let c = &s.columns[0];
        // Uniform 10 rows per key out of 1000.
        let f = c.eq_fraction(Some(&Value::Int(42)), s.rows);
        assert!((f - 0.01).abs() < 0.005, "{f}");
        // Unknown probe value: average depth.
        let f = c.eq_fraction(None, s.rows);
        assert!((f - 0.01).abs() < 0.005, "{f}");
        // Outside the domain: nothing matches.
        assert_eq!(c.eq_fraction(Some(&Value::Int(5000)), s.rows), 0.0);
    }

    #[test]
    fn range_fraction_interpolates() {
        let vals: Vec<Value> = (0..1000).map(Value::Int).collect();
        let t = table_with(&vals, ColType::Int);
        let s = analyze(&t);
        let c = &s.columns[0];
        let f = c.range_fraction(Some(&Value::Int(250)), Some(&Value::Int(500)), s.rows);
        assert!((f - 0.25).abs() < 0.05, "{f}");
        let f = c.range_fraction(None, Some(&Value::Int(100)), s.rows);
        assert!((f - 0.1).abs() < 0.05, "{f}");
        let f = c.range_fraction(Some(&Value::Int(900)), None, s.rows);
        assert!((f - 0.1).abs() < 0.05, "{f}");
    }

    #[test]
    fn bucket_boundary_values_stay_estimable() {
        // Every histogram boundary value must estimate like its
        // neighbours — boundaries are data values, not gaps.
        let vals: Vec<Value> = (0..640).map(Value::Int).collect();
        let t = table_with(&vals, ColType::Int);
        let s = analyze(&t);
        let c = &s.columns[0];
        for b in &c.buckets {
            let f = c.eq_fraction(Some(&b.upper), s.rows);
            assert!(f > 0.0, "boundary {:?} vanished", b.upper);
            assert!(
                f <= 2.0 / 640.0 + 1e-9,
                "boundary {:?} inflated: {f}",
                b.upper
            );
        }
    }

    #[test]
    fn prefix_fanout_counts_dewey_descendants() {
        // A 2-level tree: root 0x01, children 0x01.0x01 .. 0x01.0x04.
        let vals = vec![
            Value::Bytes(vec![1]),
            Value::Bytes(vec![1, 1]),
            Value::Bytes(vec![1, 2]),
            Value::Bytes(vec![1, 3]),
            Value::Bytes(vec![1, 4]),
        ];
        let t = table_with(&vals, ColType::Bytes);
        let s = analyze(&t);
        let f = s.columns[0].prefix_fanout.expect("bytes column");
        // 4 (ancestor, descendant) pairs over 5 nodes.
        assert!((f - 0.8).abs() < 1e-9, "{f}");
        // Flat siblings: no prefix pairs at all.
        let flat = table_with(
            &[
                Value::Bytes(vec![1]),
                Value::Bytes(vec![2]),
                Value::Bytes(vec![3]),
            ],
            ColType::Bytes,
        );
        let s = analyze(&flat);
        assert_eq!(s.columns[0].prefix_fanout, Some(0.0));
    }

    #[test]
    fn lookup_invalidates_on_mutation() {
        let mut t = table_with(&[Value::Int(1)], ColType::Int);
        assert!(lookup(&t).is_none(), "nothing analyzed yet");
        analyze(&t);
        assert!(lookup(&t).is_some());
        t.insert(vec![Value::Int(2)]).expect("insert");
        assert!(lookup(&t).is_none(), "insert must invalidate");
        let s = analyze(&t);
        assert_eq!(s.rows, 2);
        t.create_index("ix", &["v"]).expect("index");
        assert!(lookup(&t).is_none(), "index build must invalidate too");
    }

    #[test]
    fn empty_and_single_row_tables() {
        let empty = table_with(&[], ColType::Int);
        let s = analyze(&empty);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns[0].buckets.len(), 0);
        assert_eq!(s.columns[0].eq_fraction(Some(&Value::Int(1)), s.rows), 0.0);
        assert_eq!(s.columns[0].range_fraction(None, None, s.rows), 0.0);

        let one = table_with(&[Value::Int(7)], ColType::Int);
        let s = analyze(&one);
        assert_eq!(s.rows, 1);
        let c = &s.columns[0];
        assert_eq!(c.buckets.len(), 1);
        assert!((c.eq_fraction(Some(&Value::Int(7)), s.rows) - 1.0).abs() < 1e-9);
        assert_eq!(c.eq_fraction(Some(&Value::Int(8)), s.rows), 0.0);
    }

    #[test]
    fn analyze_db_covers_every_table() {
        let mut db = Database::new();
        db.create_table(TableSchema::new("a", &[("x", ColType::Int)]))
            .expect("create");
        db.create_table(TableSchema::new("b", &[("y", ColType::Str)]))
            .expect("create");
        assert_eq!(analyze_db(&db), 2);
        assert!(lookup(db.table("a").expect("a")).is_some());
        assert!(lookup(db.table("b").expect("b")).is_some());
    }
}
