//! Property tests: every index access path must return exactly the rows a
//! full scan with the equivalent predicate returns, and an index grown by
//! inserts must hold what one built at once holds.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;
use relstore::{ColType, Index, RowId, Table, TableSchema, Value};

type Row = (i64, Vec<u8>, Option<String>);

fn row_strategy(keys: std::ops::Range<i64>) -> impl Strategy<Value = Row> {
    (
        keys,
        proptest::collection::vec(0u8..4, 0..3),
        proptest::option::of("[ab]{0,2}"),
    )
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(row_strategy(0..20), 0..40)
}

fn insert_rows(t: &mut Table, rows: &[Row]) {
    for (k, b, s) in rows {
        t.insert(vec![
            Value::Int(*k),
            Value::Bytes(b.clone()),
            s.clone().map(Value::Str).unwrap_or(Value::Null),
        ])
        .expect("insert");
    }
}

fn create_indexes(t: &mut Table) {
    t.create_index("t_k", &["k"]).expect("index");
    t.create_index("t_b_k", &["b", "k"]).expect("index");
    t.create_index("t_s", &["s"]).expect("index");
}

fn empty_table() -> Table {
    Table::new(TableSchema::new(
        "t",
        &[
            ("k", ColType::Int),
            ("b", ColType::Bytes),
            ("s", ColType::Str),
        ],
    ))
}

fn build_table(rows: &[Row]) -> Table {
    let mut t = empty_table();
    insert_rows(&mut t, rows);
    create_indexes(&mut t);
    t
}

/// The rows of `t` keyed the obvious way: every key without a NULL,
/// with the rows holding it, ascending.
fn reference(t: &Table, cols: &[usize]) -> BTreeMap<Vec<Value>, Vec<RowId>> {
    let mut map: BTreeMap<Vec<Value>, Vec<RowId>> = BTreeMap::new();
    for (rid, row) in t.rows() {
        let key: Vec<Value> = cols.iter().map(|&c| row[c].clone()).collect();
        if !key.iter().any(Value::is_null) {
            map.entry(key).or_default().push(rid);
        }
    }
    map
}

/// Seek `lo` from position 0 and walk to `hi`.
fn window(idx: &Index, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<RowId> {
    let at = idx.seek(lo, 0);
    idx.walk(at, hi).flatten().copied().collect()
}

/// A bound of each kind on `v`, chosen by `kind`.
fn bound(kind: u8, v: &Value) -> Bound<&Value> {
    match kind % 3 {
        0 => Bound::Included(v),
        1 => Bound::Excluded(v),
        _ => Bound::Unbounded,
    }
}

/// Whether `key` lies within `lo .. hi`, each a bound on the leading
/// column compared as a one-value key: a longer key that extends the
/// bound sorts after it.
fn in_window(key: &[Value], lo: Bound<&Value>, hi: Bound<&Value>) -> bool {
    let above = match lo {
        Bound::Included(v) => key >= std::slice::from_ref(v),
        Bound::Excluded(v) => key > std::slice::from_ref(v),
        Bound::Unbounded => true,
    };
    let below = match hi {
        Bound::Included(v) => key <= std::slice::from_ref(v),
        Bound::Excluded(v) => key < std::slice::from_ref(v),
        Bound::Unbounded => true,
    };
    above && below
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn equality_lookup_matches_scan(rows in rows_strategy(), probe in 0i64..20) {
        let t = build_table(&rows);
        let idx = t.index_on(&[0]).expect("k index");
        let via_index: Vec<usize> = idx.get(&[Value::Int(probe)]).to_vec();
        let via_scan: Vec<usize> = t
            .rows()
            .filter(|(_, r)| r[0] == Value::Int(probe))
            .map(|(rid, _)| rid)
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn index_grown_by_inserts_matches_reference(
        first in proptest::collection::vec(row_strategy(10..20), 0..30),
        later in proptest::collection::vec(row_strategy(0..30), 0..30),
    ) {
        // Later keys fall before, among and after the indexed ones.
        let mut t = empty_table();
        insert_rows(&mut t, &first);
        create_indexes(&mut t);
        insert_rows(&mut t, &later);
        for (ix, cols) in t.indexes().iter().zip([&[0][..], &[1, 0][..], &[2][..]]) {
            let want = reference(&t, cols);
            let got: Vec<(Vec<Value>, Vec<RowId>)> = ix
                .entries()
                .map(|(k, rids)| (k.to_vec(), rids.to_vec()))
                .collect();
            prop_assert_eq!(got, want.clone().into_iter().collect::<Vec<_>>());
            for (key, rids) in &want {
                prop_assert_eq!(ix.get(key), rids.as_slice());
            }
        }
    }

    #[test]
    fn range_scan_matches_filter(
        rows in rows_strategy(),
        lo in proptest::collection::vec(0u8..4, 0..3),
        hi in proptest::collection::vec(0u8..4, 0..3),
        lo_k in 0i64..20,
        hi_k in 0i64..20,
        kinds in (0u8..3, 0u8..3),
    ) {
        let t = build_table(&rows);
        let (lo, hi) = (Value::Bytes(lo), Value::Bytes(hi));
        let (lo_k, hi_k) = (Value::Int(lo_k), Value::Int(hi_k));
        for (cols, lo, hi) in [(&[0][..], &lo_k, &hi_k), (&[1, 0][..], &lo, &hi)] {
            let idx = t.indexes().iter().find(|ix| ix.key_cols == cols).expect("index");
            let (lo, hi) = (bound(kinds.0, lo), bound(kinds.1, hi));
            let via_scan: Vec<usize> = reference(&t, cols)
                .into_iter()
                .filter(|(key, _)| in_window(key, lo, hi))
                .flat_map(|(_, rids)| rids)
                .collect();
            prop_assert_eq!(window(idx, lo, hi), via_scan);
        }
    }

    #[test]
    fn seek_from_any_position_matches_seek_from_zero(
        rows in rows_strategy(),
        lo in proptest::collection::vec(0u8..4, 0..3),
        kind in 0u8..3,
    ) {
        let t = build_table(&rows);
        let idx = t.index_on(&[1]).expect("b index");
        let lo = Value::Bytes(lo);
        let lo = bound(kind, &lo);
        let want = idx.seek(lo, 0);
        for from in 0..=idx.distinct_keys() + 1 {
            prop_assert_eq!(idx.seek(lo, from), want, "from {}", from);
        }
    }

    #[test]
    fn prefix_scan_matches_filter(
        rows in rows_strategy(),
        prefix in proptest::collection::vec(0u8..4, 0..2),
    ) {
        // Every key of the composite (b, k) index whose leading column is
        // `prefix`: seek it, and walk to the next byte string.
        let t = build_table(&rows);
        let idx = t.index_on(&[1]).expect("b index");
        let lead = Value::Bytes(prefix.clone());
        let next = Value::Bytes(prefix.iter().copied().chain([0]).collect());
        let mut via_index = window(idx, Bound::Included(&lead), Bound::Excluded(&next));
        via_index.sort_unstable();
        let via_scan: Vec<usize> = t
            .rows()
            .filter(|(_, r)| r[1] == lead)
            .map(|(rid, _)| rid)
            .collect();
        prop_assert_eq!(via_index, via_scan);
    }

    #[test]
    fn null_rows_never_appear_in_indexes(rows in rows_strategy()) {
        let t = build_table(&rows);
        let idx = t.index_on(&[2]).expect("s index");
        let indexed = window(idx, Bound::Unbounded, Bound::Unbounded).len();
        let non_null: usize = t.rows().filter(|(_, r)| !r[2].is_null()).count();
        prop_assert_eq!(indexed, non_null);
    }
}
