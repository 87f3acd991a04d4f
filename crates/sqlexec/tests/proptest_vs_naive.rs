//! Property test: the planned, index-driven executor must produce exactly
//! the rows of the brute-force cross-product reference (`naive_select`)
//! on randomized databases and generated queries, and its statement tail
//! (`DISTINCT`, `UNION`, `ORDER BY`) must order and deduplicate them as
//! the SQL semantics say.

use std::cmp::Ordering;

use proptest::prelude::*;
use relstore::{ColType, Database, TableSchema, Value};
use sqlexec::ast::{CmpOp, Expr, OrderKey, Projection, Select, SelectStmt, TableRef};
use sqlexec::{naive_select, Executor, Rows};

/// Build a two-table database with randomized contents. `R` and `S` have
/// integer, string and bytes columns; both get single and composite
/// indexes so index paths actually get exercised.
fn build_db(r_rows: &[(i64, i64, String)], s_rows: &[(i64, i64, Vec<u8>)]) -> Database {
    let mut db = Database::new();
    db.create_table(TableSchema::new(
        "R",
        &[
            ("id", ColType::Int),
            ("k", ColType::Int),
            ("s", ColType::Str),
        ],
    ))
    .unwrap();
    db.create_table(TableSchema::new(
        "S",
        &[
            ("id", ColType::Int),
            ("rk", ColType::Int),
            ("b", ColType::Bytes),
        ],
    ))
    .unwrap();
    {
        let r = db.table_mut("R").unwrap();
        for (id, k, s) in r_rows {
            r.insert(vec![Value::Int(*id), Value::Int(*k), Value::Str(s.clone())])
                .unwrap();
        }
        r.create_index("r_id", &["id"]).unwrap();
        r.create_index("r_k", &["k"]).unwrap();
    }
    {
        let s = db.table_mut("S").unwrap();
        for (id, rk, b) in s_rows {
            s.insert(vec![
                Value::Int(*id),
                Value::Int(*rk),
                Value::Bytes(b.clone()),
            ])
            .unwrap();
        }
        s.create_index("s_rk", &["rk"]).unwrap();
        s.create_index("s_b", &["b"]).unwrap();
    }
    db
}

/// A small pool of predicate shapes over R (alias r) and S (alias s).
fn arb_predicate() -> impl Strategy<Value = Expr> {
    let lit_int = (0i64..8).prop_map(Expr::int);
    let r_k = Just(Expr::column("r", "k"));
    let s_rk = Just(Expr::column("s", "rk"));
    let cmp_op = prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Ge)
    ];
    let join =
        (cmp_op.clone(), r_k.clone(), s_rk.clone()).prop_map(|(op, a, b)| Expr::cmp(op, a, b));
    let filter_r =
        (cmp_op.clone(), r_k, lit_int.clone()).prop_map(|(op, a, b)| Expr::cmp(op, a, b));
    let filter_s = (cmp_op, s_rk, lit_int.clone()).prop_map(|(op, a, b)| Expr::cmp(op, a, b));
    let between = (0i64..6, 0i64..6).prop_map(|(a, b)| Expr::Between {
        expr: Box::new(Expr::column("s", "rk")),
        lo: Box::new(Expr::int(a.min(b))),
        hi: Box::new(Expr::int(a.max(b))),
        negated: false,
    });
    let bytes_range = proptest::collection::vec(0u8..4, 0..3).prop_map(|b| Expr::Between {
        expr: Box::new(Expr::column("s", "b")),
        lo: Box::new(Expr::Literal(Value::Bytes(b.clone()))),
        hi: Box::new(Expr::Concat(
            Box::new(Expr::Literal(Value::Bytes(b))),
            Box::new(Expr::Literal(Value::Bytes(vec![0xFF]))),
        )),
        negated: false,
    });
    prop_oneof![join, filter_r, filter_s, between, bytes_range]
}

fn arb_where() -> impl Strategy<Value = Option<Expr>> {
    proptest::collection::vec(arb_predicate(), 0..4).prop_flat_map(|preds| {
        if preds.is_empty() {
            Just(None).boxed()
        } else {
            // Combine with a random mix of AND plus an occasional OR / NOT.
            let n = preds.len();
            (Just(preds), 0..n, any::<bool>(), any::<bool>())
                .prop_map(|(preds, or_at, use_or, negate)| {
                    let mut it = preds.into_iter();
                    let mut acc = it.next().expect("non-empty");
                    for (i, p) in it.enumerate() {
                        if use_or && i == or_at {
                            acc = acc.or(p);
                        } else {
                            acc = acc.and(p);
                        }
                    }
                    if negate {
                        acc = Expr::Not(Box::new(acc));
                    }
                    Some(acc)
                })
                .boxed()
        }
    })
}

fn to_vecs(rows: &Rows) -> Vec<Vec<Value>> {
    rows.iter().map(<[Value]>::to_vec).collect()
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b.iter()) {
            let o = x.cmp_total(y);
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

/// The tail case's output columns: `k` and `rk` range over 0..8 and `b`
/// over a handful of short byte strings, so ORDER BY keys on them tie. A
/// wide statement projects all five, more than the executor resolves
/// without a heap-allocated slot table; a narrow one the first four.
const TAIL_COLUMNS: [(&str, &str, &str); 5] = [
    ("r", "k", "k"),
    ("s", "rk", "rk"),
    ("r", "id", "rid"),
    ("s", "b", "b"),
    ("s", "id", "sid"),
];

/// Output columns an ORDER BY key may name: the small-domain ones.
const TAIL_KEY_COLUMNS: [usize; 3] = [0, 1, 3];

fn tail_arm(distinct: bool, where_clause: Option<Expr>, wide: bool) -> Select {
    Select {
        distinct,
        projections: TAIL_COLUMNS[..if wide { 5 } else { 4 }]
            .iter()
            .map(|(q, c, alias)| Projection {
                expr: Expr::column(q, c),
                alias: Some(alias.to_string()),
            })
            .collect(),
        from: vec![TableRef::new("R", "r"), TableRef::new("S", "s")],
        where_clause,
        ordinal: 0,
    }
}

fn cmp_by_keys(keys: &[(usize, bool)], a: &[Value], b: &[Value]) -> Ordering {
    for &(i, desc) in keys {
        let ord = a[i].cmp_total(&b[i]);
        let ord = if desc { ord.reverse() } else { ord };
        if ord.is_ne() {
            return ord;
        }
    }
    Ordering::Equal
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `DISTINCT`, `UNION` and `ORDER BY` against their definition: each
    /// arm's rows from `naive_select` (which applies the arm's DISTINCT),
    /// concatenated; for a UNION, the first occurrence of each row; then
    /// a stable sort by the keys. The key sequence must match exactly.
    /// Within a run of equal keys the order of the rows depends on the
    /// plan, so each run is compared as a multiset.
    #[test]
    fn tail_matches_sql_semantics(
        r_rows in proptest::collection::vec((0i64..30, 0i64..8, "[a-c]{0,2}"), 0..25),
        s_rows in proptest::collection::vec(
            (0i64..30, 0i64..8, proptest::collection::vec(0u8..3, 0..3)), 0..25),
        arms in proptest::collection::vec((any::<bool>(), arb_where()), 1..=2),
        keys in proptest::collection::vec(
            ((0..TAIL_KEY_COLUMNS.len()).prop_map(|i| TAIL_KEY_COLUMNS[i]), any::<bool>()), 1..=2),
        wide in any::<bool>(),
    ) {
        let db = build_db(&r_rows, &s_rows);
        let arms: Vec<Select> = arms
            .into_iter()
            .map(|(distinct, where_clause)| tail_arm(distinct, where_clause, wide))
            .collect();

        let mut expected: Vec<Vec<Value>> = Vec::new();
        for arm in &arms {
            expected.extend(naive_select(&db, arm).expect("naive"));
        }
        if arms.len() > 1 {
            let mut seen = std::collections::BTreeSet::new();
            expected.retain(|r| seen.insert(r.clone()));
        }
        expected.sort_by(|a, b| cmp_by_keys(&keys, a, b));

        let stmt = SelectStmt {
            branches: arms,
            order_by: keys
                .iter()
                .map(|&(i, desc)| OrderKey {
                    expr: Expr::Column { qualifier: None, name: TAIL_COLUMNS[i].2.to_string(), slot: None },
                    desc,
                })
                .collect(),
        };
        let got = to_vecs(&Executor::new(&db).run(&stmt).expect("planned").rows);

        let key_seq = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
            rows.iter().map(|r| keys.iter().map(|&(i, _)| r[i].clone()).collect()).collect()
        };
        prop_assert_eq!(key_seq(&got), key_seq(&expected));
        let mut at = 0;
        for run in expected.chunk_by(|a, b| cmp_by_keys(&keys, a, b).is_eq()) {
            let got_run = got[at..at + run.len()].to_vec();
            prop_assert_eq!(sorted(got_run), sorted(run.to_vec()));
            at += run.len();
        }
    }

    #[test]
    fn planned_execution_matches_naive(
        r_rows in proptest::collection::vec((0i64..30, 0i64..8, "[a-c]{0,2}"), 0..25),
        s_rows in proptest::collection::vec(
            (0i64..30, 0i64..8, proptest::collection::vec(0u8..4, 0..4)), 0..25),
        where_clause in arb_where(),
        distinct in any::<bool>(),
    ) {
        let db = build_db(&r_rows, &s_rows);
        let select = Select {
            distinct,
            projections: vec![
                Projection::col("r", "id"),
                Projection::col("s", "id"),
                Projection::col("s", "b"),
            ],
            from: vec![TableRef::new("R", "r"), TableRef::new("S", "s")],
            where_clause,
            ordinal: 0,
        };
        let expected = sorted(naive_select(&db, &select).expect("naive"));
        let exec = Executor::new(&db);
        let got = exec.run(&SelectStmt::single(select)).expect("planned");
        prop_assert_eq!(sorted(to_vecs(&got.rows)), expected);
    }

    #[test]
    fn exists_matches_semijoin_semantics(
        r_rows in proptest::collection::vec((0i64..20, 0i64..6, "[ab]{0,2}"), 1..15),
        s_rows in proptest::collection::vec(
            (0i64..20, 0i64..6, proptest::collection::vec(0u8..3, 0..3)), 0..15),
    ) {
        let db = build_db(&r_rows, &s_rows);
        // r rows with at least one s where s.rk = r.k
        let sub = Select {
            distinct: false,
            projections: vec![Projection { expr: Expr::Literal(Value::Null), alias: None }],
            from: vec![TableRef::new("S", "s")],
            where_clause: Some(Expr::eq(Expr::column("s", "rk"), Expr::column("r", "k"))),
            ordinal: 0,
        };
        let select = Select {
            distinct: false,
            projections: vec![Projection::col("r", "id")],
            from: vec![TableRef::new("R", "r")],
            where_clause: Some(Expr::Exists(Box::new(sub))),
            ordinal: 0,
        };
        let exec = Executor::new(&db);
        let got = sorted(to_vecs(&exec.run(&SelectStmt::single(select)).expect("run").rows));
        let mut expected: Vec<Vec<Value>> = r_rows
            .iter()
            .filter(|(_, k, _)| s_rows.iter().any(|(_, rk, _)| rk == k))
            .map(|(id, _, _)| vec![Value::Int(*id)])
            .collect();
        expected = sorted(expected);
        prop_assert_eq!(got, expected);
    }
}
