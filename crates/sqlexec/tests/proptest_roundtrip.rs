//! Property test: `parse(render(ast)) == ast` for generated SQL ASTs —
//! the textual SQL path must be lossless for everything the translators
//! can emit.

use proptest::prelude::*;
use relstore::Value;
use sqlexec::ast::{CmpOp, Expr, OrderKey, Projection, Select, SelectStmt, TableRef};
use sqlexec::{parse_sql, render_stmt};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite floats with exact decimal text form (so text roundtrips).
        (-1000i32..1000, 1u32..100).prop_map(|(a, b)| Value::Float(a as f64 + b as f64 / 100.0)),
        "[a-z' ]{0,8}".prop_map(Value::Str),
        proptest::collection::vec(any::<u8>(), 0..4).prop_map(Value::Bytes),
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_col() -> impl Strategy<Value = Expr> {
    (
        prop_oneof![Just("t1"), Just("t2"), Just("F_Paths")],
        prop_oneof![Just("id"), Just("dewey_pos"), Just("path"), Just("x")],
    )
        .prop_map(|(q, n)| Expr::column(q, n))
}

fn arb_scalar() -> impl Strategy<Value = Expr> {
    prop_oneof![
        arb_col(),
        arb_value().prop_map(Expr::Literal),
        (arb_col(), arb_value())
            .prop_map(|(c, v)| Expr::Concat(Box::new(c), Box::new(Expr::Literal(v)))),
    ]
}

fn arb_pred() -> impl Strategy<Value = Expr> {
    let cmp = (
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ],
        arb_scalar(),
        arb_scalar(),
    )
        .prop_map(|(op, l, r)| Expr::Cmp {
            op,
            lhs: Box::new(l),
            rhs: Box::new(r),
        });
    let between =
        (arb_col(), arb_scalar(), arb_scalar(), any::<bool>()).prop_map(|(e, lo, hi, negated)| {
            Expr::Between {
                expr: Box::new(e),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            }
        });
    let isnull = (arb_col(), any::<bool>()).prop_map(|(e, negated)| Expr::IsNull {
        expr: Box::new(e),
        negated,
    });
    let regexp = arb_col().prop_map(|c| Expr::RegexpLike {
        subject: Box::new(c),
        pattern: sqlexec::RegexPattern::new("^/a(/[^/]+)*/b$").unwrap(),
    });
    let leaf = prop_oneof![cmp, between, isnull, regexp];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|v| v.into_iter().reduce(|a, b| a.and(b)).expect("non-empty")),
            proptest::collection::vec(inner.clone(), 2..4)
                .prop_map(|v| v.into_iter().reduce(|a, b| a.or(b)).expect("non-empty")),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            inner.prop_map(|e| {
                Expr::Exists(Box::new(Select {
                    distinct: false,
                    projections: vec![Projection {
                        expr: Expr::Literal(Value::Null),
                        alias: None,
                    }],
                    from: vec![TableRef::new("t2", "t2")],
                    where_clause: Some(e),
                    ordinal: 0,
                }))
            }),
        ]
    })
}

fn arb_stmt() -> impl Strategy<Value = SelectStmt> {
    (
        proptest::option::of(arb_pred()),
        any::<bool>(),
        1usize..3,
        any::<bool>(),
    )
        .prop_map(|(w, distinct, branches, desc)| {
            let mk = |w: Option<Expr>| Select {
                distinct,
                projections: vec![
                    Projection {
                        expr: Expr::column("t1", "id"),
                        alias: Some("id".to_string()),
                    },
                    Projection {
                        expr: Expr::column("t1", "dewey_pos"),
                        alias: Some("dewey_pos".to_string()),
                    },
                ],
                from: vec![TableRef::new("T", "t1"), TableRef::new("U", "t2")],
                where_clause: w,
                ordinal: 0,
            };
            SelectStmt {
                branches: (0..branches).map(|_| mk(w.clone())).collect(),
                order_by: vec![OrderKey {
                    expr: Expr::Column {
                        qualifier: None,
                        name: "dewey_pos".to_string(),
                        slot: None,
                    },
                    desc,
                }],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_is_identity(stmt in arb_stmt()) {
        let sql = render_stmt(&stmt);
        let reparsed = parse_sql(&sql)
            .unwrap_or_else(|e| panic!("render output must parse: {e}\nsql: {sql}"));
        prop_assert_eq!(&reparsed, &stmt, "sql: {}", sql);
    }
}
