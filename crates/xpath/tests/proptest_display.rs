//! Property test: `parse(display(ast))` is the AST itself — the Display
//! form reparses to an identical tree (used by diagnostics and the CLI,
//! so it must not drop or reorder anything): literals holding either
//! quote, right-nested `-` and `div`, comparisons as operands, and
//! `and`/`or` lists nested in lists of the same kind.

use proptest::prelude::*;
use xpath::{parse_xpath, Axis, CompOp, Expr, LocationPath, NodeTest, NumOp, Step};

fn arb_axis() -> impl Strategy<Value = Axis> {
    prop_oneof![
        Just(Axis::Child),
        Just(Axis::Descendant),
        Just(Axis::DescendantOrSelf),
        Just(Axis::SelfAxis),
        Just(Axis::Parent),
        Just(Axis::Ancestor),
        Just(Axis::AncestorOrSelf),
        Just(Axis::Following),
        Just(Axis::Preceding),
        Just(Axis::FollowingSibling),
        Just(Axis::PrecedingSibling),
    ]
}

fn arb_test() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        prop_oneof![Just("a"), Just("bc"), Just("x_y"), Just("k-w")]
            .prop_map(|n| NodeTest::Name(n.to_string())),
        Just(NodeTest::Wildcard),
        Just(NodeTest::AnyNode),
    ]
}

fn arb_leaf_path() -> impl Strategy<Value = Expr> {
    (arb_axis(), arb_test()).prop_map(|(axis, test)| {
        Expr::Path(LocationPath {
            absolute: false,
            steps: vec![Step::new(axis, test)],
        })
    })
}

/// Literals as a query can write them: either quote may appear, but not
/// both (XPath 1.0 literals have no escapes).
fn arb_literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just("v"),
        Just("42"),
        Just(""),
        Just("it's"),
        Just("say \"hi\""),
        Just("a b"),
        Just("é€"),
    ]
    .prop_map(|s| Expr::Literal(s.to_string()))
}

fn arb_cmp_op() -> impl Strategy<Value = CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Ne),
        Just(CompOp::Lt),
        Just(CompOp::Le),
        Just(CompOp::Gt),
        Just(CompOp::Ge),
    ]
}

fn arb_num_op() -> impl Strategy<Value = NumOp> {
    prop_oneof![
        Just(NumOp::Add),
        Just(NumOp::Sub),
        Just(NumOp::Div),
        Just(NumOp::Mod),
    ]
}

fn arb_predicate() -> impl Strategy<Value = Expr> {
    let value = prop_oneof![
        arb_literal(),
        prop_oneof![Just(0.5), Just(3.0), Just(-2.0)].prop_map(Expr::Number),
    ];
    let cmp = (arb_leaf_path(), arb_cmp_op(), value).prop_map(|(p, op, v)| Expr::Compare {
        op,
        lhs: Box::new(p),
        rhs: Box::new(v),
    });
    let leaf = prop_oneof![arb_leaf_path(), cmp];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..3).prop_map(Expr::Or),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            (inner.clone(), arb_cmp_op(), inner.clone()).prop_map(|(l, op, r)| Expr::Compare {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
            (inner.clone(), arb_num_op(), inner).prop_map(|(l, op, r)| Expr::Arith {
                op,
                lhs: Box::new(l),
                rhs: Box::new(r),
            }),
        ]
    })
}

fn arb_path() -> impl Strategy<Value = Expr> {
    proptest::collection::vec(
        (
            arb_axis(),
            arb_test(),
            proptest::option::of(arb_predicate()),
        ),
        1..5,
    )
    .prop_map(|steps| {
        let steps = steps
            .into_iter()
            .map(|(axis, test, pred)| {
                let mut s = Step::new(axis, test);
                if let Some(p) = pred {
                    s.predicates.push(p);
                }
                s
            })
            .collect();
        Expr::Path(LocationPath {
            absolute: true,
            steps,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_reparses_to_fixpoint(e in arb_path()) {
        let shown = e.to_string();
        let reparsed = parse_xpath(&shown)
            .unwrap_or_else(|err| panic!("display output must parse: {err}\nquery: {shown}"));
        prop_assert_eq!(&reparsed, &e, "{}", shown);
        prop_assert_eq!(reparsed.to_string(), shown);
    }
}

/// The three trees the old Display printed as a different tree or as
/// text that does not parse.
#[test]
fn operands_and_quotes_round_trip() {
    for q in [
        "//a[b - (c - d) = 1]",
        "//a[b div (c div d) = 1]",
        r#"//a[@x = "it's"]"#,
        "//a[(b = 1) = (c = 2)]",
        "//a[(b or c) and d]",
        "//a[b or (c or d)]",
        "//a[b = (1 + 2)]",
    ] {
        let e = parse_xpath(q).unwrap();
        let shown = e.to_string();
        assert_eq!(
            parse_xpath(&shown).as_ref(),
            Ok(&e),
            "{q} printed as {shown}"
        );
    }
}
