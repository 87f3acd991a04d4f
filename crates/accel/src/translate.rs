//! XPath → SQL translation over the accelerator store: **one self-join of
//! the central relation per location step**, with the axes expressed as
//! pre/post window predicates ("staked-out query windows", paper ref 2).
//!
//! This is the baseline the paper compares PPF processing against: no
//! path index, no schema knowledge — the number of joins grows with the
//! number of steps.

use sqlexec::{CmpOp, Expr as Sql, OrderKey, Projection, Select, SelectStmt, TableRef};
use xpath::{Axis, CompOp, Expr as XExpr, LocationPath, NodeTest, Step};

use crate::store::{ACCEL_ATTRS, ACCEL_TABLE};

/// Translation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelError(pub String);

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "accelerator translation error: {}", self.0)
    }
}

impl std::error::Error for AccelError {}

fn col(alias: &str, name: &str) -> Sql {
    Sql::column(alias, name)
}

/// Translate an XPath expression to accelerator SQL.
pub fn translate_accel(expr: &XExpr) -> Result<SelectStmt, AccelError> {
    let paths: Vec<&LocationPath> = match expr {
        XExpr::Path(p) => vec![p],
        XExpr::Union(ps) => ps.iter().collect(),
        other => {
            return Err(AccelError(format!(
                "top-level expression must be a path, got `{other}`"
            )))
        }
    };
    let mut t = Translator { seq: 0 };
    let mut branches = Vec::new();
    for p in paths {
        if !p.absolute {
            return Err(AccelError("top-level paths must be absolute".into()));
        }
        let chain = t.chain(None, &p.steps)?;
        let last = chain
            .last_alias
            .clone()
            .ok_or_else(|| AccelError("empty path".into()))?;
        branches.push(Select {
            distinct: true,
            projections: vec![
                Projection {
                    expr: col(&last, "pre"),
                    alias: Some("id".to_string()),
                },
                Projection {
                    expr: col(&last, "pre"),
                    alias: Some("pre".to_string()),
                },
            ],
            from: chain.from,
            where_clause: chain.conjuncts.into_iter().reduce(|a, c| a.and(c)),
            ordinal: 0,
        });
    }
    Ok(SelectStmt {
        branches,
        order_by: vec![OrderKey {
            expr: Sql::Column {
                qualifier: None,
                name: "pre".to_string(),
                slot: None,
            },
            desc: false,
        }],
    })
}

struct Chain {
    from: Vec<TableRef>,
    conjuncts: Vec<Sql>,
    last_alias: Option<String>,
}

struct Translator {
    seq: usize,
}

impl Translator {
    fn alias(&mut self) -> String {
        self.seq += 1;
        format!("v{}", self.seq)
    }

    /// Build the join chain for a step sequence starting from `ctx`
    /// (None = document root).
    fn chain(&mut self, ctx: Option<&str>, steps: &[Step]) -> Result<Chain, AccelError> {
        // Collapse the `//` desugaring (descendant-or-self::node() /
        // child::X) into a single descendant::X step — the standard
        // accelerator rewrite; otherwise every `//` would add a join
        // matching all rows.
        let mut steps_vec: Vec<Step> = Vec::with_capacity(steps.len());
        let mut iter = steps.iter().peekable();
        while let Some(s) = iter.next() {
            let is_dos_node = s.axis == Axis::DescendantOrSelf
                && s.test == NodeTest::AnyNode
                && s.predicates.is_empty();
            if is_dos_node {
                if let Some(next) = iter.peek() {
                    if next.axis == Axis::Child {
                        let mut merged = (*iter.next().expect("peeked")).clone();
                        merged.axis = Axis::Descendant;
                        steps_vec.push(merged);
                        continue;
                    }
                }
            }
            steps_vec.push(s.clone());
        }
        let steps = &steps_vec[..];

        let mut from = Vec::new();
        let mut conjuncts = Vec::new();
        let mut prev: Option<String> = ctx.map(|s| s.to_string());
        let mut at_root = ctx.is_none();

        for (i, step) in steps.iter().enumerate() {
            if step.axis == Axis::Attribute {
                return Err(AccelError(
                    "attribute steps are handled inside predicates only".into(),
                ));
            }
            if step.test == NodeTest::Text {
                // A final text() step selects the `value` column of the
                // previous alias.
                if i + 1 != steps.len() || step.axis != Axis::Child {
                    return Err(AccelError(
                        "text() only supported as a final plain step".into(),
                    ));
                }
                let p = prev
                    .clone()
                    .ok_or_else(|| AccelError("text() needs a context step".into()))?;
                conjuncts.push(Sql::IsNull {
                    expr: Box::new(col(&p, "value")),
                    negated: true,
                });
                continue;
            }
            let v = self.alias();
            from.push(TableRef::new(ACCEL_TABLE, &v));
            // Name test.
            if let NodeTest::Name(n) = &step.test {
                conjuncts.push(Sql::eq(col(&v, "name"), Sql::str(n)));
            }
            // Axis window.
            match (&prev, step.axis, at_root) {
                (None, Axis::Child, true) => {
                    // Document element(s): level 1.
                    conjuncts.push(Sql::eq(col(&v, "level"), Sql::int(1)));
                }
                (None, Axis::Descendant | Axis::DescendantOrSelf, true) => {
                    // anything (all nodes descend from the root)
                }
                (None, axis, _) => {
                    return Err(AccelError(format!(
                        "axis `{}` cannot start a path",
                        axis.name()
                    )))
                }
                (Some(p), axis, _) => {
                    self.axis_window(&mut conjuncts, p, &v, axis)?;
                }
            }
            at_root = false;
            // Predicates.
            for pred in &step.predicates {
                let c = self.predicate(&v, pred)?;
                conjuncts.push(c);
            }
            prev = Some(v);
        }
        Ok(Chain {
            from,
            conjuncts,
            last_alias: prev,
        })
    }

    fn axis_window(
        &mut self,
        conjuncts: &mut Vec<Sql>,
        p: &str,
        v: &str,
        axis: Axis,
    ) -> Result<(), AccelError> {
        match axis {
            Axis::Child => {
                conjuncts.push(Sql::eq(col(v, "par_pre"), col(p, "pre")));
            }
            Axis::Parent => {
                conjuncts.push(Sql::eq(col(v, "pre"), col(p, "par_pre")));
            }
            Axis::Descendant => {
                // "Staked-out query window": descendants of p are exactly
                // pre ∈ (p.pre, p.pre + p.size] — a closed interval the
                // pre-index can range-scan (the accelerator paper's own
                // shrink-wrapping optimization).
                conjuncts.push(Sql::cmp(CmpOp::Gt, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(
                    CmpOp::Le,
                    col(v, "pre"),
                    Sql::Arith {
                        op: sqlexec::ArithOp::Add,
                        lhs: Box::new(col(p, "pre")),
                        rhs: Box::new(col(p, "size")),
                    },
                ));
            }
            Axis::DescendantOrSelf => {
                conjuncts.push(Sql::cmp(CmpOp::Ge, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(
                    CmpOp::Le,
                    col(v, "pre"),
                    Sql::Arith {
                        op: sqlexec::ArithOp::Add,
                        lhs: Box::new(col(p, "pre")),
                        rhs: Box::new(col(p, "size")),
                    },
                ));
            }
            Axis::Ancestor => {
                conjuncts.push(Sql::cmp(CmpOp::Lt, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(CmpOp::Gt, col(v, "post"), col(p, "post")));
            }
            Axis::AncestorOrSelf => {
                conjuncts.push(Sql::cmp(CmpOp::Le, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(CmpOp::Ge, col(v, "post"), col(p, "post")));
            }
            Axis::SelfAxis => {
                conjuncts.push(Sql::eq(col(v, "pre"), col(p, "pre")));
            }
            Axis::Following => {
                conjuncts.push(Sql::cmp(CmpOp::Gt, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(CmpOp::Gt, col(v, "post"), col(p, "post")));
                conjuncts.push(Sql::eq(col(v, "doc_id"), col(p, "doc_id")));
            }
            Axis::Preceding => {
                conjuncts.push(Sql::cmp(CmpOp::Lt, col(v, "pre"), col(p, "pre")));
                conjuncts.push(Sql::cmp(CmpOp::Lt, col(v, "post"), col(p, "post")));
                conjuncts.push(Sql::eq(col(v, "doc_id"), col(p, "doc_id")));
            }
            Axis::FollowingSibling => {
                conjuncts.push(Sql::eq(col(v, "par_pre"), col(p, "par_pre")));
                conjuncts.push(Sql::cmp(CmpOp::Gt, col(v, "pre"), col(p, "pre")));
            }
            Axis::PrecedingSibling => {
                conjuncts.push(Sql::eq(col(v, "par_pre"), col(p, "par_pre")));
                conjuncts.push(Sql::cmp(CmpOp::Lt, col(v, "pre"), col(p, "pre")));
            }
            Axis::Attribute => return Err(AccelError("attribute axis in element position".into())),
        }
        Ok(())
    }

    /// Translate a predicate on alias `v`.
    fn predicate(&mut self, v: &str, pred: &XExpr) -> Result<Sql, AccelError> {
        match pred {
            XExpr::And(xs) => {
                let parts = xs
                    .iter()
                    .map(|x| self.predicate(v, x))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(parts
                    .into_iter()
                    .reduce(|a, c| a.and(c))
                    .expect("non-empty"))
            }
            XExpr::Or(xs) => {
                let parts = xs
                    .iter()
                    .map(|x| self.predicate(v, x))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(parts.into_iter().reduce(|a, c| a.or(c)).expect("non-empty"))
            }
            XExpr::Not(x) => Ok(Sql::Not(Box::new(self.predicate(v, x)?))),
            XExpr::Path(p) => self.path_exists(v, p, None),
            XExpr::Compare { op, lhs, rhs } => self.compare(v, *op, lhs, rhs),
            other => Err(AccelError(format!(
                "predicate `{other}` is outside the accelerator subset"
            ))),
        }
    }

    fn compare(
        &mut self,
        v: &str,
        op: CompOp,
        lhs: &XExpr,
        rhs: &XExpr,
    ) -> Result<Sql, AccelError> {
        let lit = |e: &XExpr| -> Option<relstore::Value> {
            match e {
                XExpr::Literal(s) => Some(relstore::Value::Str(s.clone())),
                XExpr::Number(n) => Some(if n.fract() == 0.0 {
                    relstore::Value::Int(*n as i64)
                } else {
                    relstore::Value::Float(*n)
                }),
                _ => None,
            }
        };
        if let (XExpr::Path(p), Some(val)) = (lhs, lit(rhs)) {
            return self.path_exists(v, p, Some((sql_op(op), val)));
        }
        if let (Some(val), XExpr::Path(p)) = (lit(lhs), rhs) {
            return self.path_exists(v, p, Some((sql_op(op).flip(), val)));
        }
        if let (XExpr::Path(p1), XExpr::Path(p2)) = (lhs, rhs) {
            return self.path_join(v, sql_op(op), p1, p2);
        }
        Err(AccelError(format!(
            "comparison `{lhs} {} {rhs}` is outside the accelerator subset",
            op.symbol()
        )))
    }

    /// EXISTS for a relative path from `v`, optionally comparing the final
    /// value.
    fn path_exists(
        &mut self,
        v: &str,
        path: &LocationPath,
        value: Option<(CmpOp, relstore::Value)>,
    ) -> Result<Sql, AccelError> {
        let mut steps = path.steps.clone();
        // Trailing attribute: value lives in the attrs relation.
        let attr = match steps.last() {
            Some(s) if s.axis == Axis::Attribute => steps.pop(),
            _ => None,
        };
        let text_step = match steps.last() {
            Some(s) if s.test == NodeTest::Text && s.axis == Axis::Child => steps.pop(),
            _ => None,
        };
        let ctx = if path.absolute { None } else { Some(v) };
        let chain = self.chain(ctx, &steps)?;
        let mut from = chain.from;
        let mut conjuncts = chain.conjuncts;
        let owner = chain.last_alias.unwrap_or_else(|| v.to_string());
        match attr {
            Some(step) => {
                let a = self.alias();
                from.push(TableRef::new(ACCEL_ATTRS, &a));
                conjuncts.push(Sql::eq(col(&a, "owner_pre"), col(&owner, "pre")));
                if let NodeTest::Name(n) = &step.test {
                    conjuncts.push(Sql::eq(col(&a, "name"), Sql::str(n)));
                }
                if let Some((op, val)) = value {
                    conjuncts.push(Sql::Cmp {
                        op,
                        lhs: Box::new(col(&a, "value")),
                        rhs: Box::new(Sql::Literal(val)),
                    });
                }
            }
            None => {
                let _ = text_step;
                if let Some((op, val)) = value {
                    conjuncts.push(Sql::Cmp {
                        op,
                        lhs: Box::new(col(&owner, "value")),
                        rhs: Box::new(Sql::Literal(val)),
                    });
                }
            }
        }
        if from.is_empty() {
            // Pure value predicate on the current node (e.g. `. = 'x'`).
            return Ok(conjuncts
                .into_iter()
                .reduce(|a, c| a.and(c))
                .unwrap_or(Sql::Literal(relstore::Value::Bool(true))));
        }
        Ok(Sql::Exists(Box::new(Select {
            distinct: false,
            projections: vec![Projection {
                expr: Sql::Literal(relstore::Value::Null),
                alias: None,
            }],
            from,
            where_clause: conjuncts.into_iter().reduce(|a, c| a.and(c)),
            ordinal: 0,
        })))
    }

    /// `[p1 <op> p2]` join predicate.
    fn path_join(
        &mut self,
        v: &str,
        op: CmpOp,
        p1: &LocationPath,
        p2: &LocationPath,
    ) -> Result<Sql, AccelError> {
        let mut sides = Vec::new();
        for p in [p1, p2] {
            let ctx = if p.absolute { None } else { Some(v) };
            let chain = self.chain(ctx, &p.steps)?;
            sides.push(chain);
        }
        let s2 = sides.pop().expect("two sides");
        let s1 = sides.pop().expect("two sides");
        let a1 = s1
            .last_alias
            .ok_or_else(|| AccelError("empty join path".into()))?;
        let a2 = s2
            .last_alias
            .ok_or_else(|| AccelError("empty join path".into()))?;
        let mut from = s1.from;
        from.extend(s2.from);
        let mut conjuncts = s1.conjuncts;
        conjuncts.extend(s2.conjuncts);
        conjuncts.push(Sql::Cmp {
            op,
            lhs: Box::new(col(&a1, "value")),
            rhs: Box::new(col(&a2, "value")),
        });
        Ok(Sql::Exists(Box::new(Select {
            distinct: false,
            projections: vec![Projection {
                expr: Sql::Literal(relstore::Value::Null),
                alias: None,
            }],
            from,
            where_clause: conjuncts.into_iter().reduce(|a, c| a.and(c)),
            ordinal: 0,
        })))
    }
}

fn sql_op(op: CompOp) -> CmpOp {
    match op {
        CompOp::Eq => CmpOp::Eq,
        CompOp::Ne => CmpOp::Ne,
        CompOp::Lt => CmpOp::Lt,
        CompOp::Le => CmpOp::Le,
        CompOp::Gt => CmpOp::Gt,
        CompOp::Ge => CmpOp::Ge,
    }
}
