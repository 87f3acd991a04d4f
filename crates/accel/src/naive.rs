//! The "conventional" schema-aware XPath→SQL translation (paper §4.4's
//! foil, and the stand-in for the commercial RDBMS's built-in XPath of
//! §5): **one foreign-key join per child step**, no path index, no Dewey.
//! Results are ordered by `id`, which the shredder assigns in document
//! order.
//!
//! Like the commercial system in the paper — which "supports only three
//! of the XPathMark queries" — this translator deliberately covers only
//! plain child-axis paths with value/existence predicates.

use sqlexec::{CmpOp, Expr as Sql, OrderKey, Projection, Select, SelectStmt, TableRef};
use xmlschema::Schema;
use xpath::{Axis, CompOp, Expr as XExpr, LocationPath, NodeTest};

use shred::naming::{attr_col, COL_ID, COL_PAR, COL_TEXT};

/// Naive translation error (most queries are simply unsupported — that is
/// the point of this baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveError(pub String);

impl std::fmt::Display for NaiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "naive translation error: {}", self.0)
    }
}

impl std::error::Error for NaiveError {}

fn col(alias: &str, name: &str) -> Sql {
    Sql::column(alias, name)
}

/// Translate a child-axis-only XPath over the schema-aware relations.
pub fn translate_naive(schema: &Schema, expr: &XExpr) -> Result<SelectStmt, NaiveError> {
    let XExpr::Path(path) = expr else {
        return Err(NaiveError("only single paths are supported".into()));
    };
    if !path.absolute {
        return Err(NaiveError("only absolute paths are supported".into()));
    }
    let mut t = Naive { schema, seq: 0 };
    let (from, conjuncts, last, _last_rel) = t.chain(None, path)?;
    Ok(SelectStmt {
        branches: vec![Select {
            distinct: true,
            projections: vec![Projection {
                expr: col(&last, COL_ID),
                alias: Some("id".to_string()),
            }],
            from,
            where_clause: conjuncts.into_iter().reduce(|a, c| a.and(c)),
            ordinal: 0,
        }],
        order_by: vec![OrderKey {
            expr: Sql::Column {
                qualifier: None,
                name: "id".to_string(),
                slot: None,
            },
            desc: false,
        }],
    })
}

struct Naive<'a> {
    schema: &'a Schema,
    seq: usize,
}

impl<'a> Naive<'a> {
    fn alias(&mut self, base: &str) -> String {
        self.seq += 1;
        if self.seq == 1 {
            base.to_string()
        } else {
            format!("{base}_{}", self.seq)
        }
    }

    /// FK-join chain; every step must be `child::name`.
    #[allow(clippy::type_complexity)]
    fn chain(
        &mut self,
        ctx: Option<(&str, &str)>, // (alias, relation)
        path: &LocationPath,
    ) -> Result<(Vec<TableRef>, Vec<Sql>, String, String), NaiveError> {
        let mut from = Vec::new();
        let mut conjuncts = Vec::new();
        let mut prev: Option<(String, String)> = ctx.map(|(a, r)| (a.to_string(), r.to_string()));
        for step in &path.steps {
            if step.axis != Axis::Child {
                return Err(NaiveError(format!(
                    "the `{}` axis is not supported by the built-in translator",
                    step.axis.name()
                )));
            }
            let NodeTest::Name(name) = &step.test else {
                return Err(NaiveError(
                    "wildcards are not supported by the built-in translator".into(),
                ));
            };
            // Schema check: the step must be a legal child.
            match &prev {
                Some((_, rel)) => {
                    if !self.schema.children_of(rel).iter().any(|c| c == name) {
                        return Err(NaiveError(format!("`{name}` cannot nest under `{rel}`")));
                    }
                }
                None => {
                    if self.schema.root() != name {
                        return Err(NaiveError(format!("`{name}` is not the document element")));
                    }
                }
            }
            let v = self.alias(name);
            from.push(TableRef::new(name, &v));
            if let Some((pa, _)) = &prev {
                conjuncts.push(Sql::eq(col(&v, COL_PAR), col(pa, COL_ID)));
            }
            for pred in &step.predicates {
                let c = self.predicate(&v, name, pred)?;
                conjuncts.push(c);
            }
            prev = Some((v, name.clone()));
        }
        let (alias, rel) = prev.ok_or_else(|| NaiveError("empty path".into()))?;
        Ok((from, conjuncts, alias, rel))
    }

    fn predicate(&mut self, v: &str, rel: &str, pred: &XExpr) -> Result<Sql, NaiveError> {
        match pred {
            XExpr::And(xs) => {
                let parts = xs
                    .iter()
                    .map(|x| self.predicate(v, rel, x))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(parts.into_iter().reduce(|a, c| a.and(c)).expect("nonempty"))
            }
            XExpr::Or(xs) => {
                let parts = xs
                    .iter()
                    .map(|x| self.predicate(v, rel, x))
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(parts.into_iter().reduce(|a, c| a.or(c)).expect("nonempty"))
            }
            XExpr::Not(x) => Ok(Sql::Not(Box::new(self.predicate(v, rel, x)?))),
            XExpr::Path(p) => self.exists(v, rel, p, None),
            XExpr::Compare { op, lhs, rhs } => {
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
                if let (XExpr::Path(p), Some(val)) = (lhs.as_ref(), lit(rhs)) {
                    return self.exists(v, rel, p, Some((to_sql_op(*op), val)));
                }
                if let (Some(val), XExpr::Path(p)) = (lit(lhs), rhs.as_ref()) {
                    return self.exists(v, rel, p, Some((to_sql_op(*op).flip(), val)));
                }
                if let (XExpr::Path(p1), XExpr::Path(p2)) = (lhs.as_ref(), rhs.as_ref()) {
                    return self.join_pred(v, rel, to_sql_op(*op), p1, p2);
                }
                Err(NaiveError("unsupported comparison".into()))
            }
            other => Err(NaiveError(format!("unsupported predicate `{other}`"))),
        }
    }

    fn exists(
        &mut self,
        v: &str,
        rel: &str,
        path: &LocationPath,
        value: Option<(CmpOp, relstore::Value)>,
    ) -> Result<Sql, NaiveError> {
        if path.absolute {
            return Err(NaiveError("absolute predicate paths unsupported".into()));
        }
        let mut steps = path.steps.clone();
        let attr = match steps.last() {
            Some(s) if s.axis == Axis::Attribute => steps.pop(),
            _ => None,
        };
        // Attribute directly on the predicated node.
        if steps.is_empty() {
            let Some(step) = attr else {
                return Err(NaiveError("empty predicate path".into()));
            };
            let NodeTest::Name(aname) = &step.test else {
                return Err(NaiveError("@* unsupported".into()));
            };
            let def = self
                .schema
                .def(rel)
                .ok_or_else(|| NaiveError(format!("unknown relation {rel}")))?;
            if !def.attributes.iter().any(|a| &a.name == aname) {
                return Ok(Sql::Literal(relstore::Value::Bool(false)));
            }
            let value_col = col(v, &attr_col(aname));
            return Ok(match value {
                None => Sql::IsNull {
                    expr: Box::new(value_col),
                    negated: true,
                },
                Some((op, val)) => Sql::Cmp {
                    op,
                    lhs: Box::new(value_col),
                    rhs: Box::new(Sql::Literal(val)),
                },
            });
        }
        let sub = LocationPath {
            absolute: false,
            steps,
        };
        let (from, mut conjuncts, last, last_rel) = self.chain(Some((v, rel)), &sub)?;
        match attr {
            Some(step) => {
                let NodeTest::Name(aname) = &step.test else {
                    return Err(NaiveError("@* unsupported".into()));
                };
                let def = self
                    .schema
                    .def(&last_rel)
                    .ok_or_else(|| NaiveError(format!("unknown relation {last_rel}")))?;
                if !def.attributes.iter().any(|a| &a.name == aname) {
                    return Ok(Sql::Literal(relstore::Value::Bool(false)));
                }
                let value_col = col(&last, &attr_col(aname));
                conjuncts.push(match value {
                    None => Sql::IsNull {
                        expr: Box::new(value_col),
                        negated: true,
                    },
                    Some((op, val)) => Sql::Cmp {
                        op,
                        lhs: Box::new(value_col),
                        rhs: Box::new(Sql::Literal(val)),
                    },
                });
            }
            None => {
                if let Some((op, val)) = value {
                    let def = self
                        .schema
                        .def(&last_rel)
                        .ok_or_else(|| NaiveError(format!("unknown relation {last_rel}")))?;
                    if def.text.is_none() {
                        return Ok(Sql::Literal(relstore::Value::Bool(false)));
                    }
                    conjuncts.push(Sql::Cmp {
                        op,
                        lhs: Box::new(col(&last, COL_TEXT)),
                        rhs: Box::new(Sql::Literal(val)),
                    });
                }
            }
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

    fn join_pred(
        &mut self,
        v: &str,
        rel: &str,
        op: CmpOp,
        p1: &LocationPath,
        p2: &LocationPath,
    ) -> Result<Sql, NaiveError> {
        let (f1, c1, a1, r1) = self.chain(Some((v, rel)), p1)?;
        let (f2, c2, a2, r2) = self.chain(Some((v, rel)), p2)?;
        for r in [&r1, &r2] {
            if self.schema.def(r).and_then(|d| d.text).is_none() {
                return Ok(Sql::Literal(relstore::Value::Bool(false)));
            }
        }
        let mut from = f1;
        from.extend(f2);
        let mut conjuncts = c1;
        conjuncts.extend(c2);
        conjuncts.push(Sql::Cmp {
            op,
            lhs: Box::new(col(&a1, COL_TEXT)),
            rhs: Box::new(col(&a2, COL_TEXT)),
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

fn to_sql_op(op: CompOp) -> CmpOp {
    match op {
        CompOp::Eq => CmpOp::Eq,
        CompOp::Ne => CmpOp::Ne,
        CompOp::Lt => CmpOp::Lt,
        CompOp::Le => CmpOp::Le,
        CompOp::Gt => CmpOp::Gt,
        CompOp::Ge => CmpOp::Ge,
    }
}
