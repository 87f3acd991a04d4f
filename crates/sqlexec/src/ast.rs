//! SQL abstract syntax tree.
//!
//! Covers the fragment the PPF translator (and the baselines) emit:
//! `SELECT [DISTINCT] … FROM … WHERE … [ORDER BY …]`, `UNION`, correlated
//! `EXISTS(…)` subqueries, scalar `(SELECT COUNT(*) …)` subqueries,
//! `BETWEEN`, `REGEXP_LIKE`, the `||` concatenation operator, and basic
//! arithmetic. The AST renders to SQL text ([`crate::render`]) and is what
//! the executor consumes directly.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use regexlite::{MatchCounts, Regex};
use relstore::Value;

/// The pattern of a `REGEXP_LIKE`, compiled when its expression is built.
///
/// It can only be built by compiling, so a statement never holds a
/// pattern that does not compile, and the executor matches through the
/// program its statement owns. Clones share that one program and the
/// lazy-DFA states its earlier matches built. It derefs to, compares by
/// and prints as its source text.
#[derive(Clone)]
pub struct RegexPattern(Arc<Regex>);

impl RegexPattern {
    /// Compile `text` as a POSIX ERE.
    pub fn new(text: &str) -> Result<RegexPattern, regexlite::Error> {
        Regex::new(text).map(|re| RegexPattern(Arc::new(re)))
    }

    /// Whether the pattern matches anywhere in `input`.
    pub fn is_match(&self, input: &str) -> bool {
        self.0.is_match(input)
    }

    /// [`RegexPattern::is_match`], adding the match's work to `counts`.
    pub fn is_match_counted(&self, input: &str, counts: &mut MatchCounts) -> bool {
        self.0.is_match_counted(input, counts)
    }
}

impl Deref for RegexPattern {
    type Target = str;

    fn deref(&self) -> &str {
        self.0.as_str()
    }
}

impl PartialEq for RegexPattern {
    fn eq(&self, other: &RegexPattern) -> bool {
        **self == **other
    }
}

impl fmt::Debug for RegexPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// A full statement: one select or a `UNION` chain, with a statement-level
/// `ORDER BY` (as in the paper's translations, which order the final result
/// by `dewey_pos` for document order).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub branches: Vec<Select>,
    pub order_by: Vec<OrderKey>,
}

impl SelectStmt {
    /// A statement with a single branch.
    pub fn single(select: Select) -> SelectStmt {
        SelectStmt {
            branches: vec![select],
            order_by: Vec::new(),
        }
    }
}

/// One `SELECT` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
}

/// A projected expression with an optional output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct Projection {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl Projection {
    pub fn col(qualifier: &str, name: &str) -> Projection {
        Projection {
            expr: Expr::column(qualifier, name),
            alias: None,
        }
    }
}

/// A table in the `FROM` clause with its binding alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: String,
}

impl TableRef {
    pub fn new(table: &str, alias: &str) -> TableRef {
        TableRef {
            table: table.to_string(),
            alias: alias.to_string(),
        }
    }
}

/// An `ORDER BY` key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub desc: bool,
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        }
    }
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `alias.column` (qualifier optional only in hand-written SQL; the
    /// translator always qualifies).
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    Cmp {
        op: CmpOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Between {
        expr: Box<Expr>,
        lo: Box<Expr>,
        hi: Box<Expr>,
        negated: bool,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    Not(Box<Expr>),
    /// `EXISTS (select …)` — may be correlated with outer aliases.
    Exists(Box<Select>),
    /// `(select …)` used as a scalar (first column of the single row;
    /// NULL when empty). With a `COUNT(*)` projection this is how position
    /// predicates translate.
    ScalarSubquery(Box<Select>),
    /// `REGEXP_LIKE(subject, 'pattern')` — POSIX ERE, per Oracle 10g.
    RegexpLike {
        subject: Box<Expr>,
        pattern: RegexPattern,
    },
    /// Binary string / text concatenation `a || b`.
    Concat(Box<Expr>, Box<Expr>),
    Arith {
        op: ArithOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `COUNT(*)` — only valid as a projection.
    CountStar,
}

impl Expr {
    pub fn column(qualifier: &str, name: &str) -> Expr {
        Expr::Column {
            qualifier: Some(qualifier.to_string()),
            name: name.to_string(),
        }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    pub fn str(v: &str) -> Expr {
        Expr::Literal(Value::Str(v.to_string()))
    }

    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Conjoin two optional predicates.
    pub fn and_opt(a: Option<Expr>, b: Option<Expr>) -> Option<Expr> {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(a), Some(b)) => Some(a.and(b)),
        }
    }

    /// `self AND other`, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        let mut parts = match self {
            Expr::And(xs) => xs,
            x => vec![x],
        };
        match other {
            Expr::And(ys) => parts.extend(ys),
            y => parts.push(y),
        }
        Expr::And(parts)
    }

    /// `self OR other`, flattening nested ORs.
    pub fn or(self, other: Expr) -> Expr {
        let mut parts = match self {
            Expr::Or(xs) => xs,
            x => vec![x],
        };
        match other {
            Expr::Or(ys) => parts.extend(ys),
            y => parts.push(y),
        }
        Expr::Or(parts)
    }

    /// All alias qualifiers referenced by this expression, *excluding*
    /// those bound inside nested subqueries (their FROM aliases shadow).
    pub fn free_aliases(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column { qualifier, .. } => {
                if let Some(q) = qualifier {
                    if !out.contains(q) {
                        out.push(q.clone());
                    }
                }
            }
            Expr::Literal(_) | Expr::CountStar => {}
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } => {
                lhs.free_aliases(out);
                rhs.free_aliases(out);
            }
            Expr::Between { expr, lo, hi, .. } => {
                expr.free_aliases(out);
                lo.free_aliases(out);
                hi.free_aliases(out);
            }
            Expr::And(xs) | Expr::Or(xs) => {
                for x in xs {
                    x.free_aliases(out);
                }
            }
            Expr::Not(x) | Expr::IsNull { expr: x, .. } => x.free_aliases(out),
            Expr::Concat(a, b) => {
                a.free_aliases(out);
                b.free_aliases(out);
            }
            Expr::RegexpLike { subject, .. } => subject.free_aliases(out),
            Expr::Exists(sel) | Expr::ScalarSubquery(sel) => {
                let bound: Vec<&str> = sel.from.iter().map(|t| t.alias.as_str()).collect();
                let mut inner = Vec::new();
                if let Some(w) = &sel.where_clause {
                    w.free_aliases(&mut inner);
                }
                for p in &sel.projections {
                    p.expr.free_aliases(&mut inner);
                }
                for q in inner {
                    if !bound.contains(&q.as_str()) && !out.contains(&q) {
                        out.push(q);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn and_flattens() {
        let e = Expr::int(1).and(Expr::int(2)).and(Expr::int(3));
        match e {
            Expr::And(xs) => assert_eq!(xs.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn free_aliases_respects_subquery_scope() {
        // EXISTS(select from F where F.x = B.y): only B is free.
        let sub = Select {
            distinct: false,
            projections: vec![Projection {
                expr: Expr::Literal(Value::Null),
                alias: None,
            }],
            from: vec![TableRef::new("F", "F")],
            where_clause: Some(Expr::eq(Expr::column("F", "x"), Expr::column("B", "y"))),
        };
        let e = Expr::Exists(Box::new(sub));
        let mut out = Vec::new();
        e.free_aliases(&mut out);
        assert_eq!(out, vec!["B".to_string()]);
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
        assert_eq!(CmpOp::Ge.flip(), CmpOp::Le);
    }
}
