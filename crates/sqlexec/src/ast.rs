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

    /// Number every `SELECT` block in one preorder pass — each UNION
    /// branch, then the subqueries inside it, then those in the ORDER BY
    /// keys — and return how many there are. Numbering is a function of
    /// the statement's shape, so renumbering a numbered statement (or a
    /// clone of it with other literals) changes nothing.
    pub fn number_blocks(&mut self) -> usize {
        let mut next = 0;
        self.for_each_block_mut(&mut |sel| {
            sel.ordinal = next;
            next += 1;
        });
        next
    }

    /// Call `f` on every `SELECT` block, in the preorder
    /// [`SelectStmt::number_blocks`] numbers them in.
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut Select)) {
        for branch in &mut self.branches {
            visit_select(branch, f);
        }
        for key in &mut self.order_by {
            visit_expr(&mut key.expr, f);
        }
    }
}

fn visit_select(sel: &mut Select, f: &mut impl FnMut(&mut Select)) {
    f(sel);
    for p in &mut sel.projections {
        visit_expr(&mut p.expr, f);
    }
    if let Some(w) = &mut sel.where_clause {
        visit_expr(w, f);
    }
}

fn visit_expr(e: &mut Expr, f: &mut impl FnMut(&mut Select)) {
    match e {
        Expr::Exists(sel) | Expr::ScalarSubquery(sel) => visit_select(sel, f),
        other => other.operands_mut().for_each(|x| visit_expr(x, f)),
    }
}

/// One `SELECT` block.
#[derive(Debug, Clone, Default)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    /// The block's position in its statement's preorder, numbered by
    /// [`SelectStmt::number_blocks`] (0 until then). A
    /// [`Prepared`](crate::Prepared) statement keeps each block's plan,
    /// and an executor its per-run counters, under this number; the
    /// clones a plan makes of a subquery keep it, so they name the same
    /// block. It takes no part in equality or rendering.
    pub ordinal: usize,
}

impl PartialEq for Select {
    fn eq(&self, other: &Select) -> bool {
        self.distinct == other.distinct
            && self.projections == other.projections
            && self.from == other.from
            && self.where_clause == other.where_clause
    }
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

/// Where a resolved column is read while its expression runs: column
/// `column` of the row bound at position `binding` of the executor's
/// binding stack (outermost first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSlot {
    pub binding: usize,
    pub column: usize,
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `alias.column` (qualifier optional only in hand-written SQL; the
    /// translator always qualifies). `slot` is `None` in a statement; the
    /// planner fills it in its plan's copies, and the executor reads a
    /// column through its slot alone.
    Column {
        qualifier: Option<String>,
        name: String,
        slot: Option<ColumnSlot>,
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
            slot: None,
        }
    }

    /// The operands `self` applies to directly. A subquery's block holds
    /// no operand of the expression around it.
    pub fn operands(&self) -> impl Iterator<Item = &Expr> {
        let (list, fixed): (&[Expr], [Option<&Expr>; 3]) = match self {
            Expr::And(xs) | Expr::Or(xs) => (xs, [None; 3]),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } | Expr::Concat(lhs, rhs) => {
                (&[], [Some(lhs), Some(rhs), None])
            }
            Expr::Between { expr, lo, hi, .. } => (&[], [Some(expr), Some(lo), Some(hi)]),
            Expr::Not(x) | Expr::IsNull { expr: x, .. } | Expr::RegexpLike { subject: x, .. } => {
                (&[], [Some(x), None, None])
            }
            _ => (&[], [None; 3]),
        };
        list.iter().chain(fixed.into_iter().flatten())
    }

    /// [`Expr::operands`], mutably.
    pub fn operands_mut(&mut self) -> impl Iterator<Item = &mut Expr> {
        let (list, fixed): (&mut [Expr], [Option<&mut Expr>; 3]) = match self {
            Expr::And(xs) | Expr::Or(xs) => (xs, [None, None, None]),
            Expr::Cmp { lhs, rhs, .. } | Expr::Arith { lhs, rhs, .. } | Expr::Concat(lhs, rhs) => {
                (&mut [], [Some(lhs), Some(rhs), None])
            }
            Expr::Between { expr, lo, hi, .. } => (&mut [], [Some(expr), Some(lo), Some(hi)]),
            Expr::Not(x) | Expr::IsNull { expr: x, .. } | Expr::RegexpLike { subject: x, .. } => {
                (&mut [], [Some(x), None, None])
            }
            _ => (&mut [], [None, None, None]),
        };
        list.iter_mut().chain(fixed.into_iter().flatten())
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
            Expr::Exists(sel) | Expr::ScalarSubquery(sel) => {
                let mut inner = Vec::new();
                for e in sel
                    .where_clause
                    .iter()
                    .chain(sel.projections.iter().map(|p| &p.expr))
                {
                    e.free_aliases(&mut inner);
                }
                for q in inner {
                    if !sel.from.iter().any(|t| t.alias == q) && !out.contains(&q) {
                        out.push(q);
                    }
                }
            }
            other => other.operands().for_each(|x| x.free_aliases(out)),
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
            ordinal: 0,
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
