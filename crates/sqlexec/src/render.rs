//! Render the SQL AST to text.
//!
//! The output mirrors the dialect of the paper's translation examples
//! (Tables 3–6): Oracle-flavoured `REGEXP_LIKE(...)`, `||` concatenation,
//! `exists (select null from ...)` predicates, and a trailing `order by`.

use crate::ast::{Expr, OrderKey, Select, SelectStmt};

/// Render a full statement.
pub fn render_stmt(stmt: &SelectStmt) -> String {
    let mut out = String::new();
    for (i, branch) in stmt.branches.iter().enumerate() {
        if i > 0 {
            out.push_str("\nunion\n");
        }
        render_select(branch, &mut out);
    }
    if !stmt.order_by.is_empty() {
        out.push_str(" order by ");
        render_order(&stmt.order_by, &mut out);
    }
    out
}

/// Render one `SELECT` block.
pub fn render_select(sel: &Select, out: &mut String) {
    out.push_str("select ");
    if sel.distinct {
        out.push_str("distinct ");
    }
    for (i, p) in sel.projections.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_expr(&p.expr, out);
        if let Some(a) = &p.alias {
            out.push_str(" as ");
            out.push_str(a);
        }
    }
    out.push_str(" from ");
    for (i, t) in sel.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&t.table);
        if t.alias != t.table {
            out.push(' ');
            out.push_str(&t.alias);
        }
    }
    if let Some(w) = &sel.where_clause {
        out.push_str(" where ");
        render_expr(w, out);
    }
}

fn render_order(keys: &[OrderKey], out: &mut String) {
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_expr(&k.expr, out);
        if k.desc {
            out.push_str(" desc");
        }
    }
}

/// Binding strength for parenthesization decisions.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Or(_) => 1,
        Expr::And(_) => 2,
        Expr::Not(_) => 3,
        Expr::Cmp { .. } | Expr::Between { .. } | Expr::IsNull { .. } => 4,
        Expr::Concat(..) => 5,
        Expr::Arith { op, .. } => match op {
            crate::ast::ArithOp::Add | crate::ast::ArithOp::Sub => 6,
            crate::ast::ArithOp::Mul | crate::ast::ArithOp::Div => 7,
        },
        _ => 8,
    }
}

fn render_child(child: &Expr, parent_prec: u8, out: &mut String) {
    if precedence(child) < parent_prec {
        out.push('(');
        render_expr(child, out);
        out.push(')');
    } else {
        render_expr(child, out);
    }
}

/// Render an expression.
pub fn render_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Column {
            qualifier, name, ..
        } => {
            if let Some(q) = qualifier {
                out.push_str(q);
                out.push('.');
            }
            out.push_str(name);
        }
        Expr::Literal(v) => out.push_str(&v.to_string()),
        Expr::Cmp { op, lhs, rhs } => {
            render_child(lhs, 5, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            render_child(rhs, 5, out);
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            render_child(expr, 5, out);
            if *negated {
                out.push_str(" not");
            }
            out.push_str(" between ");
            render_child(lo, 5, out);
            out.push_str(" and ");
            render_child(hi, 5, out);
        }
        Expr::And(xs) => {
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" and ");
                }
                render_child(x, 2, out);
            }
        }
        Expr::Or(xs) => {
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push_str(" or ");
                }
                render_child(x, 1, out);
            }
        }
        Expr::Not(x) => {
            out.push_str("not ");
            render_child(x, 4, out);
        }
        Expr::Exists(sel) => {
            out.push_str("exists (");
            render_select(sel, out);
            out.push(')');
        }
        Expr::ScalarSubquery(sel) => {
            out.push('(');
            render_select(sel, out);
            out.push(')');
        }
        Expr::RegexpLike { subject, pattern } => {
            out.push_str("REGEXP_LIKE(");
            render_expr(subject, out);
            out.push_str(", '");
            out.push_str(&pattern.replace('\'', "''"));
            out.push_str("')");
        }
        Expr::Concat(a, b) => {
            render_child(a, 5, out);
            out.push_str(" || ");
            render_child(b, 5, out);
        }
        Expr::Arith { op, lhs, rhs } => {
            let prec = precedence(e);
            render_child(lhs, prec, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            // Right operand needs parens at equal precedence for - and /.
            render_child(rhs, prec + 1, out);
        }
        Expr::IsNull { expr, negated } => {
            render_child(expr, 5, out);
            out.push_str(if *negated { " is not null" } else { " is null" });
        }
        Expr::CountStar => out.push_str("count(*)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, Projection, TableRef};
    use relstore::Value;

    #[test]
    fn renders_paper_style_statement() {
        // Shape of Table 3 (2): /A[@x=3]/B
        let sel = Select {
            distinct: true,
            projections: vec![
                Projection::col("B", "id"),
                Projection::col("B", "dewey_pos"),
            ],
            from: vec![
                TableRef::new("A", "A"),
                TableRef::new("B", "B"),
                TableRef::new("Paths", "B_Paths"),
            ],
            where_clause: Some(
                Expr::eq(Expr::column("B", "path_id"), Expr::column("B_Paths", "id"))
                    .and(Expr::eq(Expr::column("B_Paths", "path"), Expr::str("/A/B")))
                    .and(Expr::eq(
                        Expr::column("B", "par_id"),
                        Expr::column("A", "id"),
                    ))
                    .and(Expr::eq(Expr::column("A", "x"), Expr::int(3))),
            ),
            ordinal: 0,
        };
        let stmt = SelectStmt {
            branches: vec![sel],
            order_by: vec![OrderKey {
                expr: Expr::column("B", "dewey_pos"),
                desc: false,
            }],
        };
        let sql = render_stmt(&stmt);
        assert_eq!(
            sql,
            "select distinct B.id, B.dewey_pos from A, B, Paths B_Paths \
             where B.path_id = B_Paths.id and B_Paths.path = '/A/B' \
             and B.par_id = A.id and A.x = 3 order by B.dewey_pos"
        );
    }

    #[test]
    fn parenthesizes_or_inside_and() {
        let e = Expr::And(vec![
            Expr::Or(vec![Expr::int(1), Expr::int(2)]),
            Expr::int(3),
        ]);
        let mut s = String::new();
        render_expr(&e, &mut s);
        assert_eq!(s, "(1 or 2) and 3");
    }

    #[test]
    fn renders_concat_and_between() {
        let e = Expr::Between {
            expr: Box::new(Expr::column("F", "dewey_pos")),
            lo: Box::new(Expr::column("B", "dewey_pos")),
            hi: Box::new(Expr::Concat(
                Box::new(Expr::column("B", "dewey_pos")),
                Box::new(Expr::Literal(Value::Bytes(vec![0xFF]))),
            )),
            negated: false,
        };
        let mut s = String::new();
        render_expr(&e, &mut s);
        assert_eq!(
            s,
            "F.dewey_pos between B.dewey_pos and B.dewey_pos || x'FF'"
        );
    }

    #[test]
    fn renders_regexp_like_with_quotes() {
        let e = Expr::RegexpLike {
            subject: Box::new(Expr::column("P", "path")),
            pattern: crate::ast::RegexPattern::new("^/A(/[^/]+)*/F$").unwrap(),
        };
        let mut s = String::new();
        render_expr(&e, &mut s);
        assert_eq!(s, "REGEXP_LIKE(P.path, '^/A(/[^/]+)*/F$')");
    }

    #[test]
    fn renders_union_and_not() {
        let mk = |t: &str| Select {
            distinct: false,
            projections: vec![Projection::col(t, "id")],
            from: vec![TableRef::new(t, t)],
            where_clause: Some(Expr::Not(Box::new(Expr::cmp(
                CmpOp::Gt,
                Expr::column(t, "id"),
                Expr::int(5),
            )))),
            ordinal: 0,
        };
        let stmt = SelectStmt {
            branches: vec![mk("D"), mk("E")],
            order_by: vec![],
        };
        let sql = render_stmt(&stmt);
        assert!(sql.contains("\nunion\n"));
        assert!(sql.contains("not D.id > 5"));
    }
}
