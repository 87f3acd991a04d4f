//! Recursive-descent SQL parser for the dialect the translators emit.
//!
//! Supported grammar (case-insensitive keywords):
//! ```text
//! stmt    := select ('UNION' select)* ['ORDER' 'BY' order_key (',' order_key)*]
//! select  := 'SELECT' ['DISTINCT'] proj (',' proj)* 'FROM' tref (',' tref)*
//!            ['WHERE' expr]
//! proj    := expr ['AS' ident] | 'NULL' | 'COUNT' '(' '*' ')'
//! tref    := ident [ident]          -- table [alias]
//! expr    := or-expr with standard precedence; atoms include literals,
//!            qualified columns, EXISTS(select), scalar (select),
//!            REGEXP_LIKE(expr, 'pat'), BETWEEN, IS [NOT] NULL, NOT, parens
//! ```

use crate::ast::{
    ArithOp, CmpOp, Expr, OrderKey, Projection, RegexPattern, Select, SelectStmt, TableRef,
};
use crate::lexer::{lex, Token};
use relstore::Value;

/// Parse error.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a SQL statement.
pub fn parse_sql(input: &str) -> Result<SelectStmt, ParseError> {
    let tokens = lex(input).map_err(|e| ParseError {
        message: e.to_string(),
    })?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let stmt = p.stmt()?;
    if p.pos != p.tokens.len() {
        return Err(p.err("trailing tokens after statement"));
    }
    Ok(stmt)
}

/// Maximum nesting depth of the recursive-descent parser (parenthesized
/// expressions, `NOT` chains, subqueries). Hostile input like a million
/// open parens must come back as a [`ParseError`], not a stack overflow —
/// overflow aborts the whole process and cannot be caught. Each level
/// costs ~9 stack frames (the whole precedence chain), so the cap is
/// sized for a 2 MiB thread stack with a wide margin; translator-emitted
/// SQL nests a handful of levels at most.
const MAX_NEST_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: format!(
                "{} (at token {} of {})",
                msg.into(),
                self.pos,
                self.tokens.len()
            ),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consume an identifier token equal (case-insensitively) to `kw`.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn peek_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), ParseError> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn stmt(&mut self) -> Result<SelectStmt, ParseError> {
        let mut branches = vec![self.select()?];
        while self.eat_kw("union") {
            // `UNION ALL` is not needed by the translators; plain UNION is
            // set semantics (like the paper's splitting).
            branches.push(self.select()?);
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderKey { expr, desc });
                if self.peek() == Some(&Token::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        Ok(SelectStmt { branches, order_by })
    }

    fn select(&mut self) -> Result<Select, ParseError> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut projections = Vec::new();
        loop {
            let expr = self.expr()?;
            let alias = if self.eat_kw("as") {
                Some(self.ident()?)
            } else {
                None
            };
            projections.push(Projection { expr, alias });
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.expect_kw("from")?;
        let mut from = Vec::new();
        loop {
            let table = self.ident()?;
            // Optional alias: an identifier that is not a clause keyword.
            let alias = match self.peek() {
                Some(Token::Ident(s))
                    if !["where", "order", "union", "group"]
                        .iter()
                        .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    self.ident()?
                }
                _ => table.clone(),
            };
            from.push(TableRef { table, alias });
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            } else {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Select {
            distinct,
            projections,
            from,
            where_clause,
            ordinal: 0,
        })
    }

    // ----- expressions, loosest to tightest binding -----

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_NEST_DEPTH {
            self.depth -= 1;
            return Err(self.err("expression nested too deeply"));
        }
        let r = self.or_expr();
        self.depth -= 1;
        r
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("or") {
            let rhs = self.and_expr()?;
            lhs = lhs.or(rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("and") {
            let rhs = self.not_expr()?;
            lhs = lhs.and(rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, ParseError> {
        // Iterative so a pathological `NOT NOT NOT …` chain can't recurse
        // past the stack (the AST it builds is still linear in input size).
        let mut negations = 0usize;
        while self.eat_kw("not") {
            negations += 1;
        }
        if negations > MAX_NEST_DEPTH {
            // The parse itself is iterative, but the AST it would build is
            // that deep — and evaluation/drop of it would not be.
            return Err(self.err("expression nested too deeply"));
        }
        let mut e = self.cmp_expr()?;
        for _ in 0..negations {
            e = Expr::Not(Box::new(e));
        }
        Ok(e)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.additive()?;
        // BETWEEN / IS NULL / comparison
        if self.eat_kw("between") {
            let lo = self.additive()?;
            self.expect_kw("and")?;
            let hi = self.additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated: false,
            });
        }
        if self.peek_kw("not") {
            // `x NOT BETWEEN ...`
            let save = self.pos;
            self.pos += 1;
            if self.eat_kw("between") {
                let lo = self.additive()?;
                self.expect_kw("and")?;
                let hi = self.additive()?;
                return Ok(Expr::Between {
                    expr: Box::new(lhs),
                    lo: Box::new(lo),
                    hi: Box::new(hi),
                    negated: true,
                });
            }
            self.pos = save;
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated,
            });
        }
        let op = match self.peek() {
            Some(Token::Eq) => Some(CmpOp::Eq),
            Some(Token::Ne) => Some(CmpOp::Ne),
            Some(Token::Lt) => Some(CmpOp::Lt),
            Some(Token::Le) => Some(CmpOp::Le),
            Some(Token::Gt) => Some(CmpOp::Gt),
            Some(Token::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.additive()?;
            return Ok(Expr::Cmp {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn additive(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => ArithOp::Add,
                Some(Token::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.concat()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => ArithOp::Mul,
                Some(Token::Slash) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.concat()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.atom()?;
        while self.peek() == Some(&Token::Concat) {
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = Expr::Concat(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::LParen) => {
                self.pos += 1;
                // Scalar subquery or parenthesized expression.
                if self.peek_kw("select") {
                    let sel = self.select()?;
                    self.expect(Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(sel)))
                } else {
                    let e = self.expr()?;
                    self.expect(Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Int(i)))
            }
            Some(Token::Float(f)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Float(f)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Str(s)))
            }
            Some(Token::Blob(b)) => {
                self.pos += 1;
                Ok(Expr::Literal(Value::Bytes(b)))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                let inner = self.atom()?;
                match inner {
                    Expr::Literal(Value::Int(i)) => Ok(Expr::Literal(Value::Int(-i))),
                    Expr::Literal(Value::Float(f)) => Ok(Expr::Literal(Value::Float(-f))),
                    other => Ok(Expr::Arith {
                        op: ArithOp::Sub,
                        lhs: Box::new(Expr::int(0)),
                        rhs: Box::new(other),
                    }),
                }
            }
            Some(Token::Ident(id)) => {
                if id.eq_ignore_ascii_case("exists") {
                    self.pos += 1;
                    self.expect(Token::LParen)?;
                    let sel = self.select()?;
                    self.expect(Token::RParen)?;
                    return Ok(Expr::Exists(Box::new(sel)));
                }
                if id.eq_ignore_ascii_case("null") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                if id.eq_ignore_ascii_case("true") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(true)));
                }
                if id.eq_ignore_ascii_case("false") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Bool(false)));
                }
                if id.eq_ignore_ascii_case("regexp_like") {
                    self.pos += 1;
                    self.expect(Token::LParen)?;
                    let subject = self.expr()?;
                    self.expect(Token::Comma)?;
                    let pattern = match self.bump() {
                        Some(Token::Str(s)) => RegexPattern::new(&s)
                            .map_err(|e| self.err(format!("bad regex `{s}`: {e}")))?,
                        other => {
                            return Err(self.err(format!(
                                "REGEXP_LIKE pattern must be a string literal, found {other:?}"
                            )))
                        }
                    };
                    self.expect(Token::RParen)?;
                    return Ok(Expr::RegexpLike {
                        subject: Box::new(subject),
                        pattern,
                    });
                }
                if id.eq_ignore_ascii_case("count") {
                    self.pos += 1;
                    self.expect(Token::LParen)?;
                    self.expect(Token::Star)?;
                    self.expect(Token::RParen)?;
                    return Ok(Expr::CountStar);
                }
                // Column reference: `alias.col` or bare `col`.
                self.pos += 1;
                if self.peek() == Some(&Token::Dot) {
                    self.pos += 1;
                    let name = self.ident()?;
                    Ok(Expr::Column {
                        qualifier: Some(id),
                        name,
                        slot: None,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name: id,
                        slot: None,
                    })
                }
            }
            other => Err(self.err(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::render_stmt;

    /// Parsing the renderer's output must be the identity on the AST.
    fn roundtrip(sql: &str) -> SelectStmt {
        let stmt = parse_sql(sql).expect("parse");
        let rendered = render_stmt(&stmt);
        let stmt2 = parse_sql(&rendered).expect("reparse");
        assert_eq!(stmt, stmt2, "render/parse roundtrip for {sql}");
        stmt
    }

    #[test]
    fn parses_paper_table3_example() {
        let stmt = roundtrip(
            "select distinct F.id, F.dewey_pos, F.text \
             from A, F, Paths F_Paths \
             where F.path_id = F_Paths.id \
             and REGEXP_LIKE(F_Paths.path, '^/A/B/C(/[^/]+)*/F$') \
             and F.dewey_pos between A.dewey_pos and A.dewey_pos || x'FF' \
             and A.x = 3 \
             order by F.dewey_pos",
        );
        let sel = &stmt.branches[0];
        assert!(sel.distinct);
        assert_eq!(sel.from.len(), 3);
        assert_eq!(sel.from[2].alias, "F_Paths");
        assert_eq!(stmt.order_by.len(), 1);
    }

    #[test]
    fn parses_exists_subselect() {
        let stmt = roundtrip(
            "select B.id from B where exists (\
             select null from F where F.par_id = B.id and F.text = 2)",
        );
        match stmt.branches[0].where_clause.as_ref().expect("where") {
            Expr::Exists(sub) => {
                assert_eq!(sub.from[0].table, "F");
                assert_eq!(sub.projections.len(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_union_and_precedence() {
        let stmt = roundtrip(
            "select D.id from D where D.x = 1 or D.x = 2 and D.y < 3 \
             union select E.id from E",
        );
        assert_eq!(stmt.branches.len(), 2);
        // AND binds tighter than OR.
        match stmt.branches[0].where_clause.as_ref().expect("where") {
            Expr::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Expr::And(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_scalar_count_subquery() {
        let stmt = roundtrip(
            "select B.id from B where (select count(*) from C where C.par_id = B.id) = 2",
        );
        match stmt.branches[0].where_clause.as_ref().expect("where") {
            Expr::Cmp { lhs, .. } => match lhs.as_ref() {
                Expr::ScalarSubquery(sub) => {
                    assert!(matches!(sub.projections[0].expr, Expr::CountStar))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_not_between_isnull() {
        roundtrip("select A.id from A where A.x not between 1 and 5");
        roundtrip("select A.id from A where A.x is not null and not A.y is null");
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let stmt = roundtrip("select A.id from A where A.x + 2 * 3 = 7");
        match stmt.branches[0].where_clause.as_ref().expect("where") {
            Expr::Cmp { lhs, .. } => match lhs.as_ref() {
                Expr::Arith {
                    op: ArithOp::Add,
                    rhs,
                    ..
                } => {
                    assert!(matches!(
                        rhs.as_ref(),
                        Expr::Arith {
                            op: ArithOp::Mul,
                            ..
                        }
                    ))
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_errors() {
        assert!(parse_sql("").is_err());
        assert!(parse_sql("select").is_err());
        assert!(parse_sql("select x from").is_err());
        assert!(parse_sql("select x from t where").is_err());
        assert!(parse_sql("select x from t extra junk !!!").is_err());
        assert!(parse_sql("select regexp_like(x, y) from t").is_err());
    }

    #[test]
    fn deep_paren_nesting_is_a_parse_error_not_a_stack_overflow() {
        let bomb = format!(
            "select t.x from t where {}1 = 1{}",
            "(".repeat(100_000),
            ")".repeat(100_000)
        );
        let err = parse_sql(&bomb).expect_err("must not overflow the stack");
        assert!(
            err.to_string().contains("nested too deeply"),
            "unexpected error: {err}"
        );
        // A depth well inside the limit still parses.
        let ok = format!(
            "select t.x from t where {}1 = 1{}",
            "(".repeat(40),
            ")".repeat(40)
        );
        parse_sql(&ok).expect("moderate nesting parses");
    }

    #[test]
    fn deep_not_chain_is_a_parse_error_not_a_stack_overflow() {
        let bomb = format!("select t.x from t where {} 1 = 1", "not ".repeat(100_000));
        let err = parse_sql(&bomb).expect_err("must not build an unboundedly deep AST");
        assert!(err.to_string().contains("nested too deeply"));
        let ok = format!("select t.x from t where {} 1 = 1", "not ".repeat(40));
        parse_sql(&ok).expect("moderate NOT chain parses");
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for sql in [
            "(",
            ")",
            "select t.x from t where (",
            "select t.x from t where regexp_like(",
            "select t.x from t where t.a between 1",
            "select t.x from t where exists (select",
            "select t.x from t order by",
            "select t.x from t union",
            "select count(* from t",
            "select t.x from t where t.a = 'unterminated",
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(parse_sql(sql).is_err(), "expected parse error for {sql:?}");
        }
    }

    #[test]
    fn negative_literals() {
        let stmt = parse_sql("select A.id from A where A.x = -5").expect("parse");
        match stmt.branches[0].where_clause.as_ref().expect("where") {
            Expr::Cmp { rhs, .. } => {
                assert_eq!(rhs.as_ref(), &Expr::Literal(Value::Int(-5)))
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
