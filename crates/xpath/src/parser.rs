//! XPath lexer and recursive-descent parser.
//!
//! Grammar (XPath 1.0 subset, with abbreviations):
//! ```text
//! expr       := or_expr
//! or_expr    := and_expr ('or' and_expr)*
//! and_expr   := cmp_expr ('and' cmp_expr)*
//! cmp_expr   := add_expr (('='|'!='|'<'|'<='|'>'|'>=') add_expr)?
//! add_expr   := union_expr (('+'|'-'|'div'|'mod') union_expr)*
//! union_expr := path_or_primary ('|' path_or_primary)*
//! primary    := literal | number | '(' expr ')'
//!             | 'not(' expr ')' | 'count(' expr ')' | 'position()'
//!             | 'last()' | 'contains(' expr ',' expr ')'
//! path       := ['/'] step (('/'|'//') step)*
//! step       := [axis '::' | '@'] nodetest predicate*
//!             | '.' | '..'
//! nodetest   := name | '*' | 'text()' | 'node()'
//! predicate  := '[' expr ']'     -- a bare number N means position()=N
//! ```
//! Per XPath's lexical rules, `-` inside a name (e.g. `following-sibling`,
//! `closed_auction`) is a name character; use whitespace around binary `-`.

use crate::ast::{Axis, CompOp, Expr, LocationPath, NodeTest, NumOp, Step};

/// Parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    pub message: String,
}

impl std::fmt::Display for XPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XPath parse error: {}", self.message)
    }
}

impl std::error::Error for XPathError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Slash,
    DSlash,
    LBracket,
    RBracket,
    LParen,
    RParen,
    At,
    DColon,
    Comma,
    Pipe,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Plus,
    Minus,
    Star,
    Dot,
    DDot,
    Name(String),
    Number(f64),
    Literal(String),
}

fn lex(input: &str) -> Result<Vec<Tok>, XPathError> {
    let b = input.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    let err = |m: &str| XPathError {
        message: m.to_string(),
    };
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'/' => {
                if b.get(i + 1) == Some(&b'/') {
                    out.push(Tok::DSlash);
                    i += 2;
                } else {
                    out.push(Tok::Slash);
                    i += 1;
                }
            }
            b'[' => {
                out.push(Tok::LBracket);
                i += 1;
            }
            b']' => {
                out.push(Tok::RBracket);
                i += 1;
            }
            b'(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            b'@' => {
                out.push(Tok::At);
                i += 1;
            }
            b':' => {
                if b.get(i + 1) == Some(&b':') {
                    out.push(Tok::DColon);
                    i += 2;
                } else {
                    return Err(err("single ':' (namespaces are not supported)"));
                }
            }
            b',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            b'|' => {
                out.push(Tok::Pipe);
                i += 1;
            }
            b'=' => {
                out.push(Tok::Eq);
                i += 1;
            }
            b'!' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ne);
                    i += 2;
                } else {
                    return Err(err("expected `!=`"));
                }
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Le);
                    i += 2;
                } else {
                    out.push(Tok::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Ge);
                    i += 2;
                } else {
                    out.push(Tok::Gt);
                    i += 1;
                }
            }
            b'+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            b'-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            b'*' => {
                out.push(Tok::Star);
                i += 1;
            }
            b'.' => {
                if b.get(i + 1) == Some(&b'.') {
                    out.push(Tok::DDot);
                    i += 2;
                } else if b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    // .5 style number
                    let start = i;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                    let n: f64 = input[start..i].parse().map_err(|_| err("bad number"))?;
                    out.push(Tok::Number(n));
                } else {
                    out.push(Tok::Dot);
                    i += 1;
                }
            }
            b'\'' | b'"' => {
                let quote = b[i];
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != quote {
                    j += 1;
                }
                if j >= b.len() {
                    return Err(err("unterminated string literal"));
                }
                out.push(Tok::Literal(input[start..j].to_string()));
                i = j + 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                let n: f64 = input[start..i].parse().map_err(|_| err("bad number"))?;
                out.push(Tok::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c >= 0x80 => {
                let start = i;
                while i < b.len() {
                    let c = b[i];
                    let is_name = c.is_ascii_alphanumeric()
                        || c == b'_'
                        || c == b'.'
                        || c >= 0x80
                        // '-' continues a name only when followed by a name
                        // character (so `a -1` lexes as Minus).
                        || (c == b'-'
                            && b.get(i + 1).is_some_and(|n| {
                                n.is_ascii_alphanumeric() || *n == b'_'
                            }));
                    if is_name {
                        i += 1;
                    } else {
                        break;
                    }
                }
                // A trailing '.' (e.g. `a.`) would have been absorbed; names
                // in XML may contain dots so that is correct.
                out.push(Tok::Name(input[start..i].to_string()));
            }
            other => return Err(err(&format!("unexpected character `{}`", other as char))),
        }
    }
    Ok(out)
}

/// Parse an XPath expression.
pub fn parse_xpath(input: &str) -> Result<Expr, XPathError> {
    let toks = lex(input)?;
    let mut p = Parser { toks, pos: 0 };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(XPathError {
            message: format!("trailing tokens at position {}", p.pos),
        });
    }
    Ok(e)
}

/// Parse an XPath that must be a (possibly union of) location path(s).
pub fn parse_path(input: &str) -> Result<Expr, XPathError> {
    let e = parse_xpath(input)?;
    match &e {
        Expr::Path(_) | Expr::Union(_) => Ok(e),
        _ => Err(XPathError {
            message: "expected a location path".to_string(),
        }),
    }
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn err(&self, m: impl Into<String>) -> XPathError {
        XPathError {
            message: format!("{} (token {}/{})", m.into(), self.pos, self.toks.len()),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> Result<(), XPathError> {
        if self.eat(&t) {
            Ok(())
        } else {
            Err(self.err(format!("expected {t:?}, found {:?}", self.peek())))
        }
    }

    fn eat_name(&mut self, kw: &str) -> bool {
        if let Some(Tok::Name(n)) = self.peek() {
            if n == kw {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expr(&mut self) -> Result<Expr, XPathError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, XPathError> {
        let first = self.and_expr()?;
        if !self.eat_name("or") {
            return Ok(first);
        }
        let mut xs = vec![first, self.and_expr()?];
        while self.eat_name("or") {
            xs.push(self.and_expr()?);
        }
        Ok(Expr::Or(xs))
    }

    fn and_expr(&mut self) -> Result<Expr, XPathError> {
        let first = self.cmp_expr()?;
        if !self.eat_name("and") {
            return Ok(first);
        }
        let mut xs = vec![first, self.cmp_expr()?];
        while self.eat_name("and") {
            xs.push(self.cmp_expr()?);
        }
        Ok(Expr::And(xs))
    }

    fn cmp_expr(&mut self) -> Result<Expr, XPathError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(CompOp::Eq),
            Some(Tok::Ne) => Some(CompOp::Ne),
            Some(Tok::Lt) => Some(CompOp::Lt),
            Some(Tok::Le) => Some(CompOp::Le),
            Some(Tok::Gt) => Some(CompOp::Gt),
            Some(Tok::Ge) => Some(CompOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            return Ok(Expr::Compare {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            });
        }
        Ok(lhs)
    }

    fn add_expr(&mut self) -> Result<Expr, XPathError> {
        let mut lhs = self.union_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => NumOp::Add,
                Some(Tok::Minus) => NumOp::Sub,
                Some(Tok::Name(n)) if n == "div" => NumOp::Div,
                Some(Tok::Name(n)) if n == "mod" => NumOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.union_expr()?;
            lhs = Expr::Arith {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn union_expr(&mut self) -> Result<Expr, XPathError> {
        let first = self.path_or_primary()?;
        if self.peek() != Some(&Tok::Pipe) {
            return Ok(first);
        }
        let mut paths = match first {
            Expr::Path(p) => vec![p],
            _ => return Err(self.err("`|` requires location paths")),
        };
        while self.eat(&Tok::Pipe) {
            match self.path_or_primary()? {
                Expr::Path(p) => paths.push(p),
                _ => return Err(self.err("`|` requires location paths")),
            }
        }
        Ok(Expr::Union(paths))
    }

    fn path_or_primary(&mut self) -> Result<Expr, XPathError> {
        match self.peek() {
            Some(Tok::Number(n)) => {
                let n = *n;
                self.pos += 1;
                Ok(Expr::Number(n))
            }
            Some(Tok::Minus) => {
                self.pos += 1;
                match self.peek() {
                    Some(Tok::Number(n)) => {
                        let n = *n;
                        self.pos += 1;
                        Ok(Expr::Number(-n))
                    }
                    _ => Err(self.err("expected number after unary minus")),
                }
            }
            Some(Tok::Literal(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(Expr::Literal(s))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Name(n)) if self.peek2() == Some(&Tok::LParen) => {
                // Function call — unless it is a node test (text()/node())
                // or an axis-less step like `keyword(...)` which XPath
                // doesn't have; known functions only.
                match n.as_str() {
                    "not" => {
                        self.pos += 2;
                        let e = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Not(Box::new(e)))
                    }
                    "count" => {
                        self.pos += 2;
                        let e = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Count(Box::new(e)))
                    }
                    "position" => {
                        self.pos += 2;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Position)
                    }
                    "last" => {
                        self.pos += 2;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Last)
                    }
                    "contains" => {
                        self.pos += 2;
                        let a = self.expr()?;
                        self.expect(Tok::Comma)?;
                        let b = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::Contains(Box::new(a), Box::new(b)))
                    }
                    "starts-with" => {
                        self.pos += 2;
                        let a = self.expr()?;
                        self.expect(Tok::Comma)?;
                        let b = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::StartsWith(Box::new(a), Box::new(b)))
                    }
                    "string-length" => {
                        self.pos += 2;
                        let a = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::StringLength(Box::new(a)))
                    }
                    "normalize-space" => {
                        self.pos += 2;
                        let a = self.expr()?;
                        self.expect(Tok::RParen)?;
                        Ok(Expr::NormalizeSpace(Box::new(a)))
                    }
                    "text" | "node" => self.path(),
                    other => Err(self.err(format!("unknown function `{other}()`"))),
                }
            }
            _ => self.path(),
        }
    }

    fn path(&mut self) -> Result<Expr, XPathError> {
        let mut steps = Vec::new();
        let absolute = matches!(self.peek(), Some(Tok::Slash) | Some(Tok::DSlash));
        if self.eat(&Tok::Slash) {
            // Absolute path; bare `/` selects the root itself.
            if !self.starts_step() {
                return Ok(Expr::Path(LocationPath {
                    absolute: true,
                    steps,
                }));
            }
        } else if self.eat(&Tok::DSlash) {
            steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
        }
        loop {
            steps.push(self.step()?);
            if self.eat(&Tok::Slash) {
                continue;
            }
            if self.eat(&Tok::DSlash) {
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::AnyNode));
                continue;
            }
            break;
        }
        Ok(Expr::Path(LocationPath { absolute, steps }))
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Name(_)) | Some(Tok::Star) | Some(Tok::At) | Some(Tok::Dot) | Some(Tok::DDot)
        )
    }

    fn step(&mut self) -> Result<Step, XPathError> {
        let mut step = match self.peek().cloned() {
            Some(Tok::Dot) => {
                self.pos += 1;
                Step::new(Axis::SelfAxis, NodeTest::AnyNode)
            }
            Some(Tok::DDot) => {
                self.pos += 1;
                Step::new(Axis::Parent, NodeTest::AnyNode)
            }
            Some(Tok::At) => {
                self.pos += 1;
                let test = self.node_test()?;
                Step::new(Axis::Attribute, test)
            }
            Some(Tok::Name(n)) if self.peek2() == Some(&Tok::DColon) => {
                let axis =
                    Axis::from_name(&n).ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
                self.pos += 2;
                let test = self.node_test()?;
                Step::new(axis, test)
            }
            _ => {
                let test = self.node_test()?;
                Step::new(Axis::Child, test)
            }
        };
        while self.eat(&Tok::LBracket) {
            let e = self.expr()?;
            // A bare number predicate [N] abbreviates [position() = N].
            let pred = match e {
                Expr::Number(n) => Expr::Compare {
                    op: CompOp::Eq,
                    lhs: Box::new(Expr::Position),
                    rhs: Box::new(Expr::Number(n)),
                },
                other => other,
            };
            step.predicates.push(pred);
            self.expect(Tok::RBracket)?;
        }
        Ok(step)
    }

    fn node_test(&mut self) -> Result<NodeTest, XPathError> {
        match self.peek().cloned() {
            Some(Tok::Star) => {
                self.pos += 1;
                Ok(NodeTest::Wildcard)
            }
            Some(Tok::Name(n)) => {
                self.pos += 1;
                if self.peek() == Some(&Tok::LParen) {
                    match n.as_str() {
                        "text" => {
                            self.pos += 1;
                            self.expect(Tok::RParen)?;
                            Ok(NodeTest::Text)
                        }
                        "node" => {
                            self.pos += 1;
                            self.expect(Tok::RParen)?;
                            Ok(NodeTest::AnyNode)
                        }
                        other => Err(self.err(format!("unknown node test `{other}()`"))),
                    }
                } else {
                    Ok(NodeTest::Name(n))
                }
            }
            other => Err(self.err(format!("expected node test, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(input: &str) -> LocationPath {
        match parse_xpath(input).expect("parse") {
            Expr::Path(p) => p,
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_absolute_path() {
        let p = path("/site/regions/*/item");
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.steps[2].test, NodeTest::Wildcard);
        assert_eq!(p.steps[3].axis, Axis::Child);
    }

    #[test]
    fn double_slash_desugars() {
        let p = path("//keyword");
        assert_eq!(p.steps.len(), 2);
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::AnyNode);
        let p2 = path("/a//b");
        assert_eq!(p2.steps.len(), 3);
    }

    #[test]
    fn explicit_axes() {
        let p = path("/descendant-or-self::listitem/descendant-or-self::keyword");
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Name("listitem".into()));
        let p2 = path("//keyword/ancestor::listitem");
        assert_eq!(p2.steps[2].axis, Axis::Ancestor);
    }

    #[test]
    fn attribute_predicates() {
        let p = path("//item[@featured='yes']");
        let pred = &p.steps[1].predicates[0];
        match pred {
            Expr::Compare {
                op: CompOp::Eq,
                lhs,
                rhs,
            } => {
                match lhs.as_ref() {
                    Expr::Path(ap) => {
                        assert_eq!(ap.steps[0].axis, Axis::Attribute);
                        assert_eq!(ap.steps[0].test, NodeTest::Name("featured".into()));
                    }
                    other => panic!("unexpected lhs {other:?}"),
                }
                assert_eq!(rhs.as_ref(), &Expr::Literal("yes".into()));
            }
            other => panic!("unexpected predicate {other:?}"),
        }
    }

    #[test]
    fn logical_predicates() {
        let p = path("/site/people/person[address and (phone or homepage)]");
        match &p.steps[2].predicates[0] {
            Expr::And(xs) => {
                assert_eq!(xs.len(), 2);
                assert!(matches!(&xs[1], Expr::Or(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let p2 = path("/site/people/person[not(homepage)]");
        assert!(matches!(&p2.steps[2].predicates[0], Expr::Not(_)));
    }

    #[test]
    fn join_predicate_with_absolute_path() {
        // QD5 shape.
        let p = path("/dblp/inproceedings[author=/dblp/book/author]/title");
        match &p.steps[1].predicates[0] {
            Expr::Compare { lhs, rhs, .. } => {
                assert!(matches!(lhs.as_ref(), Expr::Path(lp) if !lp.absolute));
                assert!(matches!(rhs.as_ref(), Expr::Path(rp) if rp.absolute));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn union_expression() {
        match parse_xpath("/site/regions/namerica/item | /site/regions/samerica/item")
            .expect("parse")
        {
            Expr::Union(ps) => assert_eq!(ps.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn numeric_and_position_predicates() {
        let p = path("/a/b[2]");
        match &p.steps[1].predicates[0] {
            Expr::Compare { lhs, rhs, .. } => {
                assert_eq!(lhs.as_ref(), &Expr::Position);
                assert_eq!(rhs.as_ref(), &Expr::Number(2.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        let p2 = path("/a/b[position() = last()]");
        assert_eq!(p2.steps[1].predicates.len(), 1);
    }

    #[test]
    fn text_step_and_comparison() {
        let p = path("/a/b/text()");
        assert_eq!(p.steps[2].test, NodeTest::Text);
        let p2 = path("/a/b[c/text() = 'x']");
        assert_eq!(p2.steps.len(), 2);
    }

    #[test]
    fn arithmetic_in_predicates() {
        let p = path("/a/b[c + 1 = 5]");
        match &p.steps[1].predicates[0] {
            Expr::Compare { lhs, .. } => assert!(matches!(lhs.as_ref(), Expr::Arith { .. })),
            other => panic!("unexpected {other:?}"),
        }
        let p2 = path("/a/b[position() mod 2 = 1]");
        assert_eq!(p2.steps[1].predicates.len(), 1);
    }

    #[test]
    fn names_with_dashes_and_underscores() {
        let p = path("/site/open_auctions/open_auction/bidder/preceding-sibling::bidder");
        assert_eq!(p.steps[4].axis, Axis::PrecedingSibling);
        let p2 = path("//closed_auction[annotation-note]");
        assert_eq!(p2.steps.len(), 2);
    }

    #[test]
    fn dot_and_dotdot() {
        let p = path("./a/../b");
        assert_eq!(p.steps[0].axis, Axis::SelfAxis);
        assert_eq!(p.steps[2].axis, Axis::Parent);
        assert!(!p.absolute);
    }

    #[test]
    fn bare_root() {
        let p = path("/");
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("/a[").is_err());
        assert!(parse_xpath("/a]").is_err());
        assert!(parse_xpath("/a/unknown::b").is_err());
        assert!(parse_xpath("foo(1)").is_err());
        assert!(parse_xpath("/a | 3").is_err());
        assert!(parse_xpath("'unterminated").is_err());
        assert!(parse_xpath("a:b").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for q in [
            "/site/regions/*/item",
            "//keyword",
            "/a//b[c = 'x']",
            "//i[parent::*/parent::sub/ancestor::article]",
            "/a/b[2]",
        ] {
            let e = parse_xpath(q).expect("parse");
            let shown = e.to_string();
            let e2 = parse_xpath(&shown).expect("reparse");
            assert_eq!(e2.to_string(), shown, "stable display for {q}");
        }
    }
}
