//! XPath abstract syntax tree.
//!
//! Covers the XPath subset of the paper (§1: "all XPath axes, path union,
//! nested expressions, and logical, arithmetic and position predicates"):
//! location paths over all 12 axes, name/wildcard/text()/node() node
//! tests, predicates with nested paths, comparisons, `and`/`or`,
//! `not()`/`count()`/`position()`/`last()`/`contains()`, numeric position
//! predicates, arithmetic, and top-level union.

use std::fmt;

/// The thirteen XPath axes we support (namespace axis excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    SelfAxis,
    Parent,
    Ancestor,
    AncestorOrSelf,
    Following,
    Preceding,
    FollowingSibling,
    PrecedingSibling,
    Attribute,
}

impl Axis {
    /// Forward axes select nodes after (or below) the context node in
    /// document order; backward (reverse) axes select before/above.
    pub fn is_forward(self) -> bool {
        !self.is_reverse()
    }

    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// The axis name as written in XPath.
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::SelfAxis => "self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Attribute => "attribute",
        }
    }

    pub fn from_name(s: &str) -> Option<Axis> {
        Some(match s {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "self" => Axis::SelfAxis,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }
}

/// The node test of a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A name test (element name, or attribute name on the attribute axis).
    Name(String),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyNode,
}

/// One location step: `axis::test[pred]...`.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
}

impl Step {
    pub fn new(axis: Axis, test: NodeTest) -> Step {
        Step {
            axis,
            test,
            predicates: Vec::new(),
        }
    }
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationPath {
    /// Absolute paths start at the document root (`/…`).
    pub absolute: bool,
    pub steps: Vec<Step>,
}

/// Comparison operators in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CompOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::Eq => "=",
            CompOp::Ne => "!=",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        }
    }
}

/// Arithmetic operators (`*` is not an arithmetic token in our subset to
/// avoid ambiguity with the wildcard; XPath's `div`/`mod` are supported).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumOp {
    Add,
    Sub,
    Div,
    Mod,
}

/// An XPath expression (used both for whole queries and inside
/// predicates).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A location path (absolute or relative).
    Path(LocationPath),
    /// Union of paths: `p1 | p2`.
    Union(Vec<LocationPath>),
    Number(f64),
    Literal(String),
    Compare {
        op: CompOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    And(Vec<Expr>),
    Or(Vec<Expr>),
    /// `not(expr)`
    Not(Box<Expr>),
    /// `count(path)`
    Count(Box<Expr>),
    /// `position()`
    Position,
    /// `last()`
    Last,
    /// `contains(a, b)`
    Contains(Box<Expr>, Box<Expr>),
    /// `starts-with(a, b)`
    StartsWith(Box<Expr>, Box<Expr>),
    /// `string-length(a)`
    StringLength(Box<Expr>),
    /// `normalize-space(a)`
    NormalizeSpace(Box<Expr>),
    Arith {
        op: NumOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name(n) => write!(f, "{n}"),
            NodeTest::Wildcard => write!(f, "*"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::AnyNode => write!(f, "node()"),
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.axis, &self.test) {
            (Axis::Child, t) => write!(f, "{t}")?,
            (Axis::Attribute, t) => write!(f, "@{t}")?,
            (axis, t) => write!(f, "{}::{t}", axis.name())?,
        }
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

impl fmt::Display for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.absolute {
            write!(f, "/")?;
        }
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl Expr {
    /// Binding strength in the grammar, loosest first: `or`, `and`, a
    /// comparison, `+ - div mod`, then everything that parses as one
    /// primary (paths, unions, literals, numbers, function calls).
    fn precedence(&self) -> u8 {
        match self {
            Expr::Or(_) => 1,
            Expr::And(_) => 2,
            Expr::Compare { .. } => 3,
            Expr::Arith { .. } => 4,
            _ => 5,
        }
    }

    /// Write `self` as an operand that must bind at least as tightly as
    /// `min`, parenthesised when it does not.
    fn fmt_operand(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        if self.precedence() < min {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

impl fmt::Display for Expr {
    /// Prints an expression that parses back to the same tree: operands
    /// are parenthesised by precedence (comparisons do not chain, and
    /// arithmetic associates to the left), and a literal containing `'`
    /// is quoted with `"`. XPath 1.0 literals have no escapes, so a
    /// string containing both quotes has no source form; it prints
    /// between `'`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let list = |f: &mut fmt::Formatter<'_>, xs: &[Expr], sep: &str, min: u8| {
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    f.write_str(sep)?;
                }
                x.fmt_operand(f, min)?;
            }
            Ok(())
        };
        match self {
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Union(ps) => {
                for (i, p) in ps.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{p}")?;
                }
                Ok(())
            }
            // Shortest round-tripping decimal, never an exponent: `2`,
            // `0.5`, `100000000000000000000`.
            Expr::Number(n) => write!(f, "{n}"),
            Expr::Literal(s) if s.contains('\'') && !s.contains('"') => write!(f, "\"{s}\""),
            Expr::Literal(s) => write!(f, "'{s}'"),
            Expr::Compare { op, lhs, rhs } => {
                lhs.fmt_operand(f, 4)?;
                write!(f, " {} ", op.symbol())?;
                rhs.fmt_operand(f, 4)
            }
            // `and` binds tighter than `or`, and the parser flattens a
            // chain of either into one list, so a nested list of the same
            // kind keeps its parentheses.
            Expr::And(xs) => list(f, xs, " and ", 3),
            Expr::Or(xs) => list(f, xs, " or ", 2),
            Expr::Not(x) => write!(f, "not({x})"),
            Expr::Count(x) => write!(f, "count({x})"),
            Expr::Position => write!(f, "position()"),
            Expr::Last => write!(f, "last()"),
            Expr::Contains(a, b) => write!(f, "contains({a}, {b})"),
            Expr::StartsWith(a, b) => write!(f, "starts-with({a}, {b})"),
            Expr::StringLength(a) => write!(f, "string-length({a})"),
            Expr::NormalizeSpace(a) => write!(f, "normalize-space({a})"),
            Expr::Arith { op, lhs, rhs } => {
                let sym = match op {
                    NumOp::Add => "+",
                    NumOp::Sub => "-",
                    NumOp::Div => "div",
                    NumOp::Mod => "mod",
                };
                lhs.fmt_operand(f, 4)?;
                write!(f, " {sym} ")?;
                rhs.fmt_operand(f, 5)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axis_direction() {
        assert!(Axis::Child.is_forward());
        assert!(Axis::Following.is_forward());
        assert!(Axis::Ancestor.is_reverse());
        assert!(Axis::PrecedingSibling.is_reverse());
        assert!(Axis::Attribute.is_forward());
    }

    #[test]
    fn axis_name_roundtrip() {
        for axis in [
            Axis::Child,
            Axis::Descendant,
            Axis::DescendantOrSelf,
            Axis::SelfAxis,
            Axis::Parent,
            Axis::Ancestor,
            Axis::AncestorOrSelf,
            Axis::Following,
            Axis::Preceding,
            Axis::FollowingSibling,
            Axis::PrecedingSibling,
            Axis::Attribute,
        ] {
            assert_eq!(Axis::from_name(axis.name()), Some(axis));
        }
        assert_eq!(Axis::from_name("namespace"), None);
    }

    #[test]
    fn display_forms() {
        let p = LocationPath {
            absolute: true,
            steps: vec![
                Step::new(Axis::Child, NodeTest::Name("a".into())),
                Step::new(Axis::Descendant, NodeTest::Wildcard),
                Step::new(Axis::Attribute, NodeTest::Name("id".into())),
            ],
        };
        assert_eq!(p.to_string(), "/a/descendant::*/@id");
    }
}
