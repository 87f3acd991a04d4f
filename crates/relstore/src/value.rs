//! SQL values and column types.

use std::cmp::Ordering;
use std::fmt;

/// A column's declared type. All columns are nullable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Float,
    Str,
    /// Binary strings — used for `dewey_pos` columns, compared
    /// lexicographically byte by byte (paper §4.2).
    Bytes,
    Bool,
}

/// A runtime SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Bytes(Vec<u8>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The declared type this value inhabits, if not NULL.
    pub fn col_type(&self) -> Option<ColType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ColType::Bool),
            Value::Int(_) => Some(ColType::Int),
            Value::Float(_) => Some(ColType::Float),
            Value::Str(_) => Some(ColType::Str),
            Value::Bytes(_) => Some(ColType::Bytes),
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Total order over all values, used by index keys and `ORDER
    /// BY`. Cross-type order: Null < Bool < numeric (Int/Float unified) <
    /// Str < Bytes. Floats use IEEE total ordering so NaN is well placed.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
                Bytes(_) => 4,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

// Equality/ordering delegate to the total order so `Value` can be an index
// key. SQL's 3-valued comparison semantics live in the executor, not here.
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_total(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Bytes(b) => {
                write!(f, "x'")?;
                for byte in b {
                    write!(f, "{byte:02X}")?;
                }
                write!(f, "'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_cross_type() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Float(2.5),
            Value::Int(3),
            Value::Str("a".into()),
            Value::Bytes(vec![0x00]),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn numeric_unification() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.9) < Value::Int(2));
    }

    #[test]
    fn bytes_lexicographic() {
        // The core property the Dewey structural joins rely on.
        assert!(Value::Bytes(vec![0, 0, 1]) < Value::Bytes(vec![0, 0, 1, 0, 0, 1]));
        assert!(Value::Bytes(vec![0, 0, 1, 0xFF]) > Value::Bytes(vec![0, 0, 1, 0, 0, 2]));
        assert!(Value::Bytes(vec![0, 0, 2]) > Value::Bytes(vec![0, 0, 1, 0xFF]));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
        assert_eq!(Value::Bytes(vec![0xAB, 0x01]).to_string(), "x'AB01'");
        assert_eq!(Value::Null.to_string(), "NULL");
    }

    #[test]
    fn nan_is_orderable() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.cmp_total(&nan), Ordering::Equal);
        assert!(nan > Value::Float(f64::INFINITY));
    }
}
