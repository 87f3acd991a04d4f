//! `sqlexec` — SQL front end and executor over `relstore`.
//!
//! Together with `relstore` this crate is the stand-in for the paper's
//! Oracle 10g back end. It provides:
//!
//! * a SQL **AST** ([`ast`]) covering the fragment the XPath translators
//!   emit — `SELECT DISTINCT … FROM … WHERE …`, `UNION`, correlated
//!   `EXISTS`, scalar `COUNT(*)` subqueries, `BETWEEN`, `REGEXP_LIKE`
//!   (POSIX ERE, per Oracle), `||` concatenation, 3-valued NULL logic;
//! * a **renderer** ([`render`]) producing the textual SQL of the paper's
//!   Tables 3–6, and a **parser** ([`parser`]) accepting it back;
//! * a **planner** ([`plan`]) that picks join order by estimated
//!   cardinality and turns structural-join predicates into ordered index
//!   probes (equality and `BETWEEN` ranges on `dewey_pos`);
//! * an **executor** ([`exec`]) implementing an index-nested-loop pipeline
//!   with early-exit `EXISTS`, plus `DISTINCT`/`UNION`/`ORDER BY`;
//! * a **prepared statement** ([`prepared`]): a statement with its
//!   `SELECT` blocks numbered and one plan slot per block, filled by the
//!   first run that reaches the block and shared by every later run.
//!
//! # Example
//! ```
//! use relstore::{ColType, Database, TableSchema, Value};
//! use sqlexec::Executor;
//! let mut db = Database::new();
//! db.create_table(TableSchema::new("t", &[("id", ColType::Int)])).unwrap();
//! db.table_mut("t").unwrap().insert(vec![Value::Int(7)]).unwrap();
//! let exec = Executor::new(&db);
//! let rs = exec.query("select t.id from t where t.id > 3").unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! assert_eq!(rs.rows[0], [Value::Int(7)]);
//! ```

pub mod ast;
pub mod exec;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod prepared;
pub mod render;

pub use ast::{
    ArithOp, CmpOp, Expr, OrderKey, Projection, RegexPattern, Select, SelectStmt, TableRef,
};
pub use exec::{
    clear_filter_caches, compare, naive_select, CancelToken, ExecOptions, ExecStats, Executor,
    OpStats, QueryLimits, ResultSet, Rows,
};
pub use explain::{explain_analyze, explain_analyze_with_limits, explain_stmt};
pub use parser::parse_sql;
pub use plan::{qerror, ExecError, SelectPlan};
pub use prepared::Prepared;
pub use render::render_stmt;
