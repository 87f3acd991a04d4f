//! The reference executor the property tests hold the planner and the
//! pipeline to: every `FROM` list, a subquery's included, is enumerated
//! as a brute-force cross product and filtered by its `WHERE`, with
//! expressions evaluated here. It shares only the value semantics
//! (comparison, concatenation, arithmetic, three-valued logic) with the
//! executor; no planner, plan slot, index, memo or counter takes part, so
//! a fault in any of them cannot corrupt the reference as well. It
//! resolves each column by name when it reads it, so a fault in the
//! planner's name resolution shows as a divergence.

use std::collections::BTreeSet;
use std::sync::Arc;

use relstore::{Database, RowId, Table, Value};

use super::{and3, arith, compare, concat, not3, or3, to_bool, truth};
use crate::ast::{CmpOp, Expr, Select};
use crate::plan::ExecError;

/// The rows of one `SELECT` block (its `DISTINCT` applied, first
/// occurrences kept), in the order of the cross product of its `FROM`
/// list's tables in row order.
pub fn naive_select(db: &Database, sel: &Select) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut out = Vec::new();
    Naive { db }.bindings(sel, 0, &mut Vec::new(), &mut |naive, env| {
        let row: Vec<Value> = sel
            .projections
            .iter()
            .map(|p| naive.eval(&p.expr, env))
            .collect::<Result<_, _>>()?;
        out.push(row);
        Ok(true)
    })?;
    if sel.distinct {
        let mut seen = BTreeSet::new();
        out.retain(|r| seen.insert(r.clone()));
    }
    Ok(out)
}

/// Called per binding that satisfies a block's `WHERE`; returns `false`
/// to stop the enumeration.
type Emit<'f, 'db> = dyn FnMut(&Naive<'db>, &mut Vec<Binding<'db>>) -> Result<bool, ExecError> + 'f;

struct Naive<'db> {
    db: &'db Database,
}

/// One bound alias of the cross product.
struct Binding<'db> {
    alias: Arc<str>,
    table: &'db Table,
    rid: RowId,
}

/// The cell `qualifier.name` names in `env`. Inner bindings shadow
/// outer ones, so the scan runs from the end.
fn resolve_column<'db>(
    qualifier: Option<&str>,
    name: &str,
    env: &[Binding<'db>],
) -> Result<&'db Value, ExecError> {
    for b in env.iter().rev() {
        if qualifier.is_some_and(|q| q != &*b.alias) {
            continue;
        }
        if let Some(ci) = b.table.schema.col(name) {
            return Ok(&b.table.row(b.rid)[ci]);
        }
        if qualifier.is_some() {
            return Err(ExecError::exec(format!(
                "alias `{}` has no column `{name}`",
                b.alias
            )));
        }
    }
    Err(ExecError::exec(match qualifier {
        Some(q) => format!("unknown column `{q}.{name}`"),
        None => format!("unknown column `{name}`"),
    }))
}

impl<'db> Naive<'db> {
    /// Extend `env` with each combination of rows of the tables of
    /// `sel`'s `FROM` list from position `depth` on, and call `emit` for
    /// each one its `WHERE` holds on. Returns `false` when `emit` stopped
    /// the enumeration.
    fn bindings(
        &self,
        sel: &Select,
        depth: usize,
        env: &mut Vec<Binding<'db>>,
        emit: &mut Emit<'_, 'db>,
    ) -> Result<bool, ExecError> {
        let Some(tref) = sel.from.get(depth) else {
            if let Some(w) = &sel.where_clause {
                if self.truth(w, env)? != Some(true) {
                    return Ok(true);
                }
            }
            return emit(self, env);
        };
        let table = self
            .db
            .table(&tref.table)
            .ok_or_else(|| ExecError::exec(format!("no such table `{}`", tref.table)))?;
        let alias: Arc<str> = Arc::from(tref.alias.as_str());
        for (rid, _) in table.rows() {
            env.push(Binding {
                alias: alias.clone(),
                table,
                rid,
            });
            let more = self.bindings(sel, depth + 1, env, emit);
            env.pop();
            if !more? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn truth(&self, e: &Expr, env: &mut Vec<Binding<'db>>) -> Result<Option<bool>, ExecError> {
        match self.eval(e, env)? {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(b)),
            other => Err(ExecError::exec(format!(
                "predicate evaluated to non-boolean value {other}"
            ))),
        }
    }

    fn eval(&self, e: &Expr, env: &mut Vec<Binding<'db>>) -> Result<Value, ExecError> {
        Ok(match e {
            Expr::Literal(v) => v.clone(),
            Expr::Column {
                qualifier, name, ..
            } => resolve_column(qualifier.as_deref(), name, env)?.clone(),
            Expr::Cmp { op, lhs, rhs } => {
                compare(*op, &self.eval(lhs, env)?, &self.eval(rhs, env)?)
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = self.eval(expr, env)?;
                let ge = compare(CmpOp::Ge, &v, &self.eval(lo, env)?);
                let le = compare(CmpOp::Le, &v, &self.eval(hi, env)?);
                let both = and3(truth(&ge), truth(&le));
                to_bool(if *negated { not3(both) } else { both })
            }
            // AND and OR stop where the executor stops, so an operand it
            // never evaluates cannot raise an error here.
            Expr::And(xs) => {
                let mut acc = Some(true);
                for x in xs {
                    acc = and3(acc, self.truth(x, env)?);
                    if acc == Some(false) {
                        break;
                    }
                }
                to_bool(acc)
            }
            Expr::Or(xs) => {
                let mut acc = Some(false);
                for x in xs {
                    acc = or3(acc, self.truth(x, env)?);
                    if acc == Some(true) {
                        break;
                    }
                }
                to_bool(acc)
            }
            Expr::Not(x) => to_bool(not3(self.truth(x, env)?)),
            Expr::Exists(sub) => {
                let mut found = false;
                self.bindings(sub, 0, env, &mut |_, _| {
                    found = true;
                    Ok(false)
                })?;
                Value::Bool(found)
            }
            Expr::ScalarSubquery(sub) => {
                if sub.projections.len() != 1 {
                    return Err(ExecError::exec(
                        "scalar subquery must project exactly one column",
                    ));
                }
                let proj = &sub.projections[0].expr;
                if matches!(proj, Expr::CountStar) {
                    let mut n = 0;
                    self.bindings(sub, 0, env, &mut |_, _| {
                        n += 1;
                        Ok(true)
                    })?;
                    return Ok(Value::Int(n));
                }
                let mut result = None;
                self.bindings(sub, 0, env, &mut |naive, env| {
                    if result.is_some() {
                        return Err(ExecError::exec(
                            "scalar subquery returned more than one row",
                        ));
                    }
                    result = Some(naive.eval(proj, env)?);
                    Ok(true)
                })?;
                result.unwrap_or(Value::Null)
            }
            Expr::RegexpLike { subject, pattern } => match self.eval(subject, env)? {
                Value::Null => Value::Null,
                Value::Str(s) => Value::Bool(pattern.is_match(&s)),
                other => {
                    return Err(ExecError::exec(format!(
                        "REGEXP_LIKE subject must be text, got {other}"
                    )))
                }
            },
            Expr::Concat(a, b) => concat(&self.eval(a, env)?, &self.eval(b, env)?),
            Expr::Arith { op, lhs, rhs } => {
                arith(*op, &self.eval(lhs, env)?, &self.eval(rhs, env)?)?
            }
            Expr::IsNull { expr, negated } => {
                Value::Bool(self.eval(expr, env)?.is_null() != *negated)
            }
            Expr::CountStar => return Err(ExecError::exec("COUNT(*) outside aggregate context")),
        })
    }
}
