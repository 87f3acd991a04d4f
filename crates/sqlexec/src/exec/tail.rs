//! The result tail of statement execution: projecting surviving bindings
//! into rows, `DISTINCT`/`UNION` duplicate elimination, and the final
//! `ORDER BY`.

use relstore::Value;

use super::{Binding, Executor};
use crate::ast::{Expr, Select, SelectStmt};
use crate::plan::ExecError;

/// A resolved ORDER BY key: a projected output column by position, or an
/// expression computed against the branch's own bindings.
pub(super) enum KeyKind {
    Output(usize),
    Computed(Expr),
}

/// Evaluate one surviving binding into its `(sort_key, row)` pair — the
/// per-row tail of statement execution.
pub(super) fn project_row<'db>(
    exec: &Executor<'db>,
    sel: &Select,
    keys: &[(KeyKind, bool)],
    env: &mut Vec<Binding<'db>>,
) -> Result<(Vec<Value>, Vec<Value>), ExecError> {
    let row: Vec<Value> = sel
        .projections
        .iter()
        .map(|p| exec.eval(&p.expr, env))
        .collect::<Result<_, _>>()?;
    // Only computed keys are materialized; keys naming an output column
    // compare on the row in place (`cmp_keyed`), so the common
    // ORDER-BY-an-output-column case allocates no key vector at all.
    let n_computed = keys
        .iter()
        .filter(|(k, _)| matches!(k, KeyKind::Computed(_)))
        .count();
    let mut sort_key = Vec::new();
    if n_computed > 0 {
        sort_key.reserve_exact(n_computed);
        for (kind, _) in keys {
            if let KeyKind::Computed(e) = kind {
                sort_key.push(exec.eval(e, env)?);
            }
        }
    }
    Ok((sort_key, row))
}

/// A projected result row paired with its *computed* sort keys (keys
/// naming an output column compare directly on the row — see
/// [`cmp_keyed`] — so they are not materialized per row).
pub(super) type KeyedRow = (Vec<Value>, Vec<Value>);

/// Compare two keyed rows under the statement's ORDER BY keys. Output
/// keys index the projected row in place; computed keys consume the
/// precomputed key vector positionally. Total order via `cmp_total`,
/// DESC by reversal.
fn cmp_keyed(keys: &[(KeyKind, bool)], a: &KeyedRow, b: &KeyedRow) -> std::cmp::Ordering {
    let mut ci = 0;
    for (kind, desc) in keys {
        let ord = match kind {
            KeyKind::Output(i) => a.1[*i].cmp_total(&b.1[*i]),
            KeyKind::Computed(_) => {
                let ord = a.0[ci].cmp_total(&b.0[ci]);
                ci += 1;
                ord
            }
        };
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    std::cmp::Ordering::Equal
}

/// The statement tail over every branch's rows, concatenated in branch
/// order: duplicate elimination, then a stable ORDER BY (a no-op for
/// keyless statements). A UNION has set semantics, so it takes one pass
/// over the concatenation — that pass keeps the same first occurrences
/// that per-branch DISTINCT passes before it would have kept.
pub(super) fn finish_rows(stmt: &SelectStmt, rows: &mut Vec<KeyedRow>, keys: &[(KeyKind, bool)]) {
    if stmt.branches.len() > 1 || stmt.branches.iter().any(|b| b.distinct) {
        dedup_rows(rows);
    }
    if !keys.is_empty() {
        rows.sort_by(|a, b| cmp_keyed(keys, a, b));
    }
}

/// Remove duplicate rows in place, keeping the earliest copy of each and
/// the survivors' relative order. Rows are equal under `cmp_total`, so
/// `Int(1)` and `Float(1.0)` are duplicates.
///
/// Nothing is cloned: a `u32` permutation is sorted by (row, position),
/// which puts every copy of a row right after the earliest one, so a row
/// is a duplicate exactly when it equals its predecessor in that order.
/// Two allocations per call, none per row.
fn dedup_rows(rows: &mut Vec<(Vec<Value>, Vec<Value>)>) {
    if rows.len() < 2 {
        return;
    }
    let n = u32::try_from(rows.len()).expect("2^32 result rows would not fit in memory");
    let mut order: Vec<u32> = (0..n).collect();
    order.sort_unstable_by(|&a, &b| rows[a as usize].1.cmp(&rows[b as usize].1).then(a.cmp(&b)));
    let mut keep = vec![true; rows.len()];
    for w in order.windows(2) {
        if rows[w[0] as usize].1 == rows[w[1] as usize].1 {
            keep[w[1] as usize] = false;
        }
    }
    let mut keep = keep.into_iter();
    rows.retain(|_| keep.next() == Some(true));
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relstore::Value;

    use super::{cmp_keyed, finish_rows, KeyKind, KeyedRow};
    use crate::ast::{Expr, Select, SelectStmt};

    /// The tail as it was before rows were deduplicated by permutation:
    /// per-branch DISTINCT, then UNION, each cloning rows into a set, then
    /// a stable sort.
    fn reference_tail(
        branches: &[(bool, Vec<KeyedRow>)],
        keys: &[(KeyKind, bool)],
    ) -> Vec<KeyedRow> {
        fn dedup(rows: &mut Vec<KeyedRow>) {
            let mut seen = std::collections::BTreeSet::new();
            rows.retain(|(_, r)| seen.insert(r.clone()));
        }
        let mut all = Vec::new();
        for (distinct, rows) in branches {
            let mut rows = rows.clone();
            if *distinct {
                dedup(&mut rows);
            }
            all.extend(rows);
        }
        if branches.len() > 1 {
            dedup(&mut all);
        }
        all.sort_by(|a, b| cmp_keyed(keys, a, b));
        all
    }

    /// Few distinct cells, so rows collide often; `Int(1)`/`Float(1.0)`
    /// and `Int(2)`/`Float(2.0)` are equal under `cmp_total`.
    fn cell(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..8) {
            0 => Value::Null,
            1 => Value::Int(1),
            2 => Value::Float(1.0),
            3 => Value::Int(2),
            4 => Value::Float(2.0),
            5 => Value::Str("a".into()),
            6 => Value::Bytes(vec![0, 1]),
            _ => Value::Bytes(vec![0, 1, 0xFF]),
        }
    }

    /// The new tail must keep exactly the rows the reference keeps —
    /// including *which* of two equal rows (`Int(1)` vs `Float(1.0)`, or
    /// the same row with different computed keys) — in the same order.
    /// Rows are compared by their `Debug` form, since `Value` equality
    /// cannot tell those copies apart.
    #[test]
    fn dedup_by_permutation_matches_set_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for case in 0..500 {
            let arity = rng.gen_range(1..=3usize);
            let n_branches = rng.gen_range(1..=4usize);
            // Computed keys are only legal on a single branch.
            let n_computed = if n_branches == 1 {
                rng.gen_range(0..=2usize)
            } else {
                0
            };
            let mut keys: Vec<(KeyKind, bool)> = (0..rng.gen_range(0..=2usize))
                .map(|_| (KeyKind::Output(rng.gen_range(0..arity)), rng.gen_bool(0.5)))
                .collect();
            for _ in 0..n_computed {
                let at = rng.gen_range(0..=keys.len());
                keys.insert(at, (KeyKind::Computed(Expr::int(0)), rng.gen_bool(0.5)));
            }
            let branches: Vec<(bool, Vec<KeyedRow>)> = (0..n_branches)
                .map(|_| {
                    let rows = (0..rng.gen_range(0..40usize))
                        .map(|_| {
                            let key = (0..n_computed).map(|_| cell(&mut rng)).collect();
                            let row = (0..arity).map(|_| cell(&mut rng)).collect();
                            (key, row)
                        })
                        .collect();
                    (rng.gen_bool(0.5), rows)
                })
                .collect();
            let stmt = SelectStmt {
                branches: branches
                    .iter()
                    .map(|(distinct, _)| Select {
                        distinct: *distinct,
                        ..Select::default()
                    })
                    .collect(),
                order_by: Vec::new(),
            };
            let mut got: Vec<KeyedRow> = branches.iter().flat_map(|(_, r)| r.clone()).collect();
            finish_rows(&stmt, &mut got, &keys);
            let want = reference_tail(&branches, &keys);
            assert_eq!(
                format!("{got:?}"),
                format!("{want:?}"),
                "case {case}: {n_branches} branch(es), arity {arity}"
            );
        }
    }
}
