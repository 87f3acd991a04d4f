//! The result tail of statement execution: collecting each surviving
//! binding as cells borrowed from its tables, `DISTINCT`/`UNION`
//! duplicate elimination and the final `ORDER BY` over a `u32` order of
//! those rows, and the one copy of each surviving value into [`Rows`].

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::{Index, Range};

use relstore::Value;

use super::{Binding, Executor};
use crate::ast::Expr;
use crate::plan::{ExecError, SortKey};

/// Result rows, stored flat: `len` rows of `arity` cells each, row-major
/// in one vector. The row count is kept apart from the cells, so a
/// zero-column result still counts its rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Rows {
    cells: Vec<Value>,
    len: usize,
    arity: usize,
}

impl Rows {
    /// No rows of `arity` columns.
    pub fn new(arity: usize) -> Rows {
        Rows {
            cells: Vec::new(),
            len: 0,
            arity,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in result order, each as a slice of its cells.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &[Value]> + ExactSizeIterator + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl Index<usize> for Rows {
    type Output = [Value];

    fn index(&self, i: usize) -> &[Value] {
        assert!(i < self.len, "row {i} of a {}-row result", self.len);
        &self.cells[i * self.arity..(i + 1) * self.arity]
    }
}

/// Rows equal nested vectors holding the same cells in the same order.
impl PartialEq<Vec<Vec<Value>>> for Rows {
    fn eq(&self, other: &Vec<Vec<Value>>) -> bool {
        self.len == other.len() && self.iter().zip(other).all(|(a, b)| a == b.as_slice())
    }
}

/// Every row a statement's branches produce, in branch order, before the
/// tail: `len` rows of `width` cells, the `arity` projected ones and then
/// the computed ORDER BY keys. A column cell borrows from its table;
/// only evaluated cells are owned. The tail permutes row numbers and
/// copies each surviving row's projected values once, into [`Rows`].
pub(super) struct Collected<'a> {
    arity: usize,
    width: usize,
    len: usize,
    cells: Vec<Cow<'a, Value>>,
}

impl<'a> Collected<'a> {
    pub(super) fn new(arity: usize, width: usize) -> Collected<'a> {
        Collected {
            arity,
            width,
            len: 0,
            cells: Vec::new(),
        }
    }

    /// Append one surviving binding's cells, its branch plan's
    /// projections: a column or literal borrowed, anything else
    /// evaluated.
    pub(super) fn push<'db: 'a>(
        &mut self,
        exec: &Executor<'db>,
        projections: &'a [Expr],
        env: &mut Vec<Binding<'db>>,
    ) -> Result<(), ExecError> {
        for e in projections {
            self.cells.push(exec.operand(e, env)?);
        }
        self.len += 1;
        Ok(())
    }

    /// Row `r`'s projected cells.
    fn row(&self, r: u32) -> &[Cow<'a, Value>] {
        let at = r as usize * self.width;
        &self.cells[at..at + self.arity]
    }

    /// Rows compare cell by cell under `cmp_total`, so `Int(1)` and
    /// `Float(1.0)` are duplicates.
    fn cmp_row(&self, a: u32, b: u32) -> Ordering {
        let (a, b) = (self.row(a), self.row(b));
        a.iter()
            .zip(b)
            .map(|(x, y)| x.cmp_total(y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Compare two rows under the ORDER BY keys: output keys on the
    /// projected cells, computed keys positionally on the cells after
    /// them, DESC by reversal.
    fn cmp_keys(&self, keys: &[(SortKey, bool)], a: u32, b: u32) -> Ordering {
        let mut ci = 0;
        for (kind, desc) in keys {
            let (x, y) = match kind {
                SortKey::Output(i) => (&self.row(a)[*i], &self.row(b)[*i]),
                SortKey::Computed => {
                    let at = |r: u32| &self.cells[r as usize * self.width + self.arity + ci];
                    let pair = (at(a), at(b));
                    ci += 1;
                    pair
                }
            };
            let ord = x.cmp_total(y);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord.is_ne() {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The statement tail over every branch's rows: duplicate elimination
    /// when `dedup` (a UNION, or a DISTINCT branch), then a stable ORDER
    /// BY. A UNION has set semantics, so it takes one pass over the
    /// concatenated arms; that pass keeps the first occurrence of each
    /// row, as per-branch DISTINCT passes before it would have.
    pub(super) fn finish(self, dedup: bool, keys: &[(SortKey, bool)]) -> Rows {
        let n = u32::try_from(self.len).expect("2^32 result rows would not fit in memory");
        if n <= 1 || (!dedup && keys.is_empty()) {
            return self.materialise(0..n);
        }
        let mut order: Vec<u32> = (0..n).collect();
        let by_keys = |a: &u32, b: &u32| self.cmp_keys(keys, *a, *b);
        let sort = |order: &mut Vec<u32>| {
            if !order.is_sorted_by(|a, b| by_keys(a, b).is_le()) {
                order.sort_by(by_keys);
            }
        };
        let output_keys = keys.iter().all(|(k, _)| matches!(k, SortKey::Output(_)));
        if output_keys && !keys.is_empty() {
            sort(&mut order);
            if dedup {
                self.dedup_runs(keys, &mut order);
            }
        } else {
            if dedup {
                let kept = self.dedup_permutation(&mut order, 0..n as usize, 0);
                order.truncate(kept);
            }
            sort(&mut order);
        }
        self.materialise(order.into_iter())
    }

    /// Drop duplicates from an order stably sorted by output keys. Equal
    /// rows have equal output keys, so every copy of a row lies in the run
    /// of equal keys that holds its first copy, and stability keeps that
    /// copy first: deduplicating within each run keeps first occurrences.
    /// A run of one row costs the one key comparison that ends it.
    fn dedup_runs(&self, keys: &[(SortKey, bool)], order: &mut Vec<u32>) {
        let mut kept = 0;
        let mut start = 0;
        while start < order.len() {
            let first = order[start];
            let end = start
                + 1
                + order[start + 1..]
                    .iter()
                    .take_while(|&&r| self.cmp_keys(keys, first, r).is_eq())
                    .count();
            kept = self.dedup_permutation(order, start..end, kept);
            start = end;
        }
        order.truncate(kept);
    }

    /// Drop duplicates from the ascending row numbers `order[run]`,
    /// keeping the earliest copy of each row, and move the survivors,
    /// still ascending, to `order[kept..]` (`kept` is at most the run's
    /// start); returns where they end. Sorting by (row, number) puts every
    /// copy right after the earliest one, each row equal to its
    /// predecessor is dropped, and ascending order is restored. Both the
    /// order before any sort and a run of a stably sorted order hold
    /// ascending row numbers. Nothing is allocated.
    fn dedup_permutation(&self, order: &mut [u32], run: Range<usize>, kept: usize) -> usize {
        let start = kept;
        let mut kept = kept;
        order[run.clone()].sort_unstable_by(|&a, &b| self.cmp_row(a, b).then(a.cmp(&b)));
        for i in run {
            let r = order[i];
            if kept == start || self.cmp_row(order[kept - 1], r).is_ne() {
                order[kept] = r;
                kept += 1;
            }
        }
        order[start..kept].sort_unstable();
        kept
    }

    /// Copy the cells of `order`'s rows, in that order, into the result:
    /// the one copy each surviving value gets.
    fn materialise(&self, order: impl ExactSizeIterator<Item = u32>) -> Rows {
        let len = order.len();
        let mut cells = Vec::with_capacity(len * self.arity);
        for r in order {
            cells.extend(self.row(r).iter().map(|c| Value::clone(c)));
        }
        Rows {
            cells,
            len,
            arity: self.arity,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::borrow::Cow;
    use std::cmp::Ordering;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use relstore::Value;

    use super::{Collected, SortKey};

    /// A produced row: its computed sort keys and its projected cells.
    type KeyedRow = (Vec<Value>, Vec<Value>);

    /// Compare two keyed rows under the ORDER BY keys, as the tail did
    /// before it sorted row numbers.
    fn cmp_keyed(keys: &[(SortKey, bool)], a: &KeyedRow, b: &KeyedRow) -> Ordering {
        let mut ci = 0;
        for (kind, desc) in keys {
            let ord = match kind {
                SortKey::Output(i) => a.1[*i].cmp_total(&b.1[*i]),
                SortKey::Computed => {
                    let ord = a.0[ci].cmp_total(&b.0[ci]);
                    ci += 1;
                    ord
                }
            };
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// The tail as it was before rows were deduplicated by permutation:
    /// per-branch DISTINCT, then UNION, each cloning rows into a set, then
    /// a stable sort.
    fn reference_tail(
        branches: &[(bool, Vec<KeyedRow>)],
        keys: &[(SortKey, bool)],
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
            0 => Value::Int(1),
            1 => Value::Float(1.0),
            2 => Value::Null,
            3 => Value::Int(2),
            4 => Value::Float(2.0),
            5 => Value::Str("a".into()),
            6 => Value::Bytes(vec![0, 1]),
            _ => Value::Bytes(vec![0, 1, 0xFF]),
        }
    }

    /// The tail must keep exactly the rows the reference keeps —
    /// including *which* of two equal rows (`Int(1)` vs `Float(1.0)`, or
    /// the same row with different computed keys) — in the same order.
    /// Rows are compared by their `Debug` form, since `Value` equality
    /// cannot tell those copies apart.
    #[test]
    fn tail_matches_set_reference() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut run_dedups = 0;
        for case in 0..600 {
            let arity = rng.gen_range(1..=3usize);
            let n_branches = rng.gen_range(1..=4usize);
            // Computed keys are only legal on a single branch.
            let n_computed = if n_branches == 1 {
                rng.gen_range(0..=2usize)
            } else {
                0
            };
            let mut keys: Vec<(SortKey, bool)> = (0..rng.gen_range(0..=2usize))
                .map(|_| (SortKey::Output(rng.gen_range(0..arity)), rng.gen_bool(0.5)))
                .collect();
            for _ in 0..n_computed {
                let at = rng.gen_range(0..=keys.len());
                keys.insert(at, (SortKey::Computed, rng.gen_bool(0.5)));
            }
            let branches: Vec<(bool, Vec<KeyedRow>)> = (0..n_branches)
                .map(|_| {
                    let rows = (0..rng.gen_range(0..40))
                        .map(|_| {
                            let key = (0..n_computed).map(|_| cell(&mut rng)).collect();
                            let row = (0..arity).map(|_| cell(&mut rng)).collect();
                            (key, row)
                        })
                        .collect();
                    (rng.gen_bool(0.5), rows)
                })
                .collect();
            let want = reference_tail(&branches, &keys);

            let mut collected = Collected::new(arity, arity + n_computed);
            for (key, row) in branches.iter().flat_map(|(_, rows)| rows) {
                collected
                    .cells
                    .extend(row.iter().chain(key).map(Cow::Borrowed));
                collected.len += 1;
            }
            let dedup = n_branches > 1 || branches.iter().any(|(distinct, _)| *distinct);
            // With only output keys, every dropped duplicate was dropped
            // inside a run of equal keys.
            let output_keys = keys.iter().all(|(k, _)| matches!(k, SortKey::Output(_)));
            run_dedups +=
                usize::from(!keys.is_empty() && output_keys && want.len() < collected.len);
            let got = collected.finish(dedup, &keys);
            let want: Vec<&[Value]> = want.iter().map(|(_, row)| row.as_slice()).collect();
            assert_eq!(
                format!("{:?}", got.iter().collect::<Vec<_>>()),
                format!("{want:?}"),
                "case {case}: {n_branches} branch(es), arity {arity}"
            );
        }
        assert!(
            run_dedups >= 50,
            "only {run_dedups} cases dropped a duplicate inside a run of equal keys"
        );
    }

    /// A zero-column result still counts its rows.
    #[test]
    fn zero_column_rows_count() {
        let mut collected = Collected::new(0, 0);
        collected.len = 3;
        let rows = collected.finish(false, &[]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.iter().count(), 3);
        assert!(rows[2].is_empty());
    }
}
