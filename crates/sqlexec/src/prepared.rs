//! A prepared statement: one SQL statement together with the plans of
//! its `SELECT` blocks.
//!
//! [`Prepared::new`] numbers the statement's blocks in one preorder pass
//! ([`SelectStmt::number_blocks`]) and keeps one plan slot per block.
//! The first run plans every top-level branch into its slot; a branch's
//! plan holds the plans of its subqueries, and storing it fills their
//! slots too. Every later run of the same `Prepared`, on any thread,
//! reads the plans from there. A slot is set once and read without a
//! lock. A subquery is found by its ordinal, so no plan is keyed by
//! where a `Select` lives in memory.

use std::sync::{Arc, OnceLock};

use relstore::Database;

use crate::ast::{Expr, SelectStmt};
use crate::exec::{ExecOptions, ExecStats};
use crate::plan::{plan_block, sort_keys, ExecError, SelectPlan, SortKey};

/// One statement and one plan slot per `SELECT` block, indexed by the
/// block's [`Select::ordinal`](crate::Select::ordinal).
///
/// Plans depend on the database and the [`ExecOptions`](crate::ExecOptions)
/// they were made under, so a `Prepared` is run against one database
/// with one set of options; the engine drops its cached statements when
/// either changes.
#[derive(Debug)]
pub struct Prepared {
    stmt: SelectStmt,
    /// What each ORDER BY key sorts on ([`sort_keys`]), or why the
    /// statement cannot be sorted.
    sort: Result<Vec<(SortKey, bool)>, ExecError>,
    plans: Box<[OnceLock<Arc<SelectPlan>>]>,
}

impl Prepared {
    /// Number `stmt`'s blocks and give each an empty plan slot.
    pub fn new(mut stmt: SelectStmt) -> Prepared {
        let blocks = stmt.number_blocks();
        Prepared {
            sort: sort_keys(&stmt),
            stmt,
            plans: (0..blocks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// What each ORDER BY key sorts on, with its DESC flag.
    pub(crate) fn sort_keys(&self) -> Result<&[(SortKey, bool)], ExecError> {
        self.sort.as_deref().map_err(Clone::clone)
    }

    /// The numbered statement.
    pub fn stmt(&self) -> &SelectStmt {
        &self.stmt
    }

    /// The plan of block `ordinal`, if one has been made.
    pub fn plan(&self, ordinal: usize) -> Option<&Arc<SelectPlan>> {
        self.plans.get(ordinal)?.get()
    }

    /// Put `plan` in its block's slot unless that already holds one, its
    /// subquery plans in theirs first. When two runs plan a block at once,
    /// the first to finish fills the slot and its subqueries' slots, and
    /// both use its plans.
    pub fn set_plan(&self, plan: Arc<SelectPlan>) -> Result<(), ExecError> {
        if !self.fits(&plan) {
            return Err(ExecError::exec(format!(
                "a plan of SELECT block {} does not fit this statement ({} blocks)",
                plan.ordinal,
                self.plans.len()
            )));
        }
        self.fill(&plan);
        Ok(())
    }

    /// Whether `plan` and every subquery plan under it name blocks of
    /// this statement, each subquery after its parent in preorder, so
    /// filling them visits no slot twice on one path.
    fn fits(&self, plan: &SelectPlan) -> bool {
        plan.ordinal < self.plans.len()
            && plan
                .subplans
                .iter()
                .all(|sub| sub.ordinal > plan.ordinal && self.fits(sub))
    }

    fn fill(&self, plan: &Arc<SelectPlan>) {
        self.plans[plan.ordinal].get_or_init(|| {
            for sub in &plan.subplans {
                self.fill(sub);
            }
            plan.clone()
        });
    }

    /// Plan every top-level branch whose slot is empty, under `opts`,
    /// with the statement's computed ORDER BY keys ([`sort_keys`])
    /// resolved after its projections; that fills its subqueries' slots
    /// as well. The regex work and filter-memo lookups of building the
    /// plans' key sets count into `work`.
    pub fn plan_branches(
        &self,
        db: &Database,
        opts: &ExecOptions,
        work: &mut ExecStats,
    ) -> Result<(), ExecError> {
        let computed: Vec<&Expr> = self
            .stmt
            .order_by
            .iter()
            .zip(self.sort_keys()?)
            .filter(|(_, (kind, _))| *kind == SortKey::Computed)
            .map(|(key, _)| &key.expr)
            .collect();
        for branch in &self.stmt.branches {
            if self.plan(branch.ordinal).is_none() {
                let plan = plan_block(db, branch, &[], &computed, opts, work)?;
                self.set_plan(Arc::new(plan))?;
            }
        }
        Ok(())
    }

    /// How many `SELECT` blocks the statement has.
    pub fn blocks(&self) -> usize {
        self.plans.len()
    }
}
