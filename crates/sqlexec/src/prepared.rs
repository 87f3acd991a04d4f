//! A prepared statement: one SQL statement together with the plans of
//! its `SELECT` blocks.
//!
//! [`Prepared::new`] numbers the statement's blocks in one preorder pass
//! ([`SelectStmt::number_blocks`]) and keeps one plan slot per block.
//! An executor plans a block the first time it runs it and leaves the
//! plan in the block's slot; every later run of the same `Prepared`, on
//! any thread, reads it from there. A slot is set once and read without
//! a lock. A subquery is found by its ordinal whether the executor holds
//! the statement's own `Select` or the clone of it inside its parent's
//! plan, so no plan is keyed by where a `Select` lives in memory.

use std::sync::{Arc, OnceLock};

use crate::ast::SelectStmt;
use crate::plan::{ExecError, SelectPlan};

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
    plans: Box<[OnceLock<Arc<SelectPlan>>]>,
}

impl Prepared {
    /// Number `stmt`'s blocks and give each an empty plan slot.
    pub fn new(mut stmt: SelectStmt) -> Prepared {
        let blocks = stmt.number_blocks();
        Prepared {
            stmt,
            plans: (0..blocks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The numbered statement.
    pub fn stmt(&self) -> &SelectStmt {
        &self.stmt
    }

    /// The plan of block `ordinal`, if one has been made.
    pub fn plan(&self, ordinal: usize) -> Option<&Arc<SelectPlan>> {
        self.plans.get(ordinal)?.get()
    }

    /// Put `plan` in block `ordinal`'s slot unless it already holds one,
    /// and return the plan the slot holds. When two runs plan a block at
    /// once, the first to finish fills the slot and both use its plan.
    pub fn set_plan(
        &self,
        ordinal: usize,
        plan: Arc<SelectPlan>,
    ) -> Result<&Arc<SelectPlan>, ExecError> {
        let slot = self.plans.get(ordinal).ok_or_else(|| {
            ExecError::exec(format!(
                "SELECT block {ordinal} is not part of this statement ({} blocks)",
                self.plans.len()
            ))
        })?;
        Ok(slot.get_or_init(|| plan))
    }

    /// How many `SELECT` blocks the statement has.
    pub fn blocks(&self) -> usize {
        self.plans.len()
    }
}
