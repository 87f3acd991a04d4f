//! `ppf-pool` — a one-lane stand-in for the removed query-side pool.
//!
//! Every query runs one serial pipeline, so no crate of the workspace
//! depends on this one. It exists only because the served-path
//! benchmark's probe still times a `global().map_ranges(..)` call
//! (`pool.fork_us`); it keeps exactly the four items that line links.

use std::ops::Range;
use std::sync::Arc;

/// A pool of one lane: the caller.
#[derive(Debug, Default)]
pub struct Pool;

impl Pool {
    /// Lanes a task can run on: always 1.
    pub fn threads(&self) -> usize {
        1
    }

    /// Run `f(task_index, range)` for each range, in order, on the
    /// calling thread, and collect the results in range order.
    pub fn map_ranges<R, F>(&self, ranges: &[Range<usize>], f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        ranges
            .iter()
            .enumerate()
            .map(|(i, r)| f(i, r.clone()))
            .collect()
    }
}

/// The pool every caller shares.
pub fn global() -> Arc<Pool> {
    Arc::new(Pool)
}

/// Split `0..len` into `chunks` contiguous ranges differing in length by
/// at most one.
pub fn even_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.clamp(1, len.max(1));
    let base = len / chunks;
    let extra = len % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut at = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(at..at + size);
        at += size;
    }
    out
}
