//! A counting global allocator for allocation-budget tests.
//!
//! A test binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: obs::alloc::Counting = obs::alloc::Counting;
//! ```
//!
//! and reads [`thread_allocs`] before and after the work it measures.
//! The count is per thread, so work the test runs on its own thread is
//! counted exactly and sibling test threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`], counting every allocation and reallocation
/// made on the calling thread.
pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while the thread's locals are torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations (including reallocations) this thread has made since it
/// started, under [`Counting`]. Always 0 when another allocator is
/// installed.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which does
// not allocate (const-initialised `Cell`, no destructor).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}
