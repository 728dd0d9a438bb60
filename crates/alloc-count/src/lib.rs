//! A counting global allocator for the workspace's allocation gates: the
//! tests that pin how many allocator calls a hot path makes.
//!
//! A test binary installs [`CountingAlloc`] and measures a closure with
//! [`allocations`]:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: dre_alloc_count::CountingAlloc = dre_alloc_count::CountingAlloc;
//!
//! fn main() {
//!     let (calls, sum) = dre_alloc_count::allocations(|| (0..10).sum::<u32>());
//!     assert_eq!((calls, sum), (0, 45));
//!     let (calls, v) = dre_alloc_count::allocations(|| vec![0u8; 16]);
//!     assert_eq!((calls, v.len()), (1, 16));
//! }
//! ```
//!
//! Calls are counted per thread, so tests running concurrently in one
//! binary do not see each other's allocations, and work the measured
//! closure hands to other threads is not counted. Every `alloc`,
//! `alloc_zeroed` and `realloc` counts one call; frees count none.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator wrapper that counts the calling thread's allocator
/// calls.
pub struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each upholds the `GlobalAlloc` contract exactly as `System` does; the
// count only touches a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` pass straight on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as `dealloc` for `ptr` and `layout`; the caller's
        // guarantees for `new_size` pass straight on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls this thread makes while running `f`, with `f`'s
/// result. Counts only when [`CountingAlloc`] is the global allocator.
pub fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}
