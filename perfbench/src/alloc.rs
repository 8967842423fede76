//! A counting global allocator for wall-time-free cost counts.
//!
//! Every allocation and reallocation made by a thread bumps that
//! thread's counter; the library code is unchanged, only this binary
//! installs the allocator. Reading the counter before and after a call
//! made on the same thread gives the exact number of heap allocations
//! the call performed, which repeats bit-for-bit for the same inputs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocation events per thread.
pub struct Counting;

thread_local! {
    // `const` initialisation with a `Copy` payload: no lazy registration
    // and no destructor, so touching it never allocates (and never
    // re-enters the allocator).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` fails only while the thread is being torn down; those
    // allocations are not attributable to a measured call anyway.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation events (allocations plus reallocations) made so far by
/// the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are exactly the ones provided;
// the only extra work is a thread-local counter bump, which neither
// allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by
        // `System`, with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
