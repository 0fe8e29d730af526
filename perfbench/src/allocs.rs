//! A counting global allocator for the traced run's allocations-per-site
//! figure. It counts per thread, in a thread-local, so worker threads never
//! contend on a shared counter and tracing barely slows the crawl it
//! measures. Only the traced binary installs it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// Allocation calls made by this thread. A plain `Cell` with a const
    /// initialiser, so the allocator hook itself never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // try_with: allocations during thread-local teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Allocation calls this thread has made since it started (zero unless
/// [`ThreadCountingAlloc`] is the global allocator).
pub fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// A [`System`]-backed allocator that counts `alloc`, `alloc_zeroed` and
/// `realloc` calls per thread.
pub struct ThreadCountingAlloc;

// SAFETY: every operation is forwarded to `System` unchanged; the
// bookkeeping only touches a thread-local counter, never the memory.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}
