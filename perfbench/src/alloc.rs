//! A counting global allocator: every allocation and reallocation bumps a
//! per-thread counter, so a traced layer's allocation count is the counter's
//! difference across calls into it on the same thread. The counts depend
//! only on the program's inputs, so they repeat exactly from run to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations (including reallocations) made so far on this thread.
#[inline]
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

#[inline]
fn bump() {
    // `try_with` fails only while this thread's locals are being torn down;
    // those late allocations go uncounted.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// Delegates to the system allocator and counts.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to
// `std::alloc::System`, which upholds the `GlobalAlloc` contract; `bump`
// touches only a const-initialised `Cell` thread-local, which neither
// allocates, recurses into the allocator, nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by this allocator, i.e. by `System`,
        // with `layout`; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_this_threads_allocations() {
        let before = super::count();
        let v: Vec<u64> = Vec::with_capacity(16);
        let b = Box::new(7u32);
        std::hint::black_box((&v, &b));
        assert_eq!(super::count() - before, 2);
    }
}
