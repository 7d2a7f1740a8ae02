//! A counting global allocator for the per-layer `allocs_per_*` metrics.
//!
//! The count is per thread: a kernel is timed on one thread and reads its
//! own counter, and the end-to-end runs (which share this binary) pay one
//! thread-local increment per allocation instead of a contended atomic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised and without a destructor, so the allocator can
    // touch it at any point of a thread's life without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

pub struct CountingAlloc;

fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the GlobalAlloc contract; the counter is a
// thread-local integer with no invariant tied to the allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc`/`realloc` above, i.e. from the
        // system allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (alloc + realloc) made by the calling thread so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_only() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert_eq!(allocations() - before, 1);
        let before = allocations();
        std::thread::spawn(|| std::hint::black_box(vec![1u8; 64])).join().unwrap();
        // Spawning allocates on this thread; the child's vec does not count here.
        let here = allocations() - before;
        let other = std::thread::spawn(|| {
            let b = allocations();
            std::hint::black_box(vec![1u8; 64]);
            allocations() - b
        })
        .join()
        .unwrap();
        assert_eq!(other, 1);
        assert!(here < 64);
    }
}
