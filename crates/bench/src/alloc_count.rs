//! Heap-allocation counting for the `ext_alloc` exhibit.
//!
//! [`CountingAllocator`] is a zero-sized proxy around the system allocator
//! that bumps process-wide counters on every allocation request. It only
//! counts once a binary installs it as the global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: betty_bench::alloc_count::CountingAllocator =
//!     betty_bench::alloc_count::CountingAllocator;
//! ```
//!
//! The counters use relaxed atomics — they measure traffic volume, not
//! a synchronization-precise event order, and the exhibit only reads
//! them from quiesced before/after points. When the allocator is *not*
//! installed (library tests, other binaries) the counters simply stay at
//! zero, which `installed` exposes so measurements can degrade to
//! wall-clock-only comparisons instead of asserting on dead counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Zero-sized proxy allocator: delegates to [`System`], counting each
/// `alloc`/`alloc_zeroed`/`realloc` call.
pub struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocation requests observed so far (0 unless the counting
/// allocator is installed as the process's global allocator).
pub(crate) fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Whether the counting allocator is actually serving this process. Any
/// Rust program performs heap work long before `main`, so installed ⇔
/// non-zero counters by the time any measurement code can run.
pub(crate) fn installed() -> bool {
    allocations() > 0
}
