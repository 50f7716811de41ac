//! A counting allocator for zero-allocation regression tests.
//!
//! Wraps [`std::alloc::System`] and counts every allocation (including
//! `realloc` and `alloc_zeroed`) in process-wide atomics. Install it as
//! the `#[global_allocator]` in a test binary, warm up the code under
//! test so lazily-created state (thread-locals, pool freelists, FFT
//! scratch) exists, then snapshot the counters around the steady-state
//! region and assert the delta is zero.
//!
//! The counters are *global*, so zero-alloc assertions are only
//! meaningful in a single-threaded test binary (or one where competing
//! threads are quiescent). The in-tree `tests/zero_alloc.rs` uses one
//! `#[test]` function for exactly this reason.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Counting wrapper around the system allocator.
///
/// ```ignore
/// #[global_allocator]
/// static A: stap_bench::alloc_count::CountingAllocator =
///     stap_bench::alloc_count::CountingAllocator;
/// ```
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// bumping relaxed atomic counters, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is an allocation event for our purposes: a grow that
        // moves is exactly the kind of steady-state churn we police.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Counter snapshot: `(allocation events, bytes requested)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
}

/// Reads the current global counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

/// Allocation events between two snapshots (`later` - `earlier`).
pub fn delta(earlier: AllocSnapshot, later: AllocSnapshot) -> AllocSnapshot {
    AllocSnapshot {
        allocs: later.allocs - earlier.allocs,
        bytes: later.bytes - earlier.bytes,
    }
}

/// Runs `f` and returns `(result, allocation events during f)`.
pub fn count_in<T>(f: impl FnOnce() -> T) -> (T, AllocSnapshot) {
    let before = snapshot();
    let out = f();
    let after = snapshot();
    (out, delta(before, after))
}
