//! A counting global allocator for verifying the zero-allocation claims.
//!
//! Install [`CountingAllocator`] as the `#[global_allocator]` of a test or
//! binary, then wrap the region of interest in [`count_allocations`]: it
//! returns how many heap allocations (`alloc` + `realloc`) the closure
//! performed on the calling thread.
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: rae_bench::alloc_counter::CountingAllocator =
//!     rae_bench::alloc_counter::CountingAllocator;
//!
//! let (result, allocs) = rae_bench::alloc_counter::count_allocations(|| {
//!     index.access_into(7, &mut scratch).map(<[_]>::to_vec)
//! });
//! assert_eq!(allocs, 0);
//! ```
//!
//! The counter is thread-local and armed only inside [`count_allocations`],
//! so allocations made by other threads (parallel tests, a harness's worker
//! threads) never leak into a measured region.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether the current thread is inside [`count_allocations`].
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on the current thread while armed.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation when the current thread is armed. `try_with`
/// keeps the allocator usable while the thread's locals are torn down.
#[inline]
fn record() {
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            let _ = COUNT.try_with(|c| c.set(c.get() + 1));
        }
    });
}

/// A `System`-backed allocator that counts the allocations of threads
/// inside [`count_allocations`].
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`, only adding updates to
// const-initialized thread-local cells (which never allocate).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Disarms the thread on drop, so a panicking closure leaves no armed state.
struct Armed {
    was_armed: bool,
}

impl Drop for Armed {
    fn drop(&mut self) {
        ARMED.with(|a| a.set(self.was_armed));
    }
}

/// Runs `f` and returns `(f(), allocations performed by this thread during f)`.
///
/// Only meaningful when [`CountingAllocator`] is installed as the global
/// allocator; otherwise the count is always 0. Calls may nest.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let _armed = Armed {
        was_armed: ARMED.with(|a| a.replace(true)),
    };
    let before = COUNT.with(Cell::get);
    let result = f();
    let after = COUNT.with(Cell::get);
    (result, after - before)
}
