//! A counting global allocator for allocation pins.
//!
//! [`Counting`] wraps [`System`] and bumps two per-thread counters on every
//! `alloc`, `alloc_zeroed` and `realloc`: one allocation, and the bytes it
//! asks for (a `realloc`'s new size). [`allocations`] and
//! [`allocated_bytes`] read the calling thread's counts. A test binary
//! installs it with
//!
//! ```text
//! #[global_allocator]
//! static ALLOC: fftkern::counting::Counting = fftkern::counting::Counting;
//! ```
//!
//! which is safe code, so the binary keeps its package's
//! `forbid(unsafe_code)`. Each counter is a `const`-initialised
//! thread-local `Cell<u64>` with no destructor, so bumping it allocates
//! nothing and never touches another thread: a rank thread that snapshots
//! the count around a transform sees exactly the allocations its own code
//! made (`distfft/tests/allocations.rs`). No library or binary of the
//! workspace installs it.
//!
//! Together with [`simd`](crate::simd) this module is the crate's `unsafe`
//! perimeter (DESIGN.md §13): `GlobalAlloc` is an `unsafe` trait, and each
//! method forwards to `System` under the caller's contract.

// `GlobalAlloc` can only be implemented with `unsafe`; each block below
// carries the `// SAFETY:` comment clippy requires.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation on the calling thread.
pub struct Counting;

/// Counts one allocation of `bytes` on the calling thread. `try_with`
/// rather than `with`: an allocation made while the thread tears down its
/// locals must still succeed, uncounted.
fn bump(bytes: usize) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made on the calling
/// thread since it started, while [`Counting`] is the global allocator;
/// always 0 otherwise.
pub fn allocations() -> u64 {
    ALLOCATIONS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes requested by the allocations [`allocations`] counts: each
/// `alloc`'s and `alloc_zeroed`'s size and each `realloc`'s new size.
pub fn allocated_bytes() -> u64 {
    BYTES.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local `Cell`
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: `ptr` was allocated by `System` through this wrapper with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` through this wrapper with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}
