//! The benchmark's own counting allocator.
//!
//! Installed as the `#[global_allocator]` of the benchmark binary, so the
//! `serve` child (the gateway process) and the in-process `cold_bridge`
//! run report *bytes requested from the allocator* without touching the
//! product. Counts are striped over cache-line-padded slots picked per
//! thread, so the reactor and the worker threads do not fight over one
//! counter line while they are being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const STRIPES: usize = 16;

#[repr(align(64))]
struct Stripe {
    bytes: AtomicU64,
    calls: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY: Stripe = Stripe { bytes: AtomicU64::new(0), calls: AtomicU64::new(0) };
static COUNTS: [Stripe; STRIPES] = [EMPTY; STRIPES];
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free, so touching it from inside the
    // allocator can neither allocate nor run a destructor.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn stripe() -> &'static Stripe {
    let idx = STRIPE
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES);
            }
            s.get()
        })
        .unwrap_or(0);
    &COUNTS[idx]
}

/// Counts every allocation request, then defers to the system allocator.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is relaxed counter arithmetic on statics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let s = stripe();
        s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        s.calls.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let s = stripe();
        s.bytes.fetch_add(layout.size() as u64, Ordering::Relaxed);
        s.calls.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow requests the extra bytes; a shrink requests nothing.
        let s = stripe();
        s.bytes.fetch_add(new_size.saturating_sub(layout.size()) as u64, Ordering::Relaxed);
        s.calls.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block, per the
        // `GlobalAlloc::realloc` contract the caller upholds.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(bytes requested, allocator calls)` since process start, all threads.
pub fn totals() -> (u64, u64) {
    COUNTS.iter().fold((0, 0), |(b, c), s| {
        (b + s.bytes.load(Ordering::Relaxed), c + s.calls.load(Ordering::Relaxed))
    })
}
