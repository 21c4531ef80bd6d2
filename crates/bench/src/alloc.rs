//! A counting global allocator for the bench crate's byte-accounting
//! scenarios (`request_storm`).
//!
//! Wraps the system allocator and keeps a running total of bytes
//! *requested* (gross allocation volume, reallocations counted by their
//! new size). The counter deliberately ignores frees: the metric of
//! interest is how much allocator traffic a code path generates, not its
//! resident footprint.
//!
//! The total is **per thread**: a probe is billed only for what its own
//! thread allocates, so sibling tests the harness runs in parallel
//! cannot leak into a measurement. Every measured scenario is a
//! single-threaded sim run, so there is no cross-thread aggregate.
//!
//! The allocator is installed crate-wide (`#[global_allocator]` in
//! `lib.rs`), so every bench binary and test linking `indiss-bench` gets
//! byte accounting for free; the per-operation cost is one
//! thread-local add.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and `Copy`: no lazy-init allocation (which
    // would re-enter the allocator) and no destructor to register.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// Bills `bytes` to the calling thread. `try_with`, not `with`: an
/// allocation during thread teardown, after TLS is gone, goes uncounted
/// instead of panicking inside the allocator.
fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|cell| cell.set(cell.get() + bytes as u64));
}

/// The counting allocator; see the module docs.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a
// thread-local counter update, which allocates nothing and cannot
// unwind.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total bytes the calling thread has requested from the allocator so
/// far (monotonic).
pub fn allocated_bytes() -> u64 {
    ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// Runs `f` and returns the bytes the calling thread allocated while it
/// ran.
pub fn allocated_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = allocated_bytes();
    let result = f();
    (result, allocated_bytes() - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_allocations() {
        let (v, bytes) = allocated_during(|| vec![0u8; 4096]);
        assert_eq!(v.len(), 4096);
        assert!(bytes >= 4096, "a 4 KiB Vec must register: {bytes}");
    }

    #[test]
    fn allocation_free_code_registers_zero() {
        let buf = [0u64; 8];
        let (sum, bytes) = allocated_during(|| buf.iter().sum::<u64>());
        assert_eq!(sum, 0);
        assert_eq!(bytes, 0, "stack-only work must not count");
    }

    /// Another thread's traffic is not billed to the probe — what keeps
    /// the byte gates exact under the parallel test harness.
    #[test]
    fn other_threads_are_not_billed_to_the_probe() {
        const SIBLING: usize = 1 << 20;
        let (len, bytes) = allocated_during(|| {
            std::thread::spawn(|| vec![0u8; SIBLING].len()).join().expect("sibling thread")
        });
        assert_eq!(len, SIBLING);
        assert!(bytes < SIBLING as u64, "only the spawn bookkeeping is ours: {bytes}");
    }
}
