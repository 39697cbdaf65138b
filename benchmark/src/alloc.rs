//! A counting global allocator: live and peak heap bytes always, and —
//! only while a caller asks for it — the number and size of allocation
//! calls. Everything forwards to the system allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// The allocator the benchmark binary installs.
pub struct Counting;

// Statistics only: no other data is published through these, so every
// access is `Relaxed`.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static COUNT_CALLS: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static CALL_BYTES: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    // The plain load keeps the common case (no new peak) to one locked
    // instruction per allocation.
    if live > PEAK.load(Relaxed) {
        PEAK.fetch_max(live, Relaxed);
    }
    if COUNT_CALLS.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        CALL_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, which got it
        // from `System` with the same layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's,
        // passed through unchanged.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

/// Heap bytes currently allocated.
pub fn live() -> usize {
    LIVE.load(Relaxed)
}

/// Highest [`live`] since the last [`reset_peak`].
pub fn peak() -> usize {
    PEAK.load(Relaxed)
}

/// Restarts peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Allocation calls and the bytes they asked for while `work` ran
/// (reallocations count as one call of the new size).
pub fn count_calls<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let (calls, bytes) = (CALLS.load(Relaxed), CALL_BYTES.load(Relaxed));
    COUNT_CALLS.store(true, Relaxed);
    let out = work();
    COUNT_CALLS.store(false, Relaxed);
    (
        out,
        CALLS.load(Relaxed) - calls,
        CALL_BYTES.load(Relaxed) - bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate, and restart peak tracking, on other threads
    // while these run, so the checks are inequalities with half a block
    // of slack on this thread's own large block.
    const BLOCK: usize = 8 << 20;

    #[test]
    fn peak_follows_a_large_block_and_resets() {
        let block = vec![1u8; BLOCK];
        assert!(live() >= BLOCK, "the block is live");
        let with_block = peak();
        assert!(with_block >= BLOCK, "the peak saw the block");
        drop(block);
        assert!(live() + BLOCK / 2 <= with_block, "the block is gone");
        reset_peak();
        assert!(peak() + BLOCK / 2 <= with_block, "reset forgot the block");
    }

    #[test]
    fn calls_are_counted_only_on_request() {
        let (_, calls, bytes) = count_calls(|| {
            let v: Vec<Vec<u8>> = (0..100).map(|_| vec![0u8; 1000]).collect();
            std::hint::black_box(&v);
        });
        assert!(calls >= 101, "100 inner vectors and the outer: {calls}");
        assert!(bytes >= 100_000, "{bytes}");
    }
}
