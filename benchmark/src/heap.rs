//! A counting wrapper around the system allocator.
//!
//! Peak resident memory (`VmHWM`) turned out not to repeat: on
//! `direct-small` it read 5 MB to 79 MB across ten identical runs,
//! because which malloc arena a cross-thread free lands in is a race.
//! Requested bytes do repeat while the workload is set up, so the
//! benchmark's memory metric is the peak of live heap bytes during
//! set-up; the traced run counts allocations and live-heap growth per
//! op (the executor's partial-buffer pools can grow without bound,
//! see README.md). Every call is forwarded to `System` unchanged (including
//! `alloc_zeroed`, so zeroed matrices still come from `calloc`); the
//! cost is three relaxed atomic operations per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// statistics and never influence what is returned.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from a matching `alloc` on
        // this allocator, which forwarded to `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as `dealloc`, and `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Heap bytes live now.
pub fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Restarts the peak from what is live now and returns that baseline,
/// so `peak_since(baseline)` leaves out whatever was allocated before.
pub fn mark() -> usize {
    let now = live();
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// The most heap that was live since `mark` returned `baseline`,
/// beyond that baseline, in MB.
pub fn peak_since_mb(baseline: usize) -> f64 {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline) as f64 / (1 << 20) as f64
}

/// Allocations made so far (reallocations count as one).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_requested_bytes_and_calls() {
        // Other tests allocate and free concurrently, so only loose
        // lower bounds hold.
        let baseline = mark();
        let before = allocs();
        let block = std::hint::black_box(vec![0u8; 64 << 20]);
        assert!(allocs() > before);
        assert!(peak_since_mb(baseline) >= 32.0);
        drop(block);
        assert!(
            peak_since_mb(baseline) >= 32.0,
            "the peak outlives the block"
        );
    }
}
