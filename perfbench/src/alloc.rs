//! A counting global allocator and the peak-RSS reader.
//!
//! Counts are kept per thread, so a measurement on the calling thread
//! is exact and unaffected by other threads (the telemetry aggregator
//! in `churn-telemetry` allocates on its own thread and is not
//! counted).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // const-initialised `Cell`s register no destructor and never
    // allocate, so touching them from inside the allocator is sound;
    // `try_with` only fails during thread teardown, when nothing is
    // being measured
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only extra work is
// bumping two thread-local integers, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` via one of the methods above
        // with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` came from `System` as for `dealloc`;
        // `new_size` is the caller's, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations (including reallocations) and bytes requested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl std::ops::Sub for AllocCount {
    type Output = AllocCount;
    fn sub(self, rhs: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs - rhs.allocs,
            bytes: self.bytes - rhs.bytes,
        }
    }
}

/// The calling thread's running totals.
pub fn thread_count() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Runs `f` and returns its result with the allocations it made on
/// this thread.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let before = thread_count();
    let r = f();
    (r, thread_count() - before)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let (v, c) = counted(|| std::hint::black_box(Vec::<u8>::with_capacity(100)));
        assert_eq!(
            c,
            AllocCount {
                allocs: 1,
                bytes: 100
            }
        );
        let (_, c) = counted(|| drop(v));
        assert_eq!(c, AllocCount::default());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
