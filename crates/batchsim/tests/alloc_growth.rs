//! Allocation-growth gate for fleet runs.
//!
//! A fleet run streams its jobs and folds every finished one into scalar
//! sums, counts and maxima (`FleetAccum`), so its peak heap must not grow
//! with the job count: only the engine's bounded working set (pending
//! queue, release index, oracle cache) is live at any time. One per-job
//! push into a growing container would add about 8 bytes a job, some
//! 280 KB between the two sizes below; the bound allows a few KiB of
//! noise from queue and cache capacities that differ between streams.
//!
//! A counting global allocator tracks live bytes per thread; the fleet
//! runs serially, so every allocation it makes lands on the test's
//! thread. The allocator is global, so this file holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchsim::{run_fleet, scaled_config};

struct CountingAlloc;

thread_local! {
    /// Bytes allocated and not yet freed by this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The largest `LIVE` seen since `peak_above_baseline` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn track(delta: i64) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only thread-locals
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Peak live bytes above the pre-run baseline over one fleet run of
/// `jobs` jobs on 1000 nodes at seed 2008.
fn peak_above_baseline(jobs: u64) -> i64 {
    let cfg = scaled_config(jobs, 1000, 2008);
    let baseline = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(baseline));
    let out = run_fleet(&cfg);
    assert_eq!(out.accum.jobs, jobs);
    PEAK.with(Cell::get) - baseline
}

/// Largest allowed difference in peak heap between the two run sizes.
const BOUND_BYTES: i64 = 16 * 1024;

#[test]
fn fleet_peak_heap_does_not_grow_with_job_count() {
    let small = peak_above_baseline(5_000);
    let large = peak_above_baseline(40_000);
    println!("fleet peak heap above baseline: {small} B at 5k jobs, {large} B at 40k jobs");
    assert!(
        (large - small).abs() <= BOUND_BYTES,
        "fleet peak heap grew from {small} B at 5k jobs to {large} B at 40k jobs \
         (bound {BOUND_BYTES} B): something accumulates per job"
    );
}
