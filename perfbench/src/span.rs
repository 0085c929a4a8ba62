//! Benchmark spans and the counting allocator.
//!
//! A span is opened by the benchmark's own code around a call into one
//! layer (a crate's public function, or a wrapped `Balancer` / `Observer`
//! callback). Each span accumulates its call count, total wall time and the
//! part of that time spent in child spans, so a layer's self time is
//! `total - child`. The counting allocator attributes every allocation to
//! the innermost open span on the allocating thread.
//!
//! Everything is off until [`set_tracing`] turns it on: untraced runs pay
//! one relaxed atomic load per span and per allocation, nothing more.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// The layer boundaries the benchmark instruments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// Anything outside an instrumented call (and pool worker threads).
    Other,
    /// `KernelBuilder::try_build`.
    KernelBuild,
    /// `Kernel::run_until_exited`.
    KernelRun,
    /// Decision callbacks of the wrapped `Balancer`.
    Balancer,
    /// `Balancer::plan_migrations` of the wrapped balancer.
    Migrate,
    /// `Observer::on_event` of the wrapped trace sink.
    Observer,
    /// `workloads::*::spawn_faulted`.
    Spawn,
    /// `tracefmt::Timeline` + `AppStats`.
    Stats,
    /// `simverify::conformance::check_with_metrics`.
    Conformance,
    /// Generating a batch arrival stream.
    Arrivals,
    /// `batchsim::run_batch*` (engine plus inline node runs).
    Engine,
    /// `BatchOutcome::render_trace`.
    Render,
    /// `BatchCheckpoint::encode`.
    Encode,
    /// `BatchCheckpoint::decode`.
    Decode,
    /// `batchsim::resume_batch`.
    Resume,
}

const SPANS: usize = 15;

static TRACING: AtomicBool = AtomicBool::new(false);
static CALLS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];
static TOTAL_NS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];
static CHILD_NS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];
static ALLOCS: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];
static BYTES: [AtomicU64; SPANS] = [const { AtomicU64::new(0) }; SPANS];

thread_local! {
    static CURRENT: Cell<usize> = const { Cell::new(Span::Other as usize) };
}

/// Turn span timing and allocation counting on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// Zero every span's accumulators.
pub fn reset() {
    for table in [&CALLS, &TOTAL_NS, &CHILD_NS, &ALLOCS, &BYTES] {
        for cell in table {
            cell.store(0, Relaxed);
        }
    }
}

/// An open span; closing it (on drop) charges its duration to the span
/// and to its parent's child time.
struct Guard {
    open: Option<(usize, usize, Instant)>,
}

fn enter(span: Span) -> Guard {
    if !tracing() {
        return Guard { open: None };
    }
    let parent = CURRENT.with(|c| c.replace(span as usize));
    Guard {
        open: Some((span as usize, parent, Instant::now())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((span, parent, start)) = self.open {
            let ns = start.elapsed().as_nanos() as u64;
            CURRENT.with(|c| c.set(parent));
            CALLS[span].fetch_add(1, Relaxed);
            TOTAL_NS[span].fetch_add(ns, Relaxed);
            CHILD_NS[parent].fetch_add(ns, Relaxed);
        }
    }
}

/// Run `f` inside `span`.
pub fn time<T>(span: Span, f: impl FnOnce() -> T) -> T {
    let _guard = enter(span);
    f()
}

/// Accumulated figures of one span.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanStat {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
    pub allocs: u64,
    pub bytes: u64,
}

pub fn stat(span: Span) -> SpanStat {
    let i = span as usize;
    let total = TOTAL_NS[i].load(Relaxed);
    let child = CHILD_NS[i].load(Relaxed);
    SpanStat {
        calls: CALLS[i].load(Relaxed),
        total_s: total as f64 / 1e9,
        self_s: total.saturating_sub(child) as f64 / 1e9,
        allocs: ALLOCS[i].load(Relaxed),
        bytes: BYTES[i].load(Relaxed),
    }
}

fn count(bytes: usize) {
    if tracing() {
        // `try_with`: the slot may already be gone while a thread exits.
        let span = CURRENT.try_with(Cell::get).unwrap_or(Span::Other as usize);
        ALLOCS[span].fetch_add(1, Relaxed);
        BYTES[span].fetch_add(bytes as u64, Relaxed);
    }
}

/// The system allocator, counting allocations per open span while tracing
/// is on. Deallocations are not counted.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; `count` touches only
// atomics and a const-initialised, destructor-free thread local, so it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}
