//! Allocation gate for the fixed cost of a node run.
//!
//! A batch study runs hundreds of short node kernels, each built, run for
//! a few dozen events and dropped, so what a kernel allocates to exist is
//! a large share of what a node run costs. The counts below are exact and
//! deterministic: the kernel's metrics are named without a `format!`
//! temporary and kept in a registry that allocates nothing per metric
//! (names in one shared string, counter cells in shared slabs), the RT
//! class builds its priority FIFOs only at the first RT enqueue, and the
//! builder moves the node's topology into the chip instead of cloning it
//! next to a default one.
//!
//! A counting global allocator counts allocations per thread, so tests
//! that run in parallel do not disturb each other. Each count is taken
//! after a first run, so that lazily built statics are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchsim::{run_node, LocalSched, NodeShape};
use schedsim::KernelBuilder;
use telemetry::MetricsRegistry;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the tally touches only a thread-local
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (including reallocations) `f` makes on this thread.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    drop(f());
    ALLOCS.with(Cell::get) - before
}

#[test]
fn a_short_node_run_allocates_a_bounded_few_times() {
    let shape = NodeShape::default();
    let node = || run_node(&[0.02, 0.03], 2, LocalSched::Hpc, &shape, false).expect("valid node");
    node();
    let n = allocations(node);
    // 57 as written; 125 when every metric name, counter and RT priority
    // FIFO was an allocation of its own and a default topology was built
    // and dropped.
    assert!(n <= 75, "run_node made {n} allocations");
}

#[test]
fn building_and_dropping_a_node_kernel_allocates_a_bounded_few_times() {
    let shape = NodeShape::default();
    let build = || {
        KernelBuilder::new()
            .topology(shape.topology.clone())
            .try_build()
    };
    build().expect("valid kernel");
    let n = allocations(build);
    // 30 as written; 94 at the same point as the bound on `run_node`
    // above.
    assert!(
        n <= 45,
        "a node kernel's build and drop made {n} allocations"
    );
}

#[test]
fn registering_twice_the_counters_allocates_a_constant_more() {
    let register = |n: usize| {
        allocations(|| {
            let registry = MetricsRegistry::new();
            for i in 0..n {
                registry.counter(format_args!("node{i}.counter"));
            }
            registry
        })
    };
    register(1);
    let (one, two) = (register(1_000), register(2_000));
    // Names, entries, the name index and the counter slabs each grow
    // geometrically: doubling the count adds about one allocation to each
    // (24 and 27 as written).
    assert!(
        two <= one + 6,
        "1,000 counters: {one} allocations, 2,000: {two}"
    );
}
