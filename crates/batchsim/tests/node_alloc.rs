//! Allocation gates for the fixed costs of a batch study: a node run, a
//! placement, and a whole 200-job run.
//!
//! A batch study runs hundreds of short node kernels, each built, run for
//! a few dozen events and dropped, so what a kernel allocates to exist is
//! a large share of what a node run costs. The counts below are exact and
//! deterministic: the kernel's metrics are named without a `format!`
//! temporary and kept in a registry that allocates nothing per metric
//! (names in one shared string, counter and histogram cells in shared
//! slabs, each component's metrics one block behind one slab reference),
//! the RT
//! class builds its priority FIFOs only at the first RT enqueue, and the
//! builder moves the node's topology into the chip instead of cloning it
//! next to a default one, and a barrier generation reuses a completed
//! one's vectors. Around the node runs, the batch engine builds its node
//! catalog once, the SMT-aware placement search reuses two vectors for
//! every candidate, and each trace line is encoded into one reused buffer.
//!
//! A counting global allocator counts allocations per thread, so tests
//! that run in parallel do not disturb each other. Each count is taken
//! after a first run, so that lazily built statics are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchsim::{
    heavy_light_mix, place_on, run_batch, run_node, BatchConfig, Discipline, FleetShape,
    LocalSched, NodeShape, PlacementStrategy,
};
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
    // 52 as written: 53 when a CPU that ran dry with nothing movable queued
    // still made its idle pull (the HPC class filled its per-CPU count
    // vector for it), 56 when each histogram was an allocation of its own
    // and the per-CPU counters a vector of handles, 58 when every barrier
    // generation allocated its own arrival and pending vectors and map
    // entry, 125 when every metric name, counter and RT priority FIFO was
    // an allocation of its own and a default topology was built and
    // dropped.
    assert!(n <= 52, "run_node made {n} allocations");
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
    // 28 as written; 31 at the same point as the bound of 56 on
    // `run_node` above, 94 at the same point as its bound of 125.
    assert!(
        n <= 28,
        "a node kernel's build and drop made {n} allocations"
    );
}

#[test]
fn registering_twice_the_counters_allocates_a_constant_more() {
    let register = |n: usize| {
        allocations(|| {
            let registry = MetricsRegistry::new();
            for i in 0..n {
                registry.counter(("node", i, ".counter"));
            }
            registry
        })
    };
    register(1);
    let (one, two) = (register(1_000), register(2_000));
    // Names, entries, the name index and the counter slabs each grow
    // geometrically: doubling the count adds about one allocation to each
    // (22 and 26 as written).
    assert!(
        two <= one + 6,
        "1,000 counters: {one} allocations, 2,000: {two}"
    );
}

/// Allocations to place every job of the 200-job study on the uniform
/// catalog, as the batch oracle places a segment.
#[test]
fn placing_the_batch_study_allocates_per_job_not_per_candidate() {
    let jobs = heavy_light_mix(2008, 200);
    let widest = jobs.iter().map(|j| j.nodes_needed()).max().unwrap();
    let catalog = FleetShape::Uniform.catalog(widest);
    let place_all = || {
        for job in &jobs {
            let nodes = &catalog[..job.nodes_needed()];
            let placed = place_on(&job.spec, nodes, PlacementStrategy::SmtAware);
            drop(placed.expect("a sized catalog fits"));
        }
    };
    place_all();
    let n = allocations(place_all);
    // 1,290 as written; 6,296 when the SMT-aware search allocated a
    // sorted and a paired copy of a node's ranks for every rank × node
    // candidate.
    assert!(n <= 1_400, "placing 200 jobs made {n} allocations");
}

/// Allocations of one 200-job `run_batch` per discipline: node kernels,
/// placement, the trace and the recording together.
#[test]
fn a_batch_study_run_allocates_a_bounded_few_times() {
    let jobs = heavy_light_mix(2008, 200);
    let run = |discipline: Discipline| {
        let cfg = BatchConfig { discipline, ..BatchConfig::default() };
        allocations(|| run_batch(&jobs, &cfg, None))
    };
    run(Discipline::Fcfs);
    // 14,035, 14,689 and 14,500 as written; 14,195, 14,849 and 14,660 with
    // an idle pull's count vector per node run, 14,678, 15,332 and 15,143
    // with three more allocations per node kernel (see `run_node` above);
    // 21,999, 22,653 and 22,464 when every segment rebuilt its node
    // catalog, every placement candidate and trace line allocated, and
    // every barrier generation allocated its own vectors.
    let bounds =
        [(Discipline::Fcfs, 14_350), (Discipline::Sjf, 15_000), (Discipline::Easy, 14_800)];
    for (discipline, bound) in bounds {
        let n = run(discipline);
        assert!(n <= bound, "{discipline:?}: run_batch made {n} allocations");
    }
}
