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
//! class builds its priority FIFOs only at the first RT enqueue, the
//! kernel's class vector has room for the HPC class from the start, every
//! kernel of a node shape shares the shape's topology, and a barrier
//! generation reuses a completed one's vectors. Around the node runs, the
//! batch engine builds its node catalog once and keeps its placement
//! search's vectors across segments, borrows every job from its input
//! instead of copying it, lends out cached segment runs instead of
//! copying them, keys its node memo on an array, and refills one set of
//! per-pass lists; each trace line is encoded into one reused buffer.
//!
//! A counting global allocator counts allocations per thread, so tests
//! that run in parallel do not disturb each other. Each count is taken
//! after a first run, so that lazily built statics are not counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchsim::{
    heavy_light_mix, place_on, resume_batch, run_batch, run_batch_checkpointed, run_node,
    BatchCheckpoint, BatchConfig, CheckpointPolicy, Discipline, FleetShape, LocalSched, NodeShape,
    PlacementStrategy,
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
    // 47 as written: 48 when the kernel's class vector grew to take the
    // HPC class, 52 when every node kernel cloned its shape's topology,
    // 53 when a CPU that ran dry with nothing movable queued
    // still made its idle pull (the HPC class filled its per-CPU count
    // vector for it), 56 when each histogram was an allocation of its own
    // and the per-CPU counters a vector of handles, 58 when every barrier
    // generation allocated its own arrival and pending vectors and map
    // entry, 125 when every metric name, counter and RT priority FIFO was
    // an allocation of its own and a default topology was built and
    // dropped.
    assert!(n <= 47, "run_node made {n} allocations");
}

#[test]
fn building_and_dropping_a_node_kernel_allocates_a_bounded_few_times() {
    let shape = NodeShape::default();
    let build = || {
        KernelBuilder::new()
            .topology(std::sync::Arc::clone(&shape.topology))
            .try_build()
    };
    build().expect("valid kernel");
    let n = allocations(build);
    // 23 as written, 24 at the same point as the bound of 48 on `run_node`
    // above, 28 at the same point as its bound of 52, 31 at the same point
    // as its bound of 56, 94 at the same point as its bound of 125.
    assert!(
        n <= 23,
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
    // 10,467, 10,431 and 10,442 as written; 14,035, 14,689 and 14,500 when
    // the engine copied every job into its source queue and every tracker,
    // copied a cached segment run on every hit and into the cache, and
    // allocated a node-memo key, a load vector, placement working vectors
    // and per-pass lists for every segment and pass, and every node kernel
    // cloned its topology and grew its class vector; 14,195, 14,849 and
    // 14,660 with
    // an idle pull's count vector per node run, 14,678, 15,332 and 15,143
    // with three more allocations per node kernel (see `run_node` above);
    // 21,999, 22,653 and 22,464 when every segment rebuilt its node
    // catalog, every placement candidate and trace line allocated, and
    // every barrier generation allocated its own vectors.
    let bounds =
        [(Discipline::Fcfs, 10_467), (Discipline::Sjf, 10_431), (Discipline::Easy, 10_442)];
    for (discipline, bound) in bounds {
        let n = run(discipline);
        assert!(n <= bound, "{discipline:?}: run_batch made {n} allocations");
    }
}

/// Allocations of the checkpoint cycle perfbench's `batch` workload runs:
/// a 200-job EASY run checkpointed every 100 trace events, a decode of
/// every image, and a resume from the middle one. Returns the run with
/// its captures, the encodes, the decodes and the resume, in that order.
fn checkpoint_cycle() -> [u64; 4] {
    let jobs = heavy_light_mix(2008, 200);
    let cfg = BatchConfig { discipline: Discipline::Easy, ..BatchConfig::default() };
    let policy = CheckpointPolicy { every_events: Some(100), every_jobs: None };
    let mut encoded = Vec::with_capacity(8);
    let mut encode = 0;
    let run = allocations(|| {
        run_batch_checkpointed(&jobs, &cfg, None, &policy, |ckpt| {
            let before = ALLOCS.with(Cell::get);
            let bytes = ckpt.encode();
            encode += ALLOCS.with(Cell::get) - before;
            encoded.push(bytes);
        })
    });
    let mut images = Vec::new();
    let decode = allocations(|| {
        for bytes in &encoded {
            images.push(BatchCheckpoint::decode(bytes).expect("a captured image decodes"));
        }
    });
    let middle = &images[images.len() / 2];
    let resume = allocations(|| resume_batch(middle));
    [run - encode, encode, decode, resume]
}

#[test]
fn the_checkpoint_cycle_allocates_a_bounded_few_times() {
    checkpoint_cycle();
    let phases = checkpoint_cycle();
    // 14,389, 74, 4,287 and 6,008 (24,758) as written; 18,461, 74, 4,287
    // and 8,106 (30,928) when the engine copied jobs into its source queue
    // and trackers and a resumed run copied the image's jobs again (see
    // the 200-job run above for the rest).
    let bounds = [14_389, 74, 4_287, 6_008];
    let names = ["the run and its captures", "encoding", "decoding", "the resume"];
    for ((n, bound), name) in phases.into_iter().zip(bounds).zip(names) {
        assert!(n <= bound, "{name} made {n} allocations");
    }
    let total: u64 = phases.iter().sum();
    assert!(total <= 24_758, "the checkpoint cycle made {total} allocations");
}
