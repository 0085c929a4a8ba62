//! Exact cost-proxy gate for the kernel event loop.
//!
//! `sim.events.processed` and `kernel.ticks` count what a run means: every
//! event, replayed or popped. [`Kernel::queue_pops`] counts what it costs:
//! the events that went through the event queue's heap or timer lanes.
//! The quiet-tick fast-forward (DESIGN §5 note 7) moves only the second.
//! `sim.events.scheduled` and `sim.events.cancelled` count every arming and
//! disarming of a timer, literal or replayed, as the schedule and cancel it
//! stands for. One fixed run pins all of them by exact equality, so a
//! change that makes the replay stop earlier (or a replay that stops
//! changing nothing), or a miscounted timer re-arm, shows up here as a
//! number, not as a timing.

use schedsim::{Kernel, KernelBuilder, NoiseConfig};
use simcore::SimDuration;
use workloads::metbench::{spawn_faulted, MetBenchConfig};
use workloads::SchedulerSetup;

/// A smoke-size MetBench cell (3 iterations of the paper's 4:1 split)
/// under HPCSched's Uniform heuristic at seed 2008, run to completion.
fn smoke_metbench_uniform() -> Kernel {
    let mut k = KernelBuilder::new().noise(NoiseConfig::off()).seed(2008).policy("hpc").build();
    let cfg = MetBenchConfig { iterations: 3, ..MetBenchConfig::default() };
    let (mut all, master, _mpi) = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Hpc, None);
    all.push(master);
    k.run_until_exited(&all, SimDuration::from_secs(3_600)).expect("the cell finishes");
    k
}

#[test]
fn heap_pops_of_a_smoke_metbench_cell_are_pinned() {
    let k = smoke_metbench_uniform();
    let metrics = k.metrics_registry().snapshot();
    // The logical counts: what the run simulated, however it got there.
    assert_eq!(metrics.counter("sim.events.processed"), 31_935);
    assert_eq!(metrics.counter("kernel.ticks"), 31_896);
    // Every tick re-arms its CPU's tick, and every event re-arms each armed
    // completion timer: a re-arm is one schedule and one cancel.
    assert_eq!(metrics.counter("sim.events.scheduled"), 121_219);
    assert_eq!(metrics.counter("sim.events.cancelled"), 89_280);
    // The cost. While every quiet stretch still stopped short of the next
    // balance tick, queued work or not, this run popped 535 events off
    // the heap.
    assert_eq!(k.queue_pops(), 39);
}
