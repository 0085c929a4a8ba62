//! Steady-state allocation gate for the kernel event loop.
//!
//! Once a kernel is running, its steady state is ticks, CFS timeslice
//! preemptions, context switches and completion-timer cancel/re-arms, or,
//! with one task per CPU, quiet tick rounds the kernel replays without the
//! event queue, or, for tasks that sleep on timed signals, transitions
//! that arm a signal, the signal's delivery and the wakeup. None of these
//! may allocate: the event queue keeps the timers in fixed lanes and its
//! signals in a heap that only grows to its peak, class callbacks borrow
//! the per-CPU running table, the chip memoises its speeds in a buffer it
//! reuses, the replay writes straight into the lanes, the per-pick
//! histograms tally in a buffer the kernel owns, and the kernel swaps
//! wakeups and deferred signals through lists it keeps. So the
//! allocations made inside `run_until_exited` must not grow with
//! simulated time or with the number of wakeups. A counting global
//! allocator, per thread so that parallel tests do not disturb each
//! other, checks exactly that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use power5::Topology;
use schedsim::program::{Action, FnProgram, KernelApi, ScriptedProgram};
use schedsim::{KernelBuilder, SchedPolicy, SpawnOptions, TaskId};
use simcore::{SimDuration, SimTime};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

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

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

struct Run {
    allocs: u64,
    end: SimTime,
    ticks: u64,
    context_switches: u64,
}

/// A CFS-only OpenPower 710 kernel (4 CPUs) running `tasks` CPU-bound
/// tasks of `work` units each. With eight, two per CPU, CFS keeps
/// preempting and switching between them for the whole run; with four,
/// one per CPU, every tick round is quiet.
fn run(tasks: usize, work: f64) -> Run {
    let mut k =
        KernelBuilder::new().topology(Topology::openpower_710()).without_hpc_class().build();
    let ids: Vec<TaskId> = (0..tasks)
        .map(|i| {
            k.spawn(
                format!("cpu-bound-{i}"),
                SchedPolicy::Normal,
                Box::new(ScriptedProgram::compute_once(work)),
                SpawnOptions::default(),
            )
        })
        .collect();
    let before = allocs();
    let end = k.run_until_exited(&ids, SimDuration::from_secs(1_000)).expect("tasks finish");
    let allocs = allocs() - before;
    let m = k.metrics_registry().snapshot();
    Run {
        allocs,
        end,
        ticks: m.counter("kernel.ticks"),
        context_switches: m.counter("kernel.context_switches"),
    }
}

#[test]
fn run_until_exited_allocations_do_not_grow_with_simulated_time() {
    // Simulated windows of ~10 s and ~20 s: twice the ticks, switches and
    // timer re-arms, the same allocations.
    let short = run(8, 4.0);
    let long = run(8, 8.0);
    let (s, l) = (short.end.as_secs_f64(), long.end.as_secs_f64());
    assert!((9.0..11.0).contains(&s), "short window ends at {s} s");
    assert!((19.0..21.0).contains(&l), "long window ends at {l} s");
    assert!(long.ticks > short.ticks + 30_000, "ticks {} vs {}", long.ticks, short.ticks);
    assert!(long.context_switches > short.context_switches + 500);
    assert_eq!(
        long.allocs, short.allocs,
        "steady-state kernel path allocates: {} allocations over ~10 s, {} over ~20 s",
        short.allocs, long.allocs
    );
}

#[test]
fn quiet_run_allocations_do_not_grow_with_simulated_time() {
    // One task per CPU at the shared-core speed of 0.8: ~10 s and ~20 s.
    let short = run(4, 8.0);
    let long = run(4, 16.0);
    let (s, l) = (short.end.as_secs_f64(), long.end.as_secs_f64());
    assert!((9.0..11.0).contains(&s), "short window ends at {s} s");
    assert!((19.0..21.0).contains(&l), "long window ends at {l} s");
    assert!(long.ticks > short.ticks + 30_000, "ticks {} vs {}", long.ticks, short.ticks);
    assert_eq!(long.context_switches, short.context_switches, "no task ever waits");
    assert_eq!(
        long.allocs, short.allocs,
        "quiet kernel path allocates: {} allocations over ~10 s, {} over ~20 s",
        short.allocs, long.allocs
    );
}

/// Allocations and wakeups of [`ping_pong`]'s run.
struct Wakes {
    allocs: u64,
    iterations: u64,
}

/// Eight CFS tasks on the four CPUs of an OpenPower 710, each going
/// `rounds` times through compute → arm a timed signal → block on it →
/// wake.
fn ping_pong(rounds: u32) -> Wakes {
    let mut k =
        KernelBuilder::new().topology(Topology::openpower_710()).without_hpc_class().build();
    let ids: Vec<TaskId> = (0..8u64)
        .map(|i| {
            let (mut left, mut computed) = (rounds, false);
            let sleep = SimDuration::from_micros(300 + 50 * i);
            let program = FnProgram(move |api: &mut KernelApi<'_>| {
                if left == 0 {
                    return Action::Exit;
                }
                computed = !computed;
                if computed {
                    return Action::Compute(2e-4);
                }
                left -= 1;
                let tok = api.new_token();
                api.signal_after(sleep, tok);
                Action::Block(tok)
            });
            k.spawn(
                format!("ping-pong-{i}"),
                SchedPolicy::Normal,
                Box::new(program),
                SpawnOptions::default(),
            )
        })
        .collect();
    let before = allocs();
    k.run_until_exited(&ids, SimDuration::from_secs(1_000)).expect("tasks finish");
    let allocs = allocs() - before;
    Wakes { allocs, iterations: k.metrics_registry().snapshot().counter("kernel.iterations") }
}

#[test]
fn blocking_path_allocations_do_not_grow_with_wakeups() {
    let short = ping_pong(500);
    let long = ping_pong(1_000);
    // Every round ends in one wakeup, an iteration boundary.
    assert_eq!(short.iterations, 8 * 500);
    assert_eq!(long.iterations, 8 * 1_000);
    assert_eq!(
        long.allocs, short.allocs,
        "blocking kernel path allocates: {} allocations over 4,000 wakeups, {} over 8,000",
        short.allocs, long.allocs
    );
}
