//! Telemetry integration: the kernel's metric counters must reconcile with
//! the trace a [`SharedSink`] observer collects from the same run — the two
//! are independent views of the same hot-path events.

use power5::CpuId;
use schedsim::{FaultEvent, Kernel, KernelBuilder, SharedSink, TaskId, TaskState, TraceEvent};
use simcore::{SimDuration, SimTime};
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn metbench_cfg() -> MetBenchConfig {
    MetBenchConfig {
        loads: vec![0.05, 0.2, 0.05, 0.2],
        iterations: 8,
        ..Default::default()
    }
}

#[test]
fn counters_reconcile_with_trace_records() {
    let mut kernel = KernelBuilder::new().try_build().expect("paper defaults are valid");
    let sink = SharedSink::new();
    kernel.observe(Box::new(sink.clone()));

    let cfg = metbench_cfg();
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");

    let records = sink.snapshot();
    let count = |pred: &dyn Fn(&TraceEvent) -> bool| -> u64 {
        records.iter().filter(|r| pred(&r.event)).count() as u64
    };
    let hw_prio = count(&|e| matches!(e, TraceEvent::HwPrio { .. }));
    let iterations = count(&|e| matches!(e, TraceEvent::IterationEnd { .. }));
    let exits = count(&|e| matches!(e, TraceEvent::Exit));

    let snapshot = kernel.metrics_registry().snapshot();
    assert!(hw_prio > 0, "an imbalanced MetBench run must move priorities");
    assert_eq!(snapshot.counter("kernel.hw_prio_transitions"), hw_prio);
    assert_eq!(snapshot.counter("kernel.iterations"), iterations);
    assert_eq!(snapshot.counter("kernel.task_exits"), exits);
    assert_eq!(exits, all.len() as u64, "every task exits exactly once");

    // Per-CPU rollup agrees with the kernel-wide count.
    assert_eq!(snapshot.counter_family("cpu"), hw_prio);

    // The purely metric-side counters are live too.
    assert!(snapshot.counter("kernel.context_switches") > 0);
    assert!(snapshot.counter("kernel.ticks") > 0);
    assert!(snapshot.counter("sim.events.processed") > 0);
    assert!(snapshot.counter("hpc.decisions.uniform.accepted") > 0);
}

#[test]
fn counters_count_even_without_observers() {
    // Trace-derived counters are bumped at the emission point whether or
    // not anyone is listening.
    let mut kernel = KernelBuilder::new().try_build().expect("valid");
    let cfg = metbench_cfg();
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");

    let snapshot = kernel.metrics_registry().snapshot();
    assert_eq!(snapshot.counter("kernel.task_exits"), all.len() as u64);
    assert!(snapshot.counter("kernel.hw_prio_transitions") > 0);
    assert!(snapshot.counter("kernel.iterations") > 0);
}

#[test]
fn telemetry_snapshot_is_deterministic_across_runs() {
    let run = || {
        let mut kernel =
            KernelBuilder::new().seed(7).try_build().expect("valid");
        let cfg = metbench_cfg();
        let (workers, master, _) =
            metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
        let mut all = workers.clone();
        all.push(master);
        kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
        kernel.metrics_registry().snapshot()
    };
    let (a, b) = (run(), run());
    assert!(a.counter("hpc.decisions.uniform.accepted") > 0);
    assert_eq!(a, b, "identical runs must give identical snapshots");
}

/// The hot counters the kernel and its event queue tally between publishes.
const HOT: [&str; 5] = [
    "sim.events.scheduled",
    "sim.events.cancelled",
    "sim.events.processed",
    "kernel.ticks",
    "kernel.context_switches",
];

fn hot(kernel: &Kernel) -> [u64; 5] {
    let snapshot = kernel.metrics_registry().snapshot();
    HOT.map(|name| snapshot.counter(name))
}

/// A small MetBench run with a steal burst and a straggler injected; the
/// pins after each public call were read from the registry before the hot
/// counters became publish-on-return tallies.
fn golden_kernel() -> (Kernel, Vec<TaskId>) {
    let mut kernel = KernelBuilder::new().seed(7).try_build().expect("valid");
    assert_eq!(hot(&kernel), GOLDEN_BUILT, "after build");
    let cfg =
        MetBenchConfig { loads: vec![0.01, 0.03, 0.01, 0.03], iterations: 4, ..Default::default() };
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    assert_eq!(hot(&kernel), GOLDEN_SPAWNED, "after spawn");
    kernel.inject_fault(
        SimTime::ZERO + SimDuration::from_millis(15),
        FaultEvent::StealBurst { cpu: CpuId(0), duration: SimDuration::from_millis(3) },
    );
    kernel.inject_fault(
        SimTime::ZERO + SimDuration::from_millis(25),
        FaultEvent::SlowTask { task: workers[1], factor: 0.5 },
    );
    assert_eq!(hot(&kernel), GOLDEN_FAULTED, "after inject_fault");
    let mut all = workers;
    all.push(master);
    (kernel, all)
}

// [scheduled, cancelled, processed, ticks, context switches], in `HOT` order.
const GOLDEN_BUILT: [u64; 5] = [4, 0, 0, 0, 0];
const GOLDEN_SPAWNED: [u64; 5] = [6, 0, 0, 0, 5];
const GOLDEN_FAULTED: [u64; 5] = [8, 0, 0, 0, 5];
const GOLDEN_EXITED: [u64; 5] = [3373, 2312, 1057, 1008, 29];
const GOLDEN_RUN_FOR: [u64; 5] = [588, 413, 170, 157, 9];

#[test]
fn hot_counters_are_published_by_every_public_method() {
    // run_until_exited
    let (mut kernel, all) = golden_kernel();
    kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
    assert_eq!(hot(&kernel), GOLDEN_EXITED, "after run_until_exited");

    // The same run driven one step() at a time.
    let (mut kernel, all) = golden_kernel();
    while !all.iter().all(|&t| kernel.task(t).state == TaskState::Exited) {
        assert!(kernel.step(), "events remain until every task exits");
    }
    assert_eq!(hot(&kernel), GOLDEN_EXITED, "after a step() loop");

    // A fixed span.
    let (mut kernel, _) = golden_kernel();
    kernel.run_for(SimDuration::from_millis(40));
    assert_eq!(hot(&kernel), GOLDEN_RUN_FOR, "after run_for");
}

/// The kernel registers its own metrics only when they are first read,
/// publishing what it counted until then. However late that first read
/// comes, after any public call, the snapshot is the one a kernel read
/// from its build on gives at the same point, and so is every later one.
#[test]
fn a_first_read_after_any_public_call_gives_the_same_snapshot() {
    type Call = fn(&mut Kernel, &[TaskId]);
    let calls: [(&str, Call); 4] = [
        ("inject_fault", |k, ids| {
            k.inject_fault(
                SimTime::ZERO + SimDuration::from_millis(15),
                FaultEvent::StealBurst { cpu: CpuId(0), duration: SimDuration::from_millis(3) },
            );
            k.inject_fault(
                SimTime::ZERO + SimDuration::from_millis(25),
                FaultEvent::SlowTask { task: ids[1], factor: 0.5 },
            );
        }),
        ("step", |k, _| {
            for _ in 0..40 {
                k.step();
            }
        }),
        ("run_for", |k, _| k.run_for(SimDuration::from_millis(30))),
        ("run_until_exited", |k, ids| {
            k.run_until_exited(ids, SimDuration::from_secs(600)).expect("finishes");
        }),
    ];
    // Cut 0 reads right after the spawn; cut `c` after the `c`th call.
    for cut in 0..=calls.len() {
        let kernel = |read_at_build: bool| {
            let mut k = KernelBuilder::new().seed(7).try_build().expect("valid");
            if read_at_build {
                k.metrics_registry();
            }
            let cfg = MetBenchConfig {
                loads: vec![0.01, 0.03, 0.01, 0.03],
                iterations: 4,
                ..Default::default()
            };
            let (mut ids, master, _) =
                metbench::spawn_faulted(&mut k, &cfg, &SchedulerSetup::Hpc, None);
            ids.push(master);
            (k, ids)
        };
        let (mut early, ids) = kernel(true);
        let (mut late, _) = kernel(false);
        for (i, (name, call)) in calls.iter().enumerate() {
            if i == cut {
                let read = late.metrics_registry().snapshot();
                assert_eq!(read, early.metrics_registry().snapshot(), "first read before {name}");
            }
            call(&mut early, &ids);
            call(&mut late, &ids);
            if i >= cut {
                let (a, b) = (early.metrics_registry().snapshot(), late.metrics_registry().snapshot());
                assert_eq!(b, a, "after {name}, first read at cut {cut}");
            }
        }
        let last = late.metrics_registry().snapshot();
        assert_eq!(last, early.metrics_registry().snapshot(), "at the end, cut {cut}");
        assert!(last.counter("kernel.iterations") > 0 && last.counter("kernel.faults.slowdowns") == 1);
    }
}
