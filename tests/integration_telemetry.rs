//! Telemetry integration: the kernel's metric counters must reconcile with
//! the trace a [`SharedSink`] observer collects from the same run — the two
//! are independent views of the same hot-path events.

use power5::CpuId;
use schedsim::{
    FaultEvent, Kernel, KernelBuilder, KernelEvent, MetricEvent, Observer, SharedSink, TaskId,
    TaskState, TraceEvent, TraceRecord,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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
    let (workers, master) = metbench::spawn(&mut kernel, &cfg, &SchedulerSetup::Hpc);
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
    let (workers, master) = metbench::spawn(&mut kernel, &cfg, &SchedulerSetup::Hpc);
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
        let (workers, master) = metbench::spawn(&mut kernel, &cfg, &SchedulerSetup::Hpc);
        let mut all = workers.clone();
        all.push(master);
        kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
        kernel.metrics_registry().snapshot()
    };
    let (a, b) = (run(), run());
    // Wall-clock histograms (pick latency) legitimately differ; every
    // sim-derived counter must not.
    for name in [
        "kernel.context_switches",
        "kernel.ticks",
        "kernel.hw_prio_transitions",
        "kernel.iterations",
        "kernel.task_exits",
        "sim.events.scheduled",
        "sim.events.cancelled",
        "sim.events.processed",
        "hpc.decisions.uniform.accepted",
        "hpc.decisions.uniform.rejected",
        "hpc.detector.balanced",
        "hpc.detector.imbalanced",
    ] {
        assert_eq!(a.counter(name), b.counter(name), "{name} differs across identical runs");
    }
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
    let (workers, master) = metbench::spawn(&mut kernel, &cfg, &SchedulerSetup::Hpc);
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

/// Keeps the trace half of the stream, asks for no metric events and
/// panics if one arrives anyway.
struct TraceOnly(Arc<Mutex<Vec<TraceRecord>>>);

impl Observer for TraceOnly {
    fn on_event(&mut self, event: &KernelEvent) {
        match event {
            // INVARIANT: the lock is only held for this push and the final
            // read, neither of which panics, so it is never poisoned.
            KernelEvent::Trace(rec) => self.0.lock().expect("trace lock").push(rec.clone()),
            KernelEvent::Metric { event, .. } => panic!("trace-only observer got {event:?}"),
        }
    }

    fn wants_metrics(&self) -> bool {
        false
    }
}

/// Counts the `Tick` metric events it sees.
struct TickCounter(Arc<AtomicU64>);

impl Observer for TickCounter {
    fn on_event(&mut self, event: &KernelEvent) {
        if let KernelEvent::Metric { event: MetricEvent::Tick { .. }, .. } = event {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A MetBench run observed by a [`TraceOnly`] observer, and also by a
/// [`TickCounter`] when `ticks` is given; returns the trace and the
/// kernel's tick counter.
fn trace_only_run(ticks: Option<Arc<AtomicU64>>) -> (Vec<TraceRecord>, u64) {
    let mut kernel = KernelBuilder::new().seed(11).try_build().expect("valid");
    let trace = Arc::new(Mutex::new(Vec::new()));
    kernel.observe(Box::new(TraceOnly(trace.clone())));
    if let Some(ticks) = ticks {
        kernel.observe(Box::new(TickCounter(ticks)));
    }
    let (workers, master) = metbench::spawn(&mut kernel, &metbench_cfg(), &SchedulerSetup::Hpc);
    let mut all = workers;
    all.push(master);
    kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
    let ticks = kernel.metrics_registry().snapshot().counter("kernel.ticks");
    // INVARIANT: see `TraceOnly::on_event`.
    let records = std::mem::take(&mut *trace.lock().expect("trace lock"));
    (records, ticks)
}

#[test]
fn trace_only_observers_get_no_metric_events() {
    let (alone, alone_ticks) = trace_only_run(None);
    let seen = Arc::new(AtomicU64::new(0));
    let (beside, beside_ticks) = trace_only_run(Some(seen.clone()));
    assert!(!alone.is_empty());
    assert_eq!(format!("{alone:?}"), format!("{beside:?}"), "the trace ignores other observers");
    assert_eq!(alone_ticks, beside_ticks);
    // Replayed quiet rounds deliver every tick to an observer that wants
    // metric events.
    assert_eq!(seen.load(Ordering::Relaxed), beside_ticks);
    assert!(beside_ticks > 1_000, "a MetBench run spans many tick rounds: {beside_ticks}");
}
