//! Conformance integration: a live kernel run, checked end-to-end by
//! `simverify` — the trace respects every runtime invariant, the telemetry
//! counters reconcile, and the run replays identically under one seed.

use schedsim::{KernelBuilder, SharedSink};
use simcore::SimDuration;
use simverify::conformance::{self, CheckConfig};
use simverify::determinism;
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn metbench_cfg() -> MetBenchConfig {
    MetBenchConfig {
        loads: vec![0.05, 0.2, 0.05, 0.2],
        iterations: 8,
        ..Default::default()
    }
}

fn run(seed: u64) -> (Vec<schedsim::TraceRecord>, telemetry::MetricsSnapshot) {
    let mut kernel = KernelBuilder::new().seed(seed).try_build().expect("valid");
    let sink = SharedSink::new();
    kernel.observe(Box::new(sink.clone()));
    let cfg = metbench_cfg();
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
    (sink.snapshot(), kernel.metrics_registry().snapshot())
}

#[test]
fn live_kernel_run_passes_conformance() {
    let (records, snapshot) = run(2008);
    assert!(!records.is_empty());
    let report = conformance::check_with_metrics(&records, &snapshot, &CheckConfig::default());
    assert!(report.is_clean(), "live run violates invariants:\n{}", report.render());
    assert_eq!(report.records_checked, records.len());
}

#[test]
fn live_kernel_run_is_deterministic() {
    let n = determinism::check(|| run(7).0)
        .unwrap_or_else(|d| panic!("seeded kernel run diverged:\n{d}"));
    assert!(n > 0);
}

#[test]
fn corrupting_a_live_trace_is_detected() {
    // The checker must catch corruption in otherwise-real traces, not just
    // synthetic ones: clamp-break one HwPrio record and reverse one time.
    let (mut records, _) = run(2008);
    let hw = records
        .iter()
        .position(|r| matches!(r.event, schedsim::TraceEvent::HwPrio { .. }))
        .expect("imbalanced metbench moves priorities");
    records[hw].event =
        schedsim::TraceEvent::HwPrio { prio: power5::HwPriority::VERY_HIGH };
    let last = records.len() - 1;
    records[last].time = simcore::SimTime::ZERO;

    let report = conformance::check_trace(&records, &CheckConfig::default());
    let rules: Vec<_> = report.violations.iter().map(|v| v.rule).collect();
    assert!(rules.contains(&"C001-priority-bounds"), "{rules:?}");
    assert!(rules.contains(&"C002-monotonic-time"), "{rules:?}");
}
