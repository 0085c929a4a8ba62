//! Negative tests: feed the conformance checker deliberately corrupted
//! traces and assert the *specific* rule that must fire — plus clean-trace
//! and determinism-harness baselines.

use power5::{CpuId, HwPriority};
use schedsim::{TaskId, TaskState, TraceEvent, TraceRecord};
use simcore::{SimDuration, SimTime};
use simverify::conformance::{check_trace, check_with_metrics, CheckConfig};
use simverify::determinism;
use telemetry::MetricsRegistry;

fn at(ns: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_nanos(ns)
}

fn rec(ns: u64, task: usize, event: TraceEvent) -> TraceRecord {
    TraceRecord { time: at(ns), task: TaskId(task), event }
}

fn prio(v: u8) -> HwPriority {
    HwPriority::new(v).expect("valid priority")
}

fn rules(records: &[TraceRecord]) -> Vec<&'static str> {
    check_trace(records, &CheckConfig::default()).violations.iter().map(|v| v.rule).collect()
}

#[test]
fn clean_trace_reports_no_violations() {
    let records = vec![
        rec(0, 0, TraceEvent::Spawn { name: "P1".into() }),
        rec(0, 0, TraceEvent::State { state: TaskState::Runnable, cpu: Some(CpuId(0)) }),
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(50, 0, TraceEvent::HwPrio { prio: HwPriority::HIGH }),
        rec(90, 0, TraceEvent::IterationEnd { index: 0, utilization: 0.5 }),
        rec(99, 0, TraceEvent::Exit),
    ];
    let report = check_trace(&records, &CheckConfig::default());
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.records_checked, 6);
}

#[test]
fn out_of_range_priority_reports_c001() {
    // 7 (single-thread mode) is a valid POWER5 priority but outside the
    // HPC class bounds [4, 6] — exactly the corruption C001 exists for.
    let records = vec![rec(10, 0, TraceEvent::HwPrio { prio: prio(7) })];
    assert_eq!(rules(&records), vec!["C001-priority-bounds"]);
    let records = vec![rec(10, 0, TraceEvent::HwPrio { prio: prio(2) })];
    assert_eq!(rules(&records), vec!["C001-priority-bounds"]);
    // Custom bounds move the window.
    let cfg = CheckConfig { min_prio: prio(2), max_prio: prio(6) };
    let records = vec![rec(10, 0, TraceEvent::HwPrio { prio: prio(2) })];
    assert!(check_trace(&records, &cfg).is_clean());
}

#[test]
fn time_regression_reports_c002() {
    let records = vec![
        rec(100, 0, TraceEvent::Spawn { name: "P1".into() }),
        rec(40, 0, TraceEvent::Exit),
    ];
    assert_eq!(rules(&records), vec!["C002-monotonic-time"]);
}

#[test]
fn double_occupancy_reports_c003() {
    // Two different tasks Running on cpu0 with no transition in between.
    let records = vec![
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(20, 1, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
    ];
    assert_eq!(rules(&records), vec!["C003-cpu-occupancy"]);

    // A Running record without a CPU is equally malformed.
    let records = vec![rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: None })];
    assert_eq!(rules(&records), vec!["C003-cpu-occupancy"]);

    // The same task re-dispatched on the same CPU is legitimate, as is a
    // successor after the previous occupant left.
    let records = vec![
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(20, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(30, 0, TraceEvent::State { state: TaskState::Sleeping, cpu: Some(CpuId(0)) }),
        rec(30, 1, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
    ];
    assert!(check_trace(&records, &CheckConfig::default()).is_clean());
}

#[test]
fn task_on_two_cpus_reports_c003() {
    let records = vec![
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(20, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(1)) }),
    ];
    assert_eq!(rules(&records), vec!["C003-cpu-occupancy"]);
}

#[test]
fn extreme_ids_are_reported_not_indexed() {
    // Ids at the top of their range, as a corrupted trace could carry:
    // the checker must report them like any other, never index by them.
    let far = usize::MAX;
    let running = |ns, task, cpu| {
        rec(ns, task, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(cpu)) })
    };
    // Task usize::MAX holds cpu0 when task 0 arrives there.
    let records = vec![running(10, far, 0), running(20, 0, 0)];
    assert_eq!(rules(&records), vec!["C003-cpu-occupancy"]);
    // Task 1 on cpu usize::MAX, then on cpu1 without leaving it.
    let records = vec![running(10, 1, far), running(20, 1, 1)];
    assert_eq!(rules(&records), vec!["C003-cpu-occupancy"]);
    // Both at once, then a clean release and re-dispatch.
    let records = vec![
        running(10, far, far),
        running(20, 0, far),
        rec(30, far, TraceEvent::Exit),
        rec(40, 0, TraceEvent::State { state: TaskState::Sleeping, cpu: Some(CpuId(far)) }),
        running(50, 0, far),
    ];
    let report = check_trace(&records, &CheckConfig::default());
    assert_eq!(report.violations.len(), 1, "{}", report.render());
    assert!(report.render().contains(&format!("cpu{far} already occupied")), "{}", report.render());
    // The switch count behind C005 keys on the same ids.
    let registry = MetricsRegistry::new();
    let report = check_with_metrics(&records, &registry.snapshot(), &CheckConfig::default());
    assert!(report.violations.iter().any(|v| v.rule == "C005-switch-accounting"));
}

#[test]
fn counter_mismatch_reports_c005() {
    let records = vec![
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(99, 0, TraceEvent::Exit),
    ];
    // Registry claims two exits; the trace shows one.
    let registry = MetricsRegistry::new();
    let exits = registry.counter("kernel.task_exits");
    exits.inc();
    exits.inc();
    // A plausible switch count is fine (>= the 1 the trace proves).
    registry.counter("kernel.context_switches").inc();
    let report =
        check_with_metrics(&records, &registry.snapshot(), &CheckConfig::default());
    let rules: Vec<_> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["C005-switch-accounting"]);
    assert!(report.violations[0].detail.contains("kernel.task_exits"));
}

#[test]
fn undercounted_switches_report_c005() {
    // Three distinct occupants of cpu0, but the counter only saw one
    // switch: the telemetry and trace views disagree.
    let registry = MetricsRegistry::new();
    registry.counter("kernel.context_switches").inc();
    let records = vec![
        rec(10, 0, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(20, 0, TraceEvent::State { state: TaskState::Runnable, cpu: Some(CpuId(0)) }),
        rec(20, 1, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
        rec(30, 1, TraceEvent::State { state: TaskState::Runnable, cpu: Some(CpuId(0)) }),
        rec(30, 2, TraceEvent::State { state: TaskState::Running, cpu: Some(CpuId(0)) }),
    ];
    let report =
        check_with_metrics(&records, &registry.snapshot(), &CheckConfig::default());
    let rules: Vec<_> = report.violations.iter().map(|v| v.rule).collect();
    assert_eq!(rules, vec!["C005-switch-accounting"]);
    assert!(report.violations[0].detail.contains("context_switches"));
}

#[test]
fn violation_rendering_names_rule_time_and_task() {
    let records = vec![rec(10, 3, TraceEvent::HwPrio { prio: prio(7) })];
    let report = check_trace(&records, &CheckConfig::default());
    let line = report.violations[0].to_string();
    assert!(line.contains("C001-priority-bounds"), "{line}");
    assert!(line.contains("10ns"), "{line}");
    assert!(line.contains("task3"), "{line}");
    assert!(report.render().contains("1 violation"));
}

// ------------------------------------------------------------ determinism

#[test]
fn determinism_harness_passes_identical_traces() {
    let trace = vec![rec(1, 0, TraceEvent::Exit)];
    let t = trace.clone();
    assert!(matches!(determinism::check(move || t.clone()), Ok(1)));
    assert!(determinism::first_divergence(&trace, &trace).is_none());
}

#[test]
fn determinism_harness_reports_first_divergence() {
    let a = vec![
        rec(1, 0, TraceEvent::Spawn { name: "P1".into() }),
        rec(5, 0, TraceEvent::Exit),
    ];
    let b = vec![
        rec(1, 0, TraceEvent::Spawn { name: "P1".into() }),
        rec(9, 0, TraceEvent::Exit),
    ];
    let d = determinism::first_divergence(&a, &b).expect("traces differ");
    assert_eq!(d.index, 1);
    assert_eq!(d.first.as_ref().map(|r| r.time), Some(at(5)));
    assert_eq!(d.second.as_ref().map(|r| r.time), Some(at(9)));
    assert!(d.to_string().contains("record 1"));
}

#[test]
fn determinism_harness_reports_length_divergence() {
    let a = vec![rec(1, 0, TraceEvent::Exit)];
    let b: Vec<TraceRecord> = Vec::new();
    let d = determinism::first_divergence(&a, &b).expect("lengths differ");
    assert_eq!(d.index, 0);
    assert!(d.first.is_some());
    assert!(d.second.is_none());
}
