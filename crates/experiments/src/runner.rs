//! The experiment runner: workload × scheduler-mode → paper-style results.
//!
//! One run body, [`try_run`], serves every cell: plain or under a fault
//! plan, on the default or an explicit scheduling-domain tree. [`run`] is
//! its panicking shorthand for stock cells, and [`run_modes`] runs several
//! modes of one workload concurrently.

use faultsim::{FaultError, FaultPlan, FaultSummary};
use schedsim::{
    Kernel, KernelBuilder, NoiseConfig, SchedError, SharedSink, TaskId, TraceEvent, TraceRecord,
};
use simverify::conformance;
use simcore::SimDuration;
use telemetry::{MetricsSnapshot, TimeSeries};
use tracefmt::{AppStats, Timeline};
use workloads::btmz::BtMzConfig;
use workloads::metbench::MetBenchConfig;
use workloads::metbenchvar::MetBenchVarConfig;
use workloads::siesta::SiestaConfig;
use workloads::SchedulerSetup;

/// Which application to run.
#[derive(Clone, Debug)]
pub enum WorkloadKind {
    MetBench(MetBenchConfig),
    MetBenchVar(MetBenchVarConfig),
    BtMz(BtMzConfig),
    Siesta(SiestaConfig),
}

impl WorkloadKind {
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::MetBench(_) => "MetBench",
            WorkloadKind::MetBenchVar(_) => "MetBenchVar",
            WorkloadKind::BtMz(_) => "BT-MZ",
            WorkloadKind::Siesta(_) => "SIESTA",
        }
    }

    /// OS noise active during the run. SIESTA is evaluated on a "live"
    /// node (its result depends on competing daemons, §V-D); the
    /// microbenchmarks run on a quiet one.
    pub fn noise(&self) -> NoiseConfig {
        match self {
            WorkloadKind::Siesta(_) => NoiseConfig::light(),
            _ => NoiseConfig::off(),
        }
    }

    fn static_priorities(&self) -> Vec<power5::HwPriority> {
        match self {
            WorkloadKind::MetBench(c) => c.static_priorities(),
            WorkloadKind::MetBenchVar(c) => c.base.static_priorities(),
            WorkloadKind::BtMz(c) => c.static_priorities(),
            // The paper has no static run for SIESTA (its §V-D tables list
            // baseline/Uniform/Adaptive only); default priorities.
            WorkloadKind::Siesta(c) => vec![power5::HwPriority::MEDIUM; c.ranks()],
        }
    }
}

/// The paper's experiment axes: the scheduler under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExperimentMode {
    /// Stock kernel + CFS (the "Baseline 2.6.24" rows).
    Baseline,
    /// Stock kernel + hand-tuned fixed hardware priorities.
    Static,
    /// HPCSched with the Uniform heuristic.
    Uniform,
    /// HPCSched with the Adaptive heuristic.
    Adaptive,
    /// HPCSched with this reproduction's Hybrid heuristic (the paper's
    /// future-work item; not part of the paper's own evaluation).
    Hybrid,
    /// HPCSched driven by a named [`schedsim::policies::registry`] policy
    /// (the `--policy <name>` CLI axis). The named modes above are
    /// shorthands for the paper's own cells; this variant reaches the rest
    /// of the zoo.
    Policy(&'static str),
}

impl ExperimentMode {
    pub fn label(&self) -> &'static str {
        match self {
            ExperimentMode::Baseline => "Baseline",
            ExperimentMode::Static => "Static",
            ExperimentMode::Uniform => "Uniform",
            ExperimentMode::Adaptive => "Adaptive",
            ExperimentMode::Hybrid => "Hybrid",
            ExperimentMode::Policy(p) => p,
        }
    }

    /// The registry policy backing this mode, or `None` for modes that run
    /// without the HPC class (Baseline, Static).
    pub fn policy_name(&self) -> Option<&'static str> {
        match self {
            ExperimentMode::Baseline | ExperimentMode::Static => None,
            ExperimentMode::Uniform => Some("hpc"),
            ExperimentMode::Adaptive => Some("hpc-adaptive"),
            ExperimentMode::Hybrid => Some("hpc-hybrid"),
            ExperimentMode::Policy(p) => Some(p),
        }
    }

    pub const ALL: [ExperimentMode; 4] = [
        ExperimentMode::Baseline,
        ExperimentMode::Static,
        ExperimentMode::Uniform,
        ExperimentMode::Adaptive,
    ];
}

/// Everything a table or figure needs from one run.
pub struct RunResult {
    pub workload: &'static str,
    pub mode: ExperimentMode,
    /// Application execution time (seconds).
    pub exec_secs: f64,
    /// Per-rank statistics (paper's %Comp / Priority columns).
    pub stats: AppStats,
    /// Trace for figure rendering (application tasks only).
    pub timeline: Timeline,
    /// Application task ids, P1..Pn (without the MetBench master).
    pub ranks: Vec<TaskId>,
    /// Mean scheduler wakeup latency across ranks (microseconds).
    pub mean_latency_us: f64,
    /// Hardware-priority writes issued during the run.
    pub priority_writes: u64,
    /// End-of-run snapshot of every kernel metric (counters, histograms).
    pub metrics: MetricsSnapshot,
    /// Per-rank iteration utilization over simulated time (percent),
    /// derived from the trace for CSV export.
    pub utilization_series: TimeSeries,
    /// The full trace of the run (all tasks), for conformance checking and
    /// determinism comparisons.
    pub records: Vec<TraceRecord>,
    /// Invariant-conformance verdict over `records` + `metrics`
    /// (`simverify`, DESIGN.md §8); computed on every run, printed only
    /// under `--verify`.
    pub conformance: conformance::Report,
    /// Fault accounting, present only for fault-injected runs
    /// ([`try_run`] with a plan). `summary.aborted` carries the typed
    /// terminal fault when the run did not complete normally.
    pub fault: Option<FaultSummary>,
}

fn build_kernel(
    wl: &WorkloadKind,
    mode: ExperimentMode,
    seed: u64,
    topo: Option<&power5::Topology>,
) -> Result<Kernel, SchedError> {
    // Registry-driven: every mode is either "no HPC class" or a named
    // policy; no per-mode configuration blocks. `topo` is the `--topology`
    // axis: `None` leaves the builder on the default OpenPower 710 tree.
    let mut b = KernelBuilder::new().noise(wl.noise()).seed(seed);
    if let Some(t) = topo {
        b = b.topology(t.clone());
    }
    match mode.policy_name() {
        None => b.without_hpc_class().try_build(),
        Some(name) => b.policy(name).try_build(),
    }
}

fn setup_for(wl: &WorkloadKind, mode: ExperimentMode) -> SchedulerSetup {
    match mode {
        ExperimentMode::Baseline => SchedulerSetup::Baseline,
        ExperimentMode::Static => SchedulerSetup::Static(wl.static_priorities()),
        _ => SchedulerSetup::Hpc,
    }
}

/// Run one experiment cell: `wl` under `mode` at `seed`, optionally under
/// a [`FaultPlan`] (`faults`) and on an explicit scheduling-domain tree
/// (`topo`, the `--topology` axis; `None` is the default OpenPower 710).
///
/// Without a plan, `fault` is `None` and a run that misses the generous
/// simulation deadline is a bug and panics. With one, faults never panic
/// the runner: a `FailStop` crash or a blown deadline yields a *partial*
/// [`RunResult`] — the trace and statistics collected up to the fault —
/// with the typed [`FaultError`] recorded in `fault.summary.aborted`. An
/// empty plan injects nothing, so its trace is byte-identical to the
/// plan-less run.
///
/// # Errors
/// [`SchedError`] when the kernel configuration for this cell is invalid
/// (see [`KernelBuilder::try_build`]), including an unregistered
/// [`ExperimentMode::Policy`] name.
pub fn try_run(
    wl: &WorkloadKind,
    mode: ExperimentMode,
    seed: u64,
    faults: Option<&FaultPlan>,
    topo: Option<&power5::Topology>,
) -> Result<RunResult, SchedError> {
    let mut kernel = build_kernel(wl, mode, seed, topo)?;
    let sink = SharedSink::new();
    kernel.observe(Box::new(sink.clone()));
    let setup = setup_for(wl, mode);
    let mpi_faults = faults.and_then(FaultPlan::mpi_faults);
    let mpi_faults = mpi_faults.as_ref();

    let (ranks, all, mpi) = match wl {
        WorkloadKind::MetBench(cfg) => {
            let (workers, master, mpi) =
                workloads::metbench::spawn_faulted(&mut kernel, cfg, &setup, mpi_faults);
            let mut all = workers.clone();
            all.push(master);
            (workers, all, mpi)
        }
        WorkloadKind::MetBenchVar(cfg) => {
            let (workers, master, mpi) =
                workloads::metbenchvar::spawn_faulted(&mut kernel, cfg, &setup, mpi_faults);
            let mut all = workers.clone();
            all.push(master);
            (workers, all, mpi)
        }
        WorkloadKind::BtMz(cfg) => {
            let (ranks, mpi) = workloads::btmz::spawn_faulted(&mut kernel, cfg, &setup, mpi_faults);
            (ranks.clone(), ranks, mpi)
        }
        WorkloadKind::Siesta(cfg) => {
            let (ranks, mpi) =
                workloads::siesta::spawn_faulted(&mut kernel, cfg, &setup, mpi_faults);
            (ranks.clone(), ranks, mpi)
        }
    };

    if let Some(plan) = faults {
        for (at, event) in plan.kernel_events(&ranks) {
            kernel.inject_fault(at, event);
        }
    }

    let deadline = SimDuration::from_secs(3_600);
    let end = kernel.run_until_exited(&all, deadline);
    if faults.is_none() {
        let end = end.unwrap_or_else(|| panic!("{} {:?} did not finish", wl.name(), mode));
        return Ok(finish_run(wl, mode, &kernel, &sink, ranks, end.as_secs_f64()));
    }

    let exec_secs = end.unwrap_or(simcore::SimTime::ZERO + deadline).as_secs_f64();
    let mut result = finish_run(wl, mode, &kernel, &sink, ranks, exec_secs);
    let mpi_stats = mpi.fault_stats();
    result.fault = Some(FaultSummary {
        steal_bursts_injected: result.metrics.counter("kernel.faults.steal_bursts"),
        slowdowns_injected: result.metrics.counter("kernel.faults.slowdowns"),
        mpi_delays_injected: mpi_stats.delays_injected,
        restarts_absorbed: mpi_stats.restarts,
        degraded_samples: result.metrics.counter("hpc.detector.degraded"),
        aborted: match (end, mpi_stats.aborted_by) {
            // A fail-stop abort also ends the run early; report the abort,
            // not the (consequent) missed deadline.
            (_, Some((rank, iteration))) => Some(FaultError::RankFailStop { rank, iteration }),
            (None, None) => Some(FaultError::Deadline { secs: deadline.as_secs_f64() as u64 }),
            (Some(_), None) => None,
        },
    });
    Ok(result)
}

/// Assemble a [`RunResult`] (with `fault: None`) from a finished kernel.
fn finish_run(
    wl: &WorkloadKind,
    mode: ExperimentMode,
    kernel: &Kernel,
    sink: &SharedSink,
    ranks: Vec<TaskId>,
    exec_secs: f64,
) -> RunResult {
    let records = sink.snapshot();
    let timeline = Timeline::from_records(&records).filter_tasks(&ranks);
    let stats = AppStats::for_tasks(&timeline, &ranks);

    // Per-rank utilization over time, one CSV row per completed iteration.
    let mut utilization_series = TimeSeries::default();
    for rec in &records {
        if let TraceEvent::IterationEnd { utilization, .. } = rec.event {
            if let Some(rank) = ranks.iter().position(|&r| r == rec.task) {
                utilization_series.push(
                    rec.time.as_nanos(),
                    vec![(format!("P{}.util_pct", rank + 1), utilization * 100.0)],
                );
            }
        }
    }

    let mean_latency_us = {
        let (sum, n) = ranks.iter().fold((0.0, 0u64), |(s, n), &r| {
            let t = kernel.task(r);
            (s + t.latency_total.as_nanos() as f64 / 1e3, n + t.latency_samples)
        });
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };

    let metrics = kernel.metrics_registry().snapshot();
    let conformance =
        conformance::check_with_metrics(&records, &metrics, &conformance::CheckConfig::default());

    RunResult {
        workload: wl.name(),
        mode,
        exec_secs,
        stats,
        timeline,
        ranks,
        mean_latency_us,
        priority_writes: kernel.chip().priority_writes(),
        metrics,
        utilization_series,
        records,
        conformance,
        fault: None,
    }
}

/// [`try_run`] of a stock cell — default topology, no faults — which is
/// valid by construction; panics on an invalid configuration.
pub fn run(wl: &WorkloadKind, mode: ExperimentMode, seed: u64) -> RunResult {
    try_run(wl, mode, seed, None, None).unwrap_or_else(|e| panic!("{} {mode:?}: {e}", wl.name()))
}

/// Run several modes concurrently (each run is independent and
/// deterministic), each as [`try_run`] with the same `faults` and `topo`;
/// results return in input order. Panics on an invalid configuration.
pub fn run_modes(
    wl: &WorkloadKind,
    modes: &[ExperimentMode],
    seed: u64,
    faults: Option<&FaultPlan>,
    topo: Option<&power5::Topology>,
) -> Vec<RunResult> {
    std::thread::scope(|s| {
        let handles: Vec<_> = modes
            .iter()
            .map(|&m| {
                s.spawn(move || {
                    try_run(wl, m, seed, faults, topo)
                        .unwrap_or_else(|e| panic!("{} {m:?}: {e}", wl.name()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("experiment thread")).collect()
    })
}

/// Render a paper-style comparison table across modes.
pub fn comparison_table(results: &[RunResult]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let baseline = results
        .iter()
        .find(|r| r.mode == ExperimentMode::Baseline)
        .map(|r| r.exec_secs);
    let _ = writeln!(out, "Test       Proc   %Comp    Prio   Exec. Time   Improvement");
    for r in results {
        for (i, row) in r.stats.tasks.iter().enumerate() {
            let prio = row.final_prio.map(|p| p.to_string()).unwrap_or_else(|| "-".into());
            let (exec, imp) = if i == 0 {
                let imp = baseline
                    .map(|b| format!("{:+.1}%", 100.0 * (b - r.exec_secs) / b))
                    .unwrap_or_default();
                (format!("{:.2}s", r.exec_secs), imp)
            } else {
                (String::new(), String::new())
            };
            let _ = writeln!(
                out,
                "{:<10} {:<6} {:>6.2}  {:>5}   {:>10}   {:>10}",
                if i == 0 { r.mode.label() } else { "" },
                format!("P{}", i + 1),
                row.comp_percent,
                prio,
                exec,
                imp
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_metbench() -> WorkloadKind {
        WorkloadKind::MetBench(MetBenchConfig {
            loads: vec![0.02, 0.08, 0.02, 0.08],
            iterations: 4,
            ..Default::default()
        })
    }

    #[test]
    fn runner_produces_consistent_result() {
        let r = run(&tiny_metbench(), ExperimentMode::Uniform, 1);
        assert_eq!(r.workload, "MetBench");
        assert_eq!(r.ranks.len(), 4);
        assert_eq!(r.stats.tasks.len(), 4);
        assert!(r.exec_secs > 0.0);
        assert!(r.priority_writes > 0);
    }

    #[test]
    fn run_carries_telemetry_snapshot() {
        let r = run(&tiny_metbench(), ExperimentMode::Uniform, 1);
        assert!(r.metrics.counter("kernel.context_switches") > 0);
        assert!(r.metrics.counter("kernel.hw_prio_transitions") > 0);
        assert!(r.metrics.counter("hpc.decisions.uniform.accepted") > 0);
        assert!(!r.utilization_series.rows.is_empty(), "iteration utilization captured");
    }

    #[test]
    fn deterministic_across_repeats() {
        let a = run(&tiny_metbench(), ExperimentMode::Adaptive, 7);
        let b = run(&tiny_metbench(), ExperimentMode::Adaptive, 7);
        assert_eq!(a.exec_secs, b.exec_secs);
        for (x, y) in a.stats.tasks.iter().zip(&b.stats.tasks) {
            assert_eq!(x.comp_percent, y.comp_percent);
        }
    }

    #[test]
    fn every_registered_policy_is_deterministic_end_to_end() {
        let wl = tiny_metbench();
        for spec in schedsim::policies::registry() {
            let mode = ExperimentMode::Policy(spec.name);
            let a = run(&wl, mode, 7);
            let b = run(&wl, mode, 7);
            assert_eq!(
                format!("{:?}", a.records),
                format!("{:?}", b.records),
                "policy `{}` traces diverge across identical runs",
                spec.name
            );
            assert!(
                a.conformance.is_clean(),
                "policy `{}` violates conformance:\n{}",
                spec.name,
                a.conformance.render()
            );
        }
    }

    #[test]
    fn modes_order_preserved_in_parallel_run() {
        let rs = run_modes(
            &tiny_metbench(),
            &[ExperimentMode::Baseline, ExperimentMode::Uniform],
            3,
            None,
            None,
        );
        assert_eq!(rs[0].mode, ExperimentMode::Baseline);
        assert_eq!(rs[1].mode, ExperimentMode::Uniform);
    }

    #[test]
    fn policy_mode_runs_and_labels() {
        let r = run(&tiny_metbench(), ExperimentMode::Policy("gss"), 1);
        assert_eq!(r.mode.label(), "gss");
        assert_eq!(r.ranks.len(), 4);
        assert!(r.exec_secs > 0.0);
    }

    #[test]
    fn unknown_policy_mode_is_an_error() {
        match try_run(&tiny_metbench(), ExperimentMode::Policy("lottery"), 1, None, None) {
            Err(SchedError::UnknownPolicy(name)) => assert_eq!(name, "lottery"),
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("unknown policy accepted"),
        }
    }

    #[test]
    fn explicit_default_topology_is_byte_identical_to_none() {
        let wl = tiny_metbench();
        let a = run(&wl, ExperimentMode::Uniform, 7);
        let t = power5::Topology::openpower_710();
        let b = try_run(&wl, ExperimentMode::Uniform, 7, None, Some(&t)).unwrap();
        assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
        assert_eq!(a.exec_secs, b.exec_secs);
    }

    #[test]
    fn numa_topology_runs_deterministically() {
        let wl = tiny_metbench();
        let t = power5::Topology::parse("2n2c2t").unwrap();
        let a = try_run(&wl, ExperimentMode::Uniform, 7, None, Some(&t)).unwrap();
        let b = try_run(&wl, ExperimentMode::Uniform, 7, None, Some(&t)).unwrap();
        assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
        assert!(a.conformance.is_clean(), "{}", a.conformance.render());
    }

    #[test]
    fn comparison_table_contains_improvement() {
        let rs = run_modes(
            &tiny_metbench(),
            &[ExperimentMode::Baseline, ExperimentMode::Uniform],
            3,
            None,
            None,
        );
        let t = comparison_table(&rs);
        assert!(t.contains("Baseline"));
        assert!(t.contains("Uniform"));
        assert!(t.contains('%'));
    }
}
