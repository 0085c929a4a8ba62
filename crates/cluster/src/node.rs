//! Per-node execution: run one node's assigned ranks on a real simulated
//! kernel and measure the node's completion time.
//!
//! # Purity contract
//!
//! Every entry point here ([`run_node`], [`run_node_sched`],
//! [`run_node_traced`], and their shape-aware `_on` twins) is a *pure
//! function* of `(loads, iterations, sched, seed, shape)`: the kernel, MPI
//! fabric, and barrier gang are constructed fresh
//! inside the call, nothing escapes, and no global mutable state is read or
//! written. That is what lets `batchsim` submit node runs
//! to [`simcore::Pool`] from any thread — the result depends only on the
//! arguments, never on which thread ran it or when.

use crate::shape::NodeShape;
use mpisim::{Mpi, MpiConfig};
use power5::{CpuId, HwPriority};
use schedsim::{
    Kernel, KernelBuilder, SchedError, SchedPolicy, SharedSink, SpawnOptions, TaskId, TraceRecord,
};
use simcore::SimDuration;
use telemetry::MetricsSnapshot;
use workloads::synthetic::BarrierGang;

/// The node-local scheduler a job's ranks run under — the three regimes the
/// paper compares, at per-node granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LocalSched {
    /// Plain CFS without the HPC class: the "Linux-like" baseline.
    Cfs,
    /// Fixed hardware priorities derived from the load estimate at spawn
    /// (heavy ranks HIGH, the rest MEDIUM) — the paper's earlier static
    /// prioritization, with no dynamic rebalancing.
    Static,
    /// The full HPC scheduling class with dynamic priority balancing.
    Hpc,
    /// The HPC scheduling class driven by a named
    /// [`schedsim::policies::registry`] balancing policy (the `--policy`
    /// CLI axis, reaching the whole zoo).
    Policy(&'static str),
}

impl LocalSched {
    pub const ALL: [LocalSched; 3] = [LocalSched::Cfs, LocalSched::Static, LocalSched::Hpc];

    pub fn label(self) -> &'static str {
        match self {
            LocalSched::Cfs => "cfs",
            LocalSched::Static => "static",
            LocalSched::Hpc => "hpc",
            LocalSched::Policy(p) => p,
        }
    }

    /// Parse a CLI label; accepts the `linux` alias for [`LocalSched::Cfs`].
    /// Labels that are not one of the three builtin regimes resolve through
    /// the policy registry (builtin names win: `static` is the pinned-prio
    /// CFS regime here, not the zoo's placement-only policy).
    pub fn parse(s: &str) -> Option<LocalSched> {
        match s {
            "cfs" | "linux" => Some(LocalSched::Cfs),
            "static" => Some(LocalSched::Static),
            "hpc" => Some(LocalSched::Hpc),
            other => schedsim::policies::canonical(other).map(LocalSched::Policy),
        }
    }
}

impl simcore::snapshot::Snapshot for LocalSched {
    fn snapshot(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        // The canonical label is the wire form: `parse` re-interns policy
        // names through the registry, so `Policy(&'static str)` survives
        // serialization without a second name table.
        w.put_str(self.label());
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        let label = r.get_str()?;
        LocalSched::parse(&label)
            .ok_or(simcore::snapshot::SnapshotError::Malformed("unknown LocalSched label"))
    }
}

/// Static hardware priorities for a slot-load vector: ranks within 1% of
/// the heaviest get HIGH, everyone else MEDIUM (mirrors the static mode of
/// the MetBench experiments).
pub fn static_prios(loads: &[f64]) -> Vec<HwPriority> {
    let max = loads.iter().cloned().fold(0.0_f64, f64::max);
    loads
        .iter()
        .map(|&l| if l >= 0.99 * max { HwPriority::HIGH } else { HwPriority::MEDIUM })
        .collect()
}

/// Result of one node's run.
#[derive(Clone, Debug)]
pub struct NodeRun {
    pub exec_secs: f64,
    /// Final hardware priority per slot.
    pub final_prios: Vec<u8>,
}

/// A node run with its full kernel trace and telemetry snapshot attached,
/// for conformance checking of batch-scheduled jobs.
#[derive(Clone, Debug)]
pub struct TracedNodeRun {
    pub run: NodeRun,
    pub records: Vec<TraceRecord>,
    pub metrics: MetricsSnapshot,
}

/// Run `loads` (one per CPU slot, in slot order) for `iterations`
/// barrier-synchronized iterations on a fresh node.
// PURITY-ROOT: pool task closures call this; result must be a pure
// function of (loads, iterations, hpc, seed).
pub fn run_node(loads: &[f64], iterations: u32, hpc: bool, seed: u64) -> NodeRun {
    let sched = if hpc { LocalSched::Hpc } else { LocalSched::Cfs };
    run_node_sched(loads, iterations, sched, seed)
}

/// [`run_node`] generalized over the node-local scheduler modes.
// PURITY-ROOT: the parallel-fleet entry point (DESIGN.md §11).
pub fn run_node_sched(loads: &[f64], iterations: u32, sched: LocalSched, seed: u64) -> NodeRun {
    // INVARIANT: panicking wrapper by documented contract — the batch and
    // cluster drivers construct slot vectors ≤ 4 and builtin scheds by
    // construction; fallible callers (CLI-fed configs) use try_run_node_sched.
    try_run_node_sched(loads, iterations, sched, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_node_sched`]: rejects a slot vector that does not fit the
/// node and an unregistered [`LocalSched::Policy`] name as typed
/// [`SchedError`]s instead of panicking.
pub fn try_run_node_sched(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
) -> Result<NodeRun, SchedError> {
    Ok(try_run_node_impl(loads, iterations, sched, seed, None, &NodeShape::default())?.0)
}

/// [`run_node_sched`] generalized over a [`NodeShape`]: the kernel runs the
/// shape's scheduling-domain tree (slot capacity comes from the tree, so a
/// 2-socket node takes 8 ranks and a wide-SMT core 4), and every load is
/// divided by the node's relative speed. The default shape reproduces
/// [`run_node_sched`] exactly — dividing by speed 1.0 is the identity.
// PURITY-ROOT: shape-aware parallel-fleet entry point; result must be a
// pure function of (loads, iterations, sched, seed, shape).
pub fn run_node_on(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
    shape: &NodeShape,
) -> NodeRun {
    // INVARIANT: panicking wrapper by documented contract; see
    // `run_node_sched`. Fallible callers use `try_run_node_on`.
    try_run_node_on(loads, iterations, sched, seed, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_node_on`].
pub fn try_run_node_on(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
    shape: &NodeShape,
) -> Result<NodeRun, SchedError> {
    Ok(try_run_node_impl(loads, iterations, sched, seed, None, shape)?.0)
}

/// Traced [`run_node_on`] — the shape-aware twin of [`run_node_traced`].
// PURITY-ROOT: traced shape-aware parallel-fleet entry point.
pub fn run_node_traced_on(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
    shape: &NodeShape,
) -> TracedNodeRun {
    // INVARIANT: panicking wrapper by documented contract; see
    // `run_node_sched`. Fallible callers use `try_run_node_traced_on`.
    try_run_node_traced_on(loads, iterations, sched, seed, shape).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_node_traced_on`].
pub fn try_run_node_traced_on(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
    shape: &NodeShape,
) -> Result<TracedNodeRun, SchedError> {
    let sink = SharedSink::new();
    let (run, metrics) =
        try_run_node_impl(loads, iterations, sched, seed, Some(sink.clone()), shape)?;
    Ok(TracedNodeRun { run, records: sink.snapshot(), metrics })
}

/// Like [`run_node_sched`], but with a trace sink attached and the
/// kernel's telemetry snapshotted, so the caller can conformance-check the
/// node-local schedule (C001–C005).
// PURITY-ROOT: traced variant of the parallel-fleet entry point.
pub fn run_node_traced(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
) -> TracedNodeRun {
    // INVARIANT: panicking wrapper by documented contract; see
    // `run_node_sched`. Fallible callers use `try_run_node_traced`.
    try_run_node_traced(loads, iterations, sched, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_node_traced`].
pub fn try_run_node_traced(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
) -> Result<TracedNodeRun, SchedError> {
    let sink = SharedSink::new();
    let (run, metrics) =
        try_run_node_impl(loads, iterations, sched, seed, Some(sink.clone()), &NodeShape::default())?;
    Ok(TracedNodeRun { run, records: sink.snapshot(), metrics })
}

// Compile-time guard for the purity contract's `Send` half: node-run
// results must cross pool-thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<NodeRun>();
    assert_send::<TracedNodeRun>();
};

fn try_run_node_impl(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    seed: u64,
    sink: Option<SharedSink>,
    shape: &NodeShape,
) -> Result<(NodeRun, MetricsSnapshot), SchedError> {
    let slots = shape.topology.num_cpus();
    if loads.is_empty() || loads.len() > slots {
        return Err(SchedError::InvalidTopology(format!(
            "a node has {slots} CPU slots, got a {}-slot load vector",
            loads.len()
        )));
    }
    let builder = KernelBuilder::new().topology(shape.topology.clone()).seed(seed);
    let mut kernel: Kernel = match sched {
        LocalSched::Hpc => builder.try_build()?,
        LocalSched::Policy(p) => builder.policy(p).try_build()?,
        LocalSched::Cfs | LocalSched::Static => builder.without_hpc_class().try_build()?,
    };
    if let Some(sink) = sink {
        kernel.observe(Box::new(sink));
    }
    let policy = match sched {
        LocalSched::Hpc | LocalSched::Policy(_) => SchedPolicy::Hpc,
        LocalSched::Cfs | LocalSched::Static => SchedPolicy::Normal,
    };
    let prios = match sched {
        LocalSched::Static => Some(static_prios(loads)),
        _ => None,
    };
    let mpi = Mpi::new(loads.len(), MpiConfig::default());
    let mut ids: Vec<TaskId> = Vec::with_capacity(loads.len());
    for (slot, &load) in loads.iter().enumerate() {
        // A faster node finishes the same work sooner: scale the per-slot
        // compute down by the relative speed (identity at speed 1.0).
        let load = load / shape.speed;
        ids.push(kernel.try_spawn(
            format!("slot{slot}"),
            policy,
            Box::new(BarrierGang::new(mpi.clone(), slot, load, iterations)),
            SpawnOptions {
                affinity: Some(vec![CpuId(slot)]),
                hw_prio: prios.as_ref().map(|p| p[slot]),
                ..Default::default()
            },
        )?);
    }
    let end = kernel
        .run_until_exited(&ids, SimDuration::from_secs(36_000))
        // INVARIANT: the 10-simulated-hour deadline is three orders of
        // magnitude above any real node run; hitting it is a simulator bug,
        // not a caller error, so it stays a panic even on the try_ path.
        .expect("node run finishes");
    let run = NodeRun {
        exec_secs: end.as_secs_f64(),
        final_prios: ids.iter().map(|&t| kernel.task(t).hw_prio.value()).collect(),
    };
    let metrics = kernel.metrics_registry().snapshot();
    Ok((run, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_node_runs_at_smt_speed() {
        let r = run_node(&[0.08, 0.08, 0.08, 0.08], 5, true, 1);
        // 0.08 / 0.8 per iteration × 5.
        assert!((0.48..0.55).contains(&r.exec_secs), "exec {}", r.exec_secs);
        assert!(r.final_prios.iter().all(|&p| p == 4), "no boost needed");
    }

    #[test]
    fn imbalanced_node_gets_boosted_under_hpc() {
        let imb = [0.32, 0.08, 0.32, 0.08];
        let base = run_node(&imb, 5, false, 1);
        let hpc = run_node(&imb, 5, true, 1);
        assert!(hpc.exec_secs < base.exec_secs * 0.95, "{} vs {}", hpc.exec_secs, base.exec_secs);
        assert_eq!(hpc.final_prios[0], 6, "heavy slot boosted: {:?}", hpc.final_prios);
    }

    #[test]
    fn partial_node_runs() {
        let r = run_node(&[0.1, 0.1], 3, true, 1);
        assert!(r.exec_secs > 0.0);
        assert_eq!(r.final_prios.len(), 2);
    }

    #[test]
    fn static_mode_pins_heavy_ranks_high() {
        let prios = static_prios(&[0.32, 0.08, 0.32, 0.08]);
        assert_eq!(
            prios,
            vec![HwPriority::HIGH, HwPriority::MEDIUM, HwPriority::HIGH, HwPriority::MEDIUM]
        );
        let r = run_node_sched(&[0.32, 0.08, 0.32, 0.08], 3, LocalSched::Static, 1);
        assert_eq!(r.final_prios, vec![6, 4, 6, 4], "static prios never move");
    }

    #[test]
    fn oversized_slot_vector_is_a_typed_error() {
        let err = try_run_node_sched(&[0.1; 5], 2, LocalSched::Hpc, 1);
        assert!(matches!(err, Err(SchedError::InvalidTopology(_))), "got {err:?}");
        let err = try_run_node_sched(&[], 2, LocalSched::Cfs, 1);
        assert!(matches!(err, Err(SchedError::InvalidTopology(_))), "got {err:?}");
    }

    #[test]
    fn policy_sched_runs_and_parses() {
        assert_eq!(LocalSched::parse("worksteal"), Some(LocalSched::Policy("worksteal")));
        assert_eq!(LocalSched::parse("static"), Some(LocalSched::Static), "builtin name wins");
        assert_eq!(LocalSched::parse("nope"), None);
        let r = run_node_sched(&[0.32, 0.08], 3, LocalSched::Policy("ss"), 1);
        assert!(r.exec_secs > 0.0);
        assert_eq!(r.final_prios.len(), 2);
    }

    #[test]
    fn unknown_policy_name_is_a_typed_error() {
        let err = try_run_node_sched(&[0.1], 2, LocalSched::Policy("lottery"), 1);
        assert!(matches!(err, Err(SchedError::UnknownPolicy(_))), "got {err:?}");
    }

    #[test]
    fn default_shape_delegation_is_exact() {
        let loads = [0.32, 0.08, 0.16, 0.08];
        let legacy = run_node_sched(&loads, 4, LocalSched::Hpc, 7);
        let on = run_node_on(&loads, 4, LocalSched::Hpc, 7, &NodeShape::default());
        assert_eq!(legacy.exec_secs, on.exec_secs, "speed 1.0 must be the identity");
        assert_eq!(legacy.final_prios, on.final_prios);
    }

    #[test]
    fn wide_node_takes_more_ranks_than_the_reference() {
        // A 2-socket shape offers 8 slots; the same vector overflows the
        // reference node.
        let shape = crate::shape::TopoPreset::TwoSocket.shape(1.0);
        let loads = [0.08; 8];
        let r = run_node_on(&loads, 3, LocalSched::Hpc, 1, &shape);
        assert_eq!(r.final_prios.len(), 8);
        let err = try_run_node_sched(&loads, 3, LocalSched::Hpc, 1);
        assert!(matches!(err, Err(SchedError::InvalidTopology(_))), "got {err:?}");
        let err = try_run_node_on(&loads, 3, LocalSched::Hpc, 1, &NodeShape::default());
        assert!(matches!(err, Err(SchedError::InvalidTopology(ref m)) if m.contains("4 CPU slots")),
            "got {err:?}");
    }

    #[test]
    fn faster_node_finishes_sooner() {
        let loads = [0.2, 0.2, 0.2, 0.2];
        let base = run_node_on(&loads, 4, LocalSched::Hpc, 1, &NodeShape::default());
        let fast = run_node_on(
            &loads,
            4,
            LocalSched::Hpc,
            1,
            &NodeShape::new(power5::Topology::openpower_710(), 2.0),
        );
        assert!(
            fast.exec_secs < base.exec_secs * 0.6,
            "2x node: {} vs {}",
            fast.exec_secs,
            base.exec_secs
        );
    }

    #[test]
    fn wide_smt_shape_runs_under_the_analytic_model() {
        let shape = crate::shape::TopoPreset::WideSmt.shape(1.0);
        let r = run_node_on(&[0.1, 0.1, 0.1, 0.1], 3, LocalSched::Hpc, 1, &shape);
        assert!(r.exec_secs > 0.0);
        assert_eq!(r.final_prios.len(), 4);
    }

    #[test]
    fn traced_run_matches_untraced_and_carries_records() {
        let plain = run_node_sched(&[0.1, 0.05], 3, LocalSched::Hpc, 9);
        let traced = run_node_traced(&[0.1, 0.05], 3, LocalSched::Hpc, 9);
        assert_eq!(plain.exec_secs, traced.run.exec_secs, "observer must not perturb");
        assert!(!traced.records.is_empty());
        assert_eq!(traced.metrics.counter("kernel.task_exits"), 2);
    }
}
