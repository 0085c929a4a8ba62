//! Per-node execution: run one node's assigned ranks on a real simulated
//! kernel and measure the node's completion time.
//!
//! # Purity contract
//!
//! [`run_node`], the one node-run entry point, is a *pure function* of
//! `(loads, iterations, sched, shape, traced)`: the kernel, MPI fabric,
//! and barrier gang are constructed fresh inside the call, nothing
//! escapes, and no global mutable state is read or written. There is no
//! per-node seed: a node kernel runs without OS noise, and the noise
//! daemons are the only reader of a kernel's random stream. That is what
//! lets the batch engine memoise node runs by content, and retry a node
//! run whose attempt panicked — the result depends only on the arguments,
//! never on which thread ran it (a watchdog attempt runs on a thread of
//! its own), when, or for which job.

use crate::shape::NodeShape;
use mpisim::{Mpi, MpiConfig};
use power5::{CpuId, HwPriority};
use schedsim::{
    Kernel, KernelBuilder, NewTask, SchedError, SchedPolicy, SharedSink, SpawnOptions, TraceRecord,
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
        // A variant tag, not the label: `static` labels both the builtin
        // pinned-priority regime and the zoo's placement-only policy. A
        // policy name is re-interned through the registry on restore, so
        // `Policy(&'static str)` survives without a second name table.
        match self {
            LocalSched::Cfs => w.put_u8(0),
            LocalSched::Static => w.put_u8(1),
            LocalSched::Hpc => w.put_u8(2),
            LocalSched::Policy(name) => {
                w.put_u8(3);
                w.put_str(name);
            }
        }
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        use simcore::snapshot::SnapshotError::Malformed;
        match r.get_u8()? {
            0 => Ok(LocalSched::Cfs),
            1 => Ok(LocalSched::Static),
            2 => Ok(LocalSched::Hpc),
            3 => schedsim::policies::canonical(&r.get_str()?)
                .map(LocalSched::Policy)
                .ok_or(Malformed("unknown LocalSched policy")),
            _ => Err(Malformed("LocalSched tag out of range")),
        }
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
    /// The kernel trace and telemetry snapshot, present only for a traced
    /// run (conformance checking of batch-scheduled jobs).
    pub trace: Option<NodeTrace>,
}

/// A traced node run's full kernel trace and end-of-run metrics.
#[derive(Clone, Debug)]
pub struct NodeTrace {
    pub records: Vec<TraceRecord>,
    pub metrics: MetricsSnapshot,
}

/// Run `loads` (one per CPU slot, in slot order) for `iterations`
/// barrier-synchronized iterations on a fresh node of `shape` under
/// `sched`. The kernel runs the shape's scheduling-domain tree (slot
/// capacity comes from the tree, so a 2-socket node takes 8 ranks and a
/// wide-SMT core 4), and every load is divided by the node's relative
/// speed — the identity on the default shape. With `traced`, a trace sink
/// is attached and the kernel's telemetry snapshotted into
/// [`NodeRun::trace`], so the caller can conformance-check the node-local
/// schedule (C001–C005); observing never perturbs the run.
///
/// # Errors
/// [`SchedError::InvalidTopology`] for a slot vector that is empty or does
/// not fit the node, and [`SchedError::UnknownPolicy`] for an unregistered
/// [`LocalSched::Policy`] name.
// Supervised node tasks call this; the result must be a pure function of
// (loads, iterations, sched, shape, traced). Turning noise on here would
// make the kernel seed an input, and it would have to join both this
// signature and the batch oracle's node memo key.
pub fn run_node(
    loads: &[f64],
    iterations: u32,
    sched: LocalSched,
    shape: &NodeShape,
    traced: bool,
) -> Result<NodeRun, SchedError> {
    let slots = shape.topology.num_cpus();
    if loads.is_empty() || loads.len() > slots {
        return Err(SchedError::InvalidTopology(format!(
            "a node has {slots} CPU slots, got a {}-slot load vector",
            loads.len()
        )));
    }
    let builder = KernelBuilder::new().topology(shape.topology.clone());
    let mut kernel: Kernel = match sched {
        LocalSched::Hpc => builder.try_build()?,
        LocalSched::Policy(p) => builder.policy(p).try_build()?,
        LocalSched::Cfs | LocalSched::Static => builder.without_hpc_class().try_build()?,
    };
    let sink = traced.then(SharedSink::new);
    if let Some(sink) = &sink {
        kernel.observe(Box::new(sink.clone()));
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
    // The whole gang is queued before any rank runs: one settle, not one
    // per rank.
    let ranks = loads
        .iter()
        .enumerate()
        .map(|(slot, &load)| NewTask {
            name: format!("slot{slot}"),
            policy,
            // A faster node finishes the same work sooner: scale the
            // per-slot compute down by the relative speed (identity at
            // speed 1.0).
            program: Box::new(BarrierGang::new(mpi.clone(), slot, load / shape.speed, iterations)),
            opts: SpawnOptions {
                affinity: Some(vec![CpuId(slot)]),
                hw_prio: prios.as_ref().map(|p| p[slot]),
                ..Default::default()
            },
        })
        .collect();
    let ids = kernel.try_spawn_all(ranks)?;
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: the 10-simulated-hour deadline is three orders of magnitude above \
                  any real node run; hitting it is a simulator bug, not a caller error, so it \
                  stays a panic even on the try_ path."
    )]
    let end = kernel
        .run_until_exited(&ids, SimDuration::from_secs(36_000))
        .expect("node run finishes");
    Ok(NodeRun {
        exec_secs: end.as_secs_f64(),
        final_prios: ids.iter().map(|&t| kernel.task(t).hw_prio.value()).collect(),
        trace: sink.map(|sink| NodeTrace {
            records: sink.snapshot(),
            metrics: kernel.metrics_registry().snapshot(),
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::TopoPreset;

    fn run(loads: &[f64], iterations: u32, sched: LocalSched) -> NodeRun {
        run_node(loads, iterations, sched, &NodeShape::default(), false).expect("valid node")
    }

    #[test]
    fn balanced_node_runs_at_smt_speed() {
        let r = run(&[0.08, 0.08, 0.08, 0.08], 5, LocalSched::Hpc);
        // 0.08 / 0.8 per iteration × 5.
        assert!((0.48..0.55).contains(&r.exec_secs), "exec {}", r.exec_secs);
        assert!(r.final_prios.iter().all(|&p| p == 4), "no boost needed");
    }

    #[test]
    fn imbalanced_node_gets_boosted_under_hpc() {
        let imb = [0.32, 0.08, 0.32, 0.08];
        let base = run(&imb, 5, LocalSched::Cfs);
        let hpc = run(&imb, 5, LocalSched::Hpc);
        assert!(hpc.exec_secs < base.exec_secs * 0.95, "{} vs {}", hpc.exec_secs, base.exec_secs);
        assert_eq!(hpc.final_prios[0], 6, "heavy slot boosted: {:?}", hpc.final_prios);
    }

    #[test]
    fn partial_node_runs() {
        let r = run(&[0.1, 0.1], 3, LocalSched::Hpc);
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
        let r = run(&[0.32, 0.08, 0.32, 0.08], 3, LocalSched::Static);
        assert_eq!(r.final_prios, vec![6, 4, 6, 4], "static prios never move");
    }

    #[test]
    fn oversized_slot_vector_is_a_typed_error() {
        let default = NodeShape::default();
        let err = run_node(&[0.1; 5], 2, LocalSched::Hpc, &default, false);
        assert!(matches!(err, Err(SchedError::InvalidTopology(_))), "got {err:?}");
        let err = run_node(&[], 2, LocalSched::Cfs, &default, false);
        assert!(matches!(err, Err(SchedError::InvalidTopology(_))), "got {err:?}");
    }

    #[test]
    fn policy_sched_runs_and_parses() {
        assert_eq!(LocalSched::parse("worksteal"), Some(LocalSched::Policy("worksteal")));
        assert_eq!(LocalSched::parse("static"), Some(LocalSched::Static), "builtin name wins");
        assert_eq!(LocalSched::parse("nope"), None);
        let r = run(&[0.32, 0.08], 3, LocalSched::Policy("ss"));
        assert!(r.exec_secs > 0.0);
        assert_eq!(r.final_prios.len(), 2);
    }

    #[test]
    fn unknown_policy_name_is_a_typed_error() {
        let err = run_node(&[0.1], 2, LocalSched::Policy("lottery"), &NodeShape::default(), false);
        assert!(matches!(err, Err(SchedError::UnknownPolicy(_))), "got {err:?}");
    }

    #[test]
    fn default_shape_delegation_is_exact() {
        let loads = [0.32, 0.08, 0.16, 0.08];
        let default = run(&loads, 4, LocalSched::Hpc);
        let explicit = NodeShape::new(power5::Topology::openpower_710(), 1.0);
        let on = run_node(&loads, 4, LocalSched::Hpc, &explicit, false).unwrap();
        assert_eq!(default.exec_secs, on.exec_secs, "speed 1.0 must be the identity");
        assert_eq!(default.final_prios, on.final_prios);
    }

    #[test]
    fn wide_node_takes_more_ranks_than_the_reference() {
        // A 2-socket shape offers 8 slots; the same vector overflows the
        // reference node.
        let shape = TopoPreset::TwoSocket.shape(1.0);
        let loads = [0.08; 8];
        let r = run_node(&loads, 3, LocalSched::Hpc, &shape, false).unwrap();
        assert_eq!(r.final_prios.len(), 8);
        let err = run_node(&loads, 3, LocalSched::Hpc, &NodeShape::default(), false);
        assert!(matches!(err, Err(SchedError::InvalidTopology(ref m)) if m.contains("4 CPU slots")),
            "got {err:?}");
    }

    #[test]
    fn faster_node_finishes_sooner() {
        let loads = [0.2, 0.2, 0.2, 0.2];
        let base = run(&loads, 4, LocalSched::Hpc);
        let fast_shape = NodeShape::new(power5::Topology::openpower_710(), 2.0);
        let fast = run_node(&loads, 4, LocalSched::Hpc, &fast_shape, false).unwrap();
        assert!(
            fast.exec_secs < base.exec_secs * 0.6,
            "2x node: {} vs {}",
            fast.exec_secs,
            base.exec_secs
        );
    }

    #[test]
    fn wide_smt_shape_runs_under_the_analytic_model() {
        let shape = TopoPreset::WideSmt.shape(1.0);
        let r = run_node(&[0.1, 0.1, 0.1, 0.1], 3, LocalSched::Hpc, &shape, false).unwrap();
        assert!(r.exec_secs > 0.0);
        assert_eq!(r.final_prios.len(), 4);
    }

    #[test]
    fn traced_run_matches_untraced_and_carries_records() {
        let plain = run(&[0.1, 0.05], 3, LocalSched::Hpc);
        assert!(plain.trace.is_none(), "untraced runs carry no trace");
        let traced =
            run_node(&[0.1, 0.05], 3, LocalSched::Hpc, &NodeShape::default(), true).unwrap();
        assert_eq!(plain.exec_secs, traced.exec_secs, "observer must not perturb");
        assert_eq!(plain.final_prios, traced.final_prios);
        let trace = traced.trace.expect("traced run carries its trace");
        assert!(!trace.records.is_empty());
        assert_eq!(trace.metrics.counter("kernel.task_exits"), 2);
    }

    /// Every builtin regime and every registry policy decodes to the value
    /// it was encoded from, including `Policy("static")`, whose label is
    /// also the builtin `Static` regime's.
    #[test]
    fn every_builtin_and_registry_name_round_trips() {
        use simcore::snapshot::{Snapshot, SnapshotReader, SnapshotWriter};
        let all = LocalSched::ALL
            .into_iter()
            .chain(schedsim::policies::registry().iter().map(|spec| LocalSched::Policy(spec.name)));
        for sched in all {
            let mut w = SnapshotWriter::new();
            sched.snapshot(&mut w);
            let bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes).expect("frame");
            assert_eq!(LocalSched::restore(&mut r), Ok(sched), "{sched:?}");
            r.finish().expect("no trailing bytes");
        }
    }

    /// `run_node` as it was before the gang spawned under one settle: one
    /// `try_spawn`, and so one settle, per rank. Traced.
    fn run_node_per_rank(
        loads: &[f64],
        iterations: u32,
        sched: LocalSched,
        shape: &NodeShape,
    ) -> NodeRun {
        let builder = KernelBuilder::new().topology(shape.topology.clone());
        let mut kernel = match sched {
            LocalSched::Hpc => builder.try_build(),
            LocalSched::Policy(p) => builder.policy(p).try_build(),
            LocalSched::Cfs | LocalSched::Static => builder.without_hpc_class().try_build(),
        }
        .unwrap();
        let sink = SharedSink::new();
        kernel.observe(Box::new(sink.clone()));
        let policy = match sched {
            LocalSched::Hpc | LocalSched::Policy(_) => SchedPolicy::Hpc,
            LocalSched::Cfs | LocalSched::Static => SchedPolicy::Normal,
        };
        let prios = (sched == LocalSched::Static).then(|| static_prios(loads));
        let mpi = Mpi::new(loads.len(), MpiConfig::default());
        let ids: Vec<_> = loads
            .iter()
            .enumerate()
            .map(|(slot, &load)| {
                let gang = BarrierGang::new(mpi.clone(), slot, load / shape.speed, iterations);
                kernel
                    .try_spawn(
                        format!("slot{slot}"),
                        policy,
                        Box::new(gang),
                        SpawnOptions {
                            affinity: Some(vec![CpuId(slot)]),
                            hw_prio: prios.as_ref().map(|p| p[slot]),
                            ..Default::default()
                        },
                    )
                    .unwrap()
            })
            .collect();
        let end = kernel.run_until_exited(&ids, SimDuration::from_secs(36_000)).unwrap();
        NodeRun {
            exec_secs: end.as_secs_f64(),
            final_prios: ids.iter().map(|&t| kernel.task(t).hw_prio.value()).collect(),
            trace: Some(NodeTrace {
                records: sink.snapshot(),
                metrics: kernel.metrics_registry().snapshot(),
            }),
        }
    }

    /// Spawning a node's ranks under one settle computes what one settle
    /// per rank did, for every regime and registry policy on every preset:
    /// the same exec-time bits, final priorities and context switches, and
    /// the same trace records up to their order at spawn time.
    #[test]
    fn one_settle_gang_spawn_matches_per_rank_spawns() {
        let scheds = LocalSched::ALL
            .into_iter()
            .chain(schedsim::policies::registry().iter().map(|spec| LocalSched::Policy(spec.name)));
        let sorted = |trace: &NodeTrace| {
            let mut records: Vec<String> =
                trace.records.iter().map(|r| format!("{r:?}")).collect();
            records.sort();
            records
        };
        for sched in scheds {
            for preset in TopoPreset::ALL {
                let shape = preset.shape(1.25);
                let slots = shape.slots();
                let skewed: Vec<f64> =
                    (0..slots).map(|i| if i % 3 == 0 { 0.3 } else { 0.07 }).collect();
                for loads in [skewed.clone(), vec![0.1; slots], skewed[..slots - 1].to_vec()] {
                    let gang = run_node(&loads, 3, sched, &shape, true).unwrap();
                    let each = run_node_per_rank(&loads, 3, sched, &shape);
                    let what = format!("{sched:?} on {} with {loads:?}", preset.label());
                    assert_eq!(gang.exec_secs.to_bits(), each.exec_secs.to_bits(), "{what}");
                    assert_eq!(gang.final_prios, each.final_prios, "{what}");
                    let (gang, each) = (gang.trace.unwrap(), each.trace.unwrap());
                    assert_eq!(
                        gang.metrics.counter("kernel.context_switches"),
                        each.metrics.counter("kernel.context_switches"),
                        "{what}"
                    );
                    assert_eq!(sorted(&gang), sorted(&each), "{what}");
                }
            }
        }
    }
}
