//! The balancing-policy zoo and its registry.
//!
//! Every policy the simulator can drive is listed in [`registry`] — the
//! single name → constructor table shared by the CLI (`--policy`), the
//! experiment runner, the cluster/batch layers and the verify harness.
//! Adding a policy is one module implementing [`crate::Balancer`] — or,
//! for a stepping policy, a `zoo::StepRule` — plus one [`PolicySpec`] row
//! here; nothing else in the tree enumerates policies.
//!
//! The zoo (DESIGN.md §12):
//!
//! | name          | decision basis                                    |
//! |---------------|---------------------------------------------------|
//! | `hpc`         | paper Table-I, Uniform heuristic (global util)    |
//! | `hpc-adaptive`| paper Table-I, Adaptive heuristic (recency blend) |
//! | `hpc-hybrid`  | paper Table-I, annealed Hybrid heuristic (§VI)    |
//! | `static`      | uniform baseline: placement only, no steering     |
//! | `ss`          | last iteration only (LB4OMP SS)                   |
//! | `gss`         | exponentially weighted estimate (LB4OMP GSS)      |
//! | `tss`         | linearly weighted window (LB4OMP TSS)             |
//! | `fac`         | halving decision batches (LB4OMP FAC)             |
//! | `awf`         | weight vs fleet mean (LB4OMP AWF)                 |
//! | `worksteal`   | idle thieves steal queue tails; no priorities     |

pub mod detector;
pub mod heuristics;
pub mod mechanism;
pub mod table1;
pub mod tunables;

pub mod factoring;
pub mod gss;
pub mod ss;
pub mod statics;
pub mod tss;
pub mod worksteal;

pub(crate) mod zoo;

pub use detector::{LoadImbalanceDetector, TaskIterStats};
pub use heuristics::{
    make_heuristic, AdaptiveHeuristic, Heuristic, HeuristicKind, HybridHeuristic, UniformHeuristic,
};
pub use mechanism::{NullMechanism, Power5Mechanism, PrioMechanism};
pub use table1::Table1Balancer;
pub use tunables::{HpcTunables, TunableError};

use crate::balancer::Balancer;
use std::sync::{Arc, Mutex};
use zoo::{StepBalancer, StepRule};

/// Shared, runtime-adjustable tunables handle (the simulated sysfs mount).
pub type SharedTunables = Arc<Mutex<HpcTunables>>;

/// Everything a policy constructor may draw on. One context serves every
/// policy so the registry signature stays uniform.
pub struct PolicyCtx {
    /// The live tunables handle; policies read it at decision time.
    pub tunables: SharedTunables,
    /// Heuristic selection, honored by the heuristic-parametric `hpc`
    /// policy; the other policies ignore it.
    pub heuristic: HeuristicKind,
    /// Use the POWER5 mechanism (true) or the no-op mechanism for
    /// architectures without hardware prioritization (false).
    pub power5_mechanism: bool,
    /// Disable dynamic prioritization entirely (class placement only).
    pub policy_only: bool,
}

impl PolicyCtx {
    fn mechanism(&self) -> Box<dyn PrioMechanism> {
        if self.power5_mechanism {
            Box::new(Power5Mechanism)
        } else {
            Box::new(NullMechanism)
        }
    }

    fn stepping<R: StepRule>(&self, name: &'static str) -> Box<dyn Balancer> {
        Box::new(StepBalancer::<R>::new(
            name,
            self.tunables.clone(),
            self.mechanism(),
            !self.policy_only,
        ))
    }

    fn table1(&self, kind: HeuristicKind) -> Table1Balancer {
        Table1Balancer::new(make_heuristic(kind), self.mechanism(), self.tunables.clone())
    }
}

/// One registry row: a constructible, documented policy.
pub struct PolicySpec {
    pub name: &'static str,
    /// One-line summary for `--policy help` style listings and docs.
    pub summary: &'static str,
    pub make: fn(&PolicyCtx) -> Box<dyn Balancer>,
}

/// The canonical policy table. Order is presentation order (paper policies
/// first, then the LB4OMP family, then the queue discipline).
pub fn registry() -> &'static [PolicySpec] {
    &[
        PolicySpec {
            name: "hpc",
            summary: "paper Table-I policy, Uniform heuristic (global utilization)",
            make: |ctx| {
                let b = ctx.table1(ctx.heuristic);
                if ctx.policy_only {
                    Box::new(b.with_static_priorities())
                } else {
                    Box::new(b)
                }
            },
        },
        PolicySpec {
            name: "hpc-adaptive",
            summary: "paper Table-I policy, Adaptive heuristic (recency-weighted)",
            make: |ctx| Box::new(ctx.table1(HeuristicKind::Adaptive)),
        },
        PolicySpec {
            name: "hpc-hybrid",
            summary: "paper Table-I policy, annealed Hybrid heuristic (paper §VI)",
            make: |ctx| Box::new(ctx.table1(HeuristicKind::Hybrid)),
        },
        PolicySpec {
            name: "static",
            summary: "uniform baseline: class placement only, no priority steering",
            make: |ctx| ctx.stepping::<statics::Static>("static"),
        },
        PolicySpec {
            name: "ss",
            summary: "self-scheduling: judge on the last iteration only (LB4OMP SS)",
            make: |ctx| ctx.stepping::<ss::Ss>("ss"),
        },
        PolicySpec {
            name: "gss",
            summary: "guided: exponentially weighted utilization estimate (LB4OMP GSS)",
            make: |ctx| ctx.stepping::<gss::Gss>("gss"),
        },
        PolicySpec {
            name: "tss",
            summary: "trapezoid: linearly weighted sample window (LB4OMP TSS)",
            make: |ctx| ctx.stepping::<tss::Tss>("tss"),
        },
        PolicySpec {
            name: "fac",
            summary: "factoring: decide on halving batch means (LB4OMP FAC)",
            make: |ctx| ctx.stepping::<factoring::Fac>("fac"),
        },
        PolicySpec {
            name: "awf",
            summary: "adaptive weighted factoring: weight vs fleet mean (LB4OMP AWF)",
            make: |ctx| ctx.stepping::<factoring::Awf>("awf"),
        },
        PolicySpec {
            name: "worksteal",
            summary: "work stealing: idle CPUs steal queue tails, no priority moves",
            make: |ctx| ctx.stepping::<worksteal::WorkSteal>("worksteal"),
        },
    ]
}

/// Look a policy up by name.
pub fn find(name: &str) -> Option<&'static PolicySpec> {
    registry().iter().find(|spec| spec.name == name)
}

/// The `'static` canonical spelling of `name`, if registered — what CLI
/// layers store so policy names stay `Copy` throughout the stack.
pub fn canonical(name: &str) -> Option<&'static str> {
    find(name).map(|spec| spec.name)
}

/// Render the registry as "name — summary" lines (CLI error messages,
/// docs-drift tests).
pub fn render_table() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for spec in registry() {
        let _ = writeln!(out, "  {:<12} {}", spec.name, spec.summary);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> PolicyCtx {
        PolicyCtx {
            tunables: Arc::new(Mutex::new(HpcTunables::default())),
            heuristic: HeuristicKind::Uniform,
            power5_mechanism: true,
            policy_only: false,
        }
    }

    #[test]
    fn registry_names_are_unique_and_canonical() {
        let mut seen = std::collections::BTreeSet::new();
        for spec in registry() {
            assert!(seen.insert(spec.name), "duplicate policy {}", spec.name);
            assert_eq!(canonical(spec.name), Some(spec.name));
            assert!(!spec.summary.is_empty());
        }
        assert!(registry().len() >= 6, "the zoo ships at least six policies");
    }

    #[test]
    fn find_rejects_unknown_names() {
        assert!(find("no-such-policy").is_none());
        assert!(canonical("").is_none());
    }

    #[test]
    fn every_policy_constructs() {
        let c = ctx();
        for spec in registry() {
            let b = (spec.make)(&c);
            // Zoo policies report their registry name; the Table-I family
            // reports its shared implementation name.
            assert!(
                b.name() == spec.name || b.name() == "table1",
                "{} constructed as {}",
                spec.name,
                b.name()
            );
        }
    }

    #[test]
    fn hpc_spec_honors_heuristic_and_policy_only() {
        let mut c = ctx();
        c.heuristic = HeuristicKind::Adaptive;
        let spec = find("hpc").unwrap();
        let _ = (spec.make)(&c); // adaptive table1 constructs
        c.policy_only = true;
        let _ = (spec.make)(&c); // pinned table1 constructs
    }

    #[test]
    fn render_table_lists_every_policy() {
        let table = render_table();
        for spec in registry() {
            assert!(table.contains(spec.name));
        }
    }

    mod snapshot_round_trip {
        use super::super::*;
        use super::ctx;
        use crate::balancer::{IterSample, PrioAssignment, SampleOutcome};
        use crate::class::ClassCtx;
        use crate::policy::SchedPolicy;
        use crate::program::ScriptedProgram;
        use crate::task::{Task, TaskId};
        use power5::Topology;
        use simcore::snapshot::{SnapshotReader, SnapshotWriter};
        use simcore::{SimDuration, SimTime};

        fn fleet(n: usize) -> Vec<Task> {
            (0..n)
                .map(|i| {
                    Task::new(
                        TaskId(i),
                        format!("rank{i}"),
                        SchedPolicy::Hpc,
                        Box::new(ScriptedProgram::compute_once(1.0)),
                        SimTime::ZERO,
                    )
                })
                .collect()
        }

        /// Feed one iteration sample through the full decision pipeline and
        /// apply whatever priorities the policy hands back — the same loop
        /// the kernel's class driver runs.
        fn step(
            b: &mut dyn Balancer,
            tasks: &mut Vec<Task>,
            topo: &Topology,
            idx: usize,
            run_ms: u64,
            wall_ms: u64,
        ) -> Vec<PrioAssignment> {
            let task = TaskId(idx);
            let sample = IterSample {
                task,
                run: SimDuration::from_millis(run_ms),
                wall: SimDuration::from_millis(wall_ms),
            };
            let assignments = {
                let ctx =
                    ClassCtx { now: SimTime::ZERO, tasks, topology: topo, running: &[] };
                match b.on_sample(&ctx, sample) {
                    SampleOutcome::Recorded => b.assign_priorities(&ctx, task),
                    SampleOutcome::Unusable => b.on_fault(&ctx, task),
                }
            };
            for a in &assignments {
                tasks[a.task.0].hw_prio = a.prio;
            }
            assignments
        }

        fn snapshot_bytes(b: &dyn Balancer) -> Vec<u8> {
            let mut w = SnapshotWriter::new();
            b.snapshot(&mut w);
            w.finish()
        }

        /// A mixed schedule: hot tasks (raise), cold tasks (lower), a
        /// mid-band hold, and one unusable sample (zero wall) so the
        /// detector/fault paths all accumulate history before the cut.
        const WARMUP: &[(usize, u64, u64)] =
            &[(0, 95, 100), (1, 20, 100), (0, 96, 100), (2, 70, 100), (1, 15, 100), (2, 0, 0)];
        const TAIL: &[(usize, u64, u64)] =
            &[(0, 97, 100), (1, 18, 100), (2, 92, 100), (0, 30, 100), (1, 94, 100)];

        /// Every zoo policy must resume from a mid-run snapshot with its
        /// decision stream intact: drive A, snapshot, restore into a fresh
        /// B, then drive both identically and require identical priority
        /// assignments and identical re-snapshot bytes.
        #[test]
        fn every_policy_round_trips_mid_run_state() {
            let topo = Topology::openpower_710();
            for spec in registry() {
                let c = ctx();
                let mut a = (spec.make)(&c);
                let mut tasks_a = fleet(3);
                for &(i, r, w) in WARMUP {
                    step(a.as_mut(), &mut tasks_a, &topo, i, r, w);
                }

                let bytes = snapshot_bytes(a.as_ref());
                let mut b = (spec.make)(&c);
                let mut r = SnapshotReader::new(&bytes)
                    .unwrap_or_else(|e| panic!("{}: bad snapshot: {e}", spec.name));
                b.restore(&mut r).unwrap_or_else(|e| panic!("{}: restore: {e}", spec.name));
                r.finish().unwrap_or_else(|e| panic!("{}: leftover bytes: {e}", spec.name));

                // Kernel-side task state (hw priorities) is restored by the
                // surrounding checkpoint; mirror it for the clone.
                let mut tasks_b = fleet(3);
                for (tb, ta) in tasks_b.iter_mut().zip(tasks_a.iter()) {
                    tb.hw_prio = ta.hw_prio;
                }

                assert_eq!(
                    snapshot_bytes(a.as_ref()),
                    snapshot_bytes(b.as_ref()),
                    "{}: restored state must re-encode to identical bytes",
                    spec.name
                );
                for &(i, r, w) in TAIL {
                    let da = step(a.as_mut(), &mut tasks_a, &topo, i, r, w);
                    let db = step(b.as_mut(), &mut tasks_b, &topo, i, r, w);
                    assert_eq!(da, db, "{}: decision diverged after restore", spec.name);
                }
                assert_eq!(
                    snapshot_bytes(a.as_ref()),
                    snapshot_bytes(b.as_ref()),
                    "{}: states diverged after identical post-restore drive",
                    spec.name
                );
            }
        }

        /// A snapshot taken between `on_sample` and `assign_priorities`
        /// must carry the in-flight pending decision across the cut.
        #[test]
        fn pending_decision_survives_the_cut() {
            let topo = Topology::openpower_710();
            for spec in registry() {
                let c = ctx();
                let mut a = (spec.make)(&c);
                let mut tasks_a = fleet(3);
                for &(i, r, w) in WARMUP {
                    step(a.as_mut(), &mut tasks_a, &topo, i, r, w);
                }
                // Record a hot sample but cut before the assignment lands.
                let sample = IterSample {
                    task: TaskId(0),
                    run: SimDuration::from_millis(95),
                    wall: SimDuration::from_millis(100),
                };
                {
                    let ctx = ClassCtx {
                        now: SimTime::ZERO,
                        tasks: &mut tasks_a,
                        topology: &topo,
                        running: &[],
                    };
                    assert_eq!(a.on_sample(&ctx, sample), SampleOutcome::Recorded);
                }

                let bytes = snapshot_bytes(a.as_ref());
                let mut b = (spec.make)(&c);
                let mut r = SnapshotReader::new(&bytes).expect("snapshot decodes");
                b.restore(&mut r).expect("restore succeeds");
                let mut tasks_b = fleet(3);
                for (tb, ta) in tasks_b.iter_mut().zip(tasks_a.iter()) {
                    tb.hw_prio = ta.hw_prio;
                }

                let settle = |bal: &mut Box<dyn Balancer>, tasks: &mut Vec<Task>| {
                    let ctx = ClassCtx {
                        now: SimTime::ZERO,
                        tasks,
                        topology: &topo,
                        running: &[],
                    };
                    bal.assign_priorities(&ctx, TaskId(0))
                };
                let da = settle(&mut a, &mut tasks_a);
                let db = settle(&mut b, &mut tasks_b);
                assert_eq!(da, db, "{}: pending decision lost across snapshot", spec.name);
            }
        }
    }
}
