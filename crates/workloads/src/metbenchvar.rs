//! MetBenchVar — MetBench with behaviour reversal (paper §V-B).
//!
//! Identical to MetBench except that every `k` iterations the workers swap
//! load assignments: workers that executed the small load start executing
//! the large one and vice versa, reversing the load imbalance at run time.
//! The paper uses k = 15 with two switches (three periods) to show that the
//! static prioritization becomes counter-productive in the reversed period
//! while HPCSched re-balances within a few iterations.

use crate::metbench::{Master, MetBenchConfig};
use crate::spawn::{poll_crash, spawn_ranks, CrashAction, SchedulerSetup};
use mpisim::{Mpi, MpiConfig, MpiFaultConfig};
use schedsim::{Action, Kernel, KernelApi, Program, TaskId};

/// MetBenchVar configuration.
#[derive(Clone, Debug)]
pub struct MetBenchVarConfig {
    /// The underlying MetBench shape (loads are the *initial* assignment).
    pub base: MetBenchConfig,
    /// Swap period: behaviour reverses after every `k` iterations.
    pub k: u32,
}

impl Default for MetBenchVarConfig {
    fn default() -> Self {
        // Calibration (EXPERIMENTS.md): large load 6.545 units, small =
        // large/4, k = 15, 45 iterations (three periods). Baseline
        // iteration time 6.545/0.8 ≈ 8.18 s → total ≈ 368 s and average
        // utilizations ≈ 50%/75%, matching paper Table IV's baseline row.
        MetBenchVarConfig {
            base: MetBenchConfig {
                loads: vec![1.636, 6.545, 1.636, 6.545],
                iterations: 45,
                init_bytes: 1 << 20,
                perf: power5::TaskPerfTraits::uniform(1.0),
            },
            k: 15,
        }
    }
}

enum Phase {
    Init,
    Compute,
    Barrier,
    Done,
}

/// A worker whose load flips between `loads[0]` and `loads[1]` every `k`
/// iterations.
pub struct VarWorker {
    mpi: Mpi,
    rank: usize,
    /// `[initial load, swapped load]`.
    loads: [f64; 2],
    k: u32,
    iterations: u32,
    done_iters: u32,
    phase: Phase,
}

impl VarWorker {
    fn current_load(&self) -> f64 {
        let period = (self.done_iters / self.k) as usize;
        self.loads[period % 2]
    }
}

impl Program for VarWorker {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            Phase::Init => {
                let master = self.mpi.size() - 1;
                let tok = self.mpi.recv(api, self.rank, Some(master), Some(0));
                self.phase = Phase::Compute;
                Action::Block(tok)
            }
            Phase::Compute => {
                self.phase = Phase::Barrier;
                Action::Compute(self.current_load())
            }
            Phase::Barrier => {
                self.done_iters += 1;
                match poll_crash(&self.mpi, api, self.rank, self.done_iters) {
                    Some(CrashAction::Abort(a)) => {
                        self.phase = Phase::Done;
                        return a;
                    }
                    Some(CrashAction::Restart(a)) => {
                        self.done_iters -= 1;
                        self.phase = Phase::Compute;
                        return a;
                    }
                    None => {}
                }
                let tok = self.mpi.barrier(api, self.rank);
                self.phase =
                    if self.done_iters >= self.iterations { Phase::Done } else { Phase::Compute };
                Action::Block(tok)
            }
            Phase::Done => Action::Exit,
        }
    }
}

/// Spawn MetBenchVar with optional MPI fault injection. Returns
/// `(worker ids, master id, MPI world)`.
pub fn spawn_faulted(
    kernel: &mut Kernel,
    cfg: &MetBenchVarConfig,
    setup: &SchedulerSetup,
    faults: Option<&MpiFaultConfig>,
) -> (Vec<TaskId>, TaskId, Mpi) {
    let n = cfg.base.workers();
    let mpi = Mpi::new(n + 1, MpiConfig::default());
    if let Some(f) = faults {
        mpi.install_faults(*f);
    }
    let max = cfg.base.loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let min = cfg.base.loads.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut programs: Vec<Box<dyn Program>> = Vec::with_capacity(n + 1);
    for (rank, &load) in cfg.base.loads.iter().enumerate() {
        let other = if (load - max).abs() < (load - min).abs() { min } else { max };
        programs.push(Box::new(VarWorker {
            mpi: mpi.clone(),
            rank,
            loads: [load, other],
            k: cfg.k,
            iterations: cfg.base.iterations,
            done_iters: 0,
            phase: Phase::Init,
        }));
    }
    programs.push(Box::new(Master::new(mpi.clone(), n, cfg.base.iterations, cfg.base.init_bytes)));
    let ids = spawn_ranks(kernel, "metbenchvar", programs, setup, cfg.base.perf);
    let master = *ids.last().expect("master spawned");
    (ids[..n].to_vec(), master, mpi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedsim::policies::HeuristicKind;
    use schedsim::KernelBuilder;
    use power5::HwPriority;
    use simcore::SimDuration;

    fn short_cfg() -> MetBenchVarConfig {
        MetBenchVarConfig {
            base: MetBenchConfig {
                loads: vec![0.02, 0.08, 0.02, 0.08],
                iterations: 12,
                ..Default::default()
            },
            k: 4,
        }
    }

    #[test]
    fn load_flips_every_k_iterations() {
        let mpi = Mpi::new(2, MpiConfig::default());
        let mut w = VarWorker {
            mpi,
            rank: 0,
            loads: [1.0, 4.0],
            k: 3,
            iterations: 12,
            done_iters: 0,
            phase: Phase::Compute,
        };
        let mut seq = Vec::new();
        for i in 0..12 {
            w.done_iters = i;
            seq.push(w.current_load());
        }
        assert_eq!(seq[..3], [1.0, 1.0, 1.0]);
        assert_eq!(seq[3..6], [4.0, 4.0, 4.0]);
        assert_eq!(seq[6..9], [1.0, 1.0, 1.0]);
        assert_eq!(seq[9..], [4.0, 4.0, 4.0]);
    }

    #[test]
    fn adaptive_rebalances_after_swap() {
        let mut k = KernelBuilder::new().heuristic(HeuristicKind::Adaptive).build();
        let cfg = short_cfg();
        let (workers, master, _) = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Hpc, None);
        let mut all = workers.clone();
        all.push(master);
        k.run_until_exited(&all, SimDuration::from_secs(120)).expect("finishes");
        // After the final period, the *initially small* workers carry the
        // large load (12 iters, k=4 → periods small,large,small? no:
        // periods: [0..4) initial, [4..8) swapped, [8..12) initial again).
        // The last period has the initial assignment, so the initially
        // large workers should have ended high again.
        assert_eq!(k.task(workers[1]).hw_prio, HwPriority::HIGH);
    }

    #[test]
    fn dynamic_beats_static_on_varying_behaviour() {
        let cfg = short_cfg();
        let static_prios = cfg.base.static_priorities();
        let run = |setup: SchedulerSetup, hpc: bool| {
            let mut k = if hpc {
                KernelBuilder::new().heuristic(HeuristicKind::Adaptive).build()
            } else {
                KernelBuilder::new().without_hpc_class().build()
            };
            let (workers, master, _) = spawn_faulted(&mut k, &cfg, &setup, None);
            let mut all = workers;
            all.push(master);
            k.run_until_exited(&all, SimDuration::from_secs(300)).expect("finishes").as_secs_f64()
        };
        let baseline = run(SchedulerSetup::Baseline, false);
        let stat = run(SchedulerSetup::Static(static_prios), false);
        let dynamic = run(SchedulerSetup::Hpc, true);
        assert!(dynamic < baseline, "dynamic {dynamic} vs baseline {baseline}");
        // The static assignment is wrong for a third of the run; dynamic
        // must not be (meaningfully) worse than static.
        assert!(dynamic <= stat * 1.02, "dynamic {dynamic} vs static {stat}");
    }
}
