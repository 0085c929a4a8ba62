//! MetBench — the Minimum Execution Time Benchmark (paper §V-A).
//!
//! A master process and N workers. Each iteration every worker executes its
//! assigned load and enters an `mpi_barrier`; the master keeps strict
//! synchronization by joining the same barrier and immediately starting the
//! next iteration. Data is exchanged only during initialization.
//!
//! Imbalance injection: SMT-sibling workers get different load sizes. With
//! the default 4:1 split the two small-load workers idle ~75% of the time
//! under the baseline scheduler — the profile of paper Table III.

use crate::spawn::{poll_crash, spawn_ranks, CrashAction, SchedulerSetup};
use mpisim::{Mpi, MpiConfig, MpiFaultConfig};
use schedsim::{Action, Kernel, KernelApi, Program, TaskId};

/// MetBench configuration.
#[derive(Clone, Debug)]
pub struct MetBenchConfig {
    /// Work units per iteration for each worker, in order P1..Pn.
    pub loads: Vec<f64>,
    pub iterations: u32,
    /// Bytes exchanged during the initialization phase.
    pub init_bytes: u64,
    /// SMT performance traits of the workers' code (compute-bound integer
    /// loops: fully decode-sensitive both ways).
    pub perf: power5::TaskPerfTraits,
}

impl Default for MetBenchConfig {
    fn default() -> Self {
        // Calibration (EXPERIMENTS.md): large load 2.18 work units,
        // small = large/4, 30 iterations. Baseline: iteration time
        // 2.18/0.8 = 2.725 s → total ≈ 81.8 s with 25%/100% utilizations,
        // matching paper Table III's baseline row.
        MetBenchConfig {
            loads: vec![0.545, 2.18, 0.545, 2.18],
            iterations: 30,
            init_bytes: 1 << 20,
            perf: power5::TaskPerfTraits::uniform(1.0),
        }
    }
}

impl MetBenchConfig {
    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.loads.len()
    }

    /// The hand-tuned static prioritization for this load split: raise the
    /// large-load workers to High, as the paper's earlier static work did.
    pub fn static_priorities(&self) -> Vec<power5::HwPriority> {
        let max = self.loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.loads
            .iter()
            .map(|&l| {
                if l >= max * 0.99 {
                    power5::HwPriority::HIGH
                } else {
                    power5::HwPriority::MEDIUM
                }
            })
            .collect()
    }
}

enum WorkerPhase {
    Init,
    Compute,
    Barrier,
    Done,
}

/// One MetBench worker: init exchange, then `iterations` × (load; barrier).
pub struct Worker {
    mpi: Mpi,
    rank: usize,
    load: f64,
    iterations: u32,
    done_iters: u32,
    init_bytes: u64,
    phase: WorkerPhase,
}

impl Program for Worker {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            WorkerPhase::Init => {
                // Receive the input data from the master (rank = size-1).
                let master = self.mpi.size() - 1;
                let tok = self.mpi.recv(api, self.rank, Some(master), Some(0));
                self.phase = WorkerPhase::Compute;
                let _ = self.init_bytes;
                Action::Block(tok)
            }
            WorkerPhase::Compute => {
                self.phase = WorkerPhase::Barrier;
                Action::Compute(self.load)
            }
            WorkerPhase::Barrier => {
                self.done_iters += 1;
                match poll_crash(&self.mpi, api, self.rank, self.done_iters) {
                    Some(CrashAction::Abort(a)) => {
                        self.phase = WorkerPhase::Done;
                        return a;
                    }
                    Some(CrashAction::Restart(a)) => {
                        // Lose the interrupted iteration: re-enter at the
                        // last completed barrier (the checkpoint).
                        self.done_iters -= 1;
                        self.phase = WorkerPhase::Compute;
                        return a;
                    }
                    None => {}
                }
                let tok = self.mpi.barrier(api, self.rank);
                self.phase = if self.done_iters >= self.iterations {
                    WorkerPhase::Done
                } else {
                    WorkerPhase::Compute
                };
                Action::Block(tok)
            }
            WorkerPhase::Done => Action::Exit,
        }
    }
}

enum MasterPhase {
    Distribute(usize),
    Barrier,
    Done,
}

/// The MetBench master: distributes input, then joins every barrier.
pub struct Master {
    mpi: Mpi,
    rank: usize,
    iterations: u32,
    done_iters: u32,
    init_bytes: u64,
    phase: MasterPhase,
}

impl Master {
    /// A master for `rank = number of workers`, distributing `init_bytes`
    /// to each worker and then joining `iterations` barriers.
    pub fn new(mpi: Mpi, rank: usize, iterations: u32, init_bytes: u64) -> Self {
        Master {
            mpi,
            rank,
            iterations,
            done_iters: 0,
            init_bytes,
            phase: MasterPhase::Distribute(0),
        }
    }
}

impl Program for Master {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            MasterPhase::Distribute(next) => {
                if next < self.rank {
                    self.mpi.send(api, self.rank, next, 0, self.init_bytes);
                    self.phase = MasterPhase::Distribute(next + 1);
                    // Preparing each worker's input costs a little CPU.
                    Action::Compute(1e-4)
                } else {
                    self.phase = MasterPhase::Barrier;
                    let tok = self.mpi.barrier(api, self.rank);
                    Action::Block(tok)
                }
            }
            MasterPhase::Barrier => {
                self.done_iters += 1;
                if self.done_iters >= self.iterations {
                    self.phase = MasterPhase::Done;
                    return Action::Exit;
                }
                let tok = self.mpi.barrier(api, self.rank);
                Action::Block(tok)
            }
            MasterPhase::Done => Action::Exit,
        }
    }
}

/// Build the program set (workers first — rank r on CPU r — master last)
/// and spawn it. Returns `(worker task ids, master task id, MPI world)`.
/// `faults`, if given, is installed into the MPI world before any rank
/// runs; the world handle lets the runner read fault accounting afterwards.
pub fn spawn_faulted(
    kernel: &mut Kernel,
    cfg: &MetBenchConfig,
    setup: &SchedulerSetup,
    faults: Option<&MpiFaultConfig>,
) -> (Vec<TaskId>, TaskId, Mpi) {
    let n = cfg.workers();
    let mpi = Mpi::new(n + 1, MpiConfig::default());
    if let Some(f) = faults {
        mpi.install_faults(*f);
    }
    let mut programs: Vec<Box<dyn Program>> = Vec::with_capacity(n + 1);
    for (rank, &load) in cfg.loads.iter().enumerate() {
        programs.push(Box::new(Worker {
            mpi: mpi.clone(),
            rank,
            load,
            iterations: cfg.iterations,
            done_iters: 0,
            init_bytes: cfg.init_bytes,
            phase: WorkerPhase::Init,
        }));
    }
    programs.push(Box::new(Master {
        mpi: mpi.clone(),
        rank: n,
        iterations: cfg.iterations,
        done_iters: 0,
        init_bytes: cfg.init_bytes,
        phase: MasterPhase::Distribute(0),
    }));
    let ids = spawn_ranks(kernel, "metbench", programs, setup, cfg.perf);
    let master = *ids.last().expect("master spawned");
    (ids[..n].to_vec(), master, mpi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedsim::KernelBuilder;
    use power5::HwPriority;
    use simcore::SimDuration;

    fn short_cfg() -> MetBenchConfig {
        MetBenchConfig {
            loads: vec![0.02, 0.08, 0.02, 0.08],
            iterations: 4,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_shows_the_imbalance() {
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let (workers, master, _) =
            spawn_faulted(&mut k, &short_cfg(), &SchedulerSetup::Baseline, None);
        let mut all = workers.clone();
        all.push(master);
        let end = k.run_until_exited(&all, SimDuration::from_secs(60)).expect("finishes");
        // Small-load workers idle most of the time.
        let u: Vec<f64> = workers.iter().map(|&w| k.task(w).cpu_utilization(end)).collect();
        assert!(u[0] < 0.45, "small worker util {}", u[0]);
        assert!(u[1] > 0.9, "large worker util {}", u[1]);
        assert!((u[0] - u[2]).abs() < 0.1, "symmetric pairs");
    }

    #[test]
    fn hpc_scheduler_balances_it() {
        let mut k = KernelBuilder::new().build();
        let cfg = short_cfg();
        let (workers, master, _) = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Hpc, None);
        let mut all = workers.clone();
        all.push(master);
        k.run_until_exited(&all, SimDuration::from_secs(60)).expect("finishes");
        // The large-load workers' priority rose.
        assert_eq!(k.task(workers[1]).hw_prio, HwPriority::HIGH);
        assert_eq!(k.task(workers[3]).hw_prio, HwPriority::HIGH);
        assert_eq!(k.task(workers[0]).hw_prio, HwPriority::MEDIUM);
    }

    #[test]
    fn hpc_is_faster_than_baseline() {
        let run = |hpc: bool| {
            let cfg = short_cfg();
            let (mut k, setup) = if hpc {
                (KernelBuilder::new().build(), SchedulerSetup::Hpc)
            } else {
                (KernelBuilder::new().without_hpc_class().build(), SchedulerSetup::Baseline)
            };
            let (workers, master, _) = spawn_faulted(&mut k, &cfg, &setup, None);
            let mut all = workers;
            all.push(master);
            k.run_until_exited(&all, SimDuration::from_secs(60)).expect("finishes").as_secs_f64()
        };
        let base = run(false);
        let hpc = run(true);
        assert!(hpc < base * 0.95, "hpc {hpc} vs baseline {base}");
    }

    #[test]
    fn static_priorities_pick_large_loads() {
        let cfg = MetBenchConfig::default();
        let prios = cfg.static_priorities();
        assert_eq!(
            prios,
            vec![
                HwPriority::MEDIUM,
                HwPriority::HIGH,
                HwPriority::MEDIUM,
                HwPriority::HIGH
            ]
        );
    }

    #[test]
    fn iteration_counts_recorded() {
        let mut k = KernelBuilder::new().build();
        let cfg = short_cfg();
        let (workers, master, _) = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Hpc, None);
        let mut all = workers.clone();
        all.push(master);
        k.run_until_exited(&all, SimDuration::from_secs(60)).expect("finishes");
        // Each worker slept at least once per iteration (init + barriers).
        for &w in &workers {
            assert!(k.task(w).iter.iterations >= cfg.iterations as u64);
        }
    }
}
