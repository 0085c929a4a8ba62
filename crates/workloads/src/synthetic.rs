//! Generic synthetic SPMD building blocks.
//!
//! The paper's benchmarks share one skeleton: compute a load, synchronize,
//! repeat. [`BarrierGang`] is that skeleton as a reusable program — the
//! quickest way to put a custom imbalance shape in front of the scheduler
//! (used by the cluster layer and the examples).

use crate::spawn::{poll_crash, CrashAction};
use mpisim::Mpi;
use schedsim::{Action, KernelApi, Program};

/// One rank of a barrier-synchronized gang: `iterations` × (compute
/// `load`; barrier over all ranks).
pub struct BarrierGang {
    mpi: Mpi,
    rank: usize,
    load: f64,
    iterations: u32,
    done: u32,
    computing: bool,
}

impl BarrierGang {
    pub fn new(mpi: Mpi, rank: usize, load: f64, iterations: u32) -> Self {
        BarrierGang { mpi, rank, load, iterations, done: 0, computing: true }
    }
}

impl Program for BarrierGang {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() || self.done >= self.iterations {
            return Action::Exit;
        }
        if self.computing {
            self.computing = false;
            Action::Compute(self.load)
        } else {
            match poll_crash(&self.mpi, api, self.rank, self.done + 1) {
                Some(CrashAction::Abort(a)) => {
                    self.done = self.iterations;
                    return a;
                }
                Some(CrashAction::Restart(a)) => {
                    // Redo the interrupted compute after recovery.
                    self.computing = true;
                    return a;
                }
                None => {}
            }
            self.done += 1;
            self.computing = true;
            Action::Block(self.mpi.barrier(api, self.rank))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spawn_ranks, SchedulerSetup};
    use mpisim::MpiConfig;
    use schedsim::{Kernel, KernelBuilder, TaskId};
    use simcore::SimDuration;

    /// One [`BarrierGang`] rank per load, spawned in rank order.
    fn gang(k: &mut Kernel, loads: &[f64], iterations: u32, setup: &SchedulerSetup) -> Vec<TaskId> {
        let mpi = Mpi::new(loads.len(), MpiConfig::default());
        let programs = loads
            .iter()
            .enumerate()
            .map(|(rank, &load)| {
                Box::new(BarrierGang::new(mpi.clone(), rank, load, iterations)) as Box<dyn Program>
            })
            .collect();
        spawn_ranks(k, "g", programs, setup, power5::TaskPerfTraits::default())
    }

    #[test]
    fn gang_computes_exactly_iterations_times() {
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let ids = gang(&mut k, &[0.05, 0.05, 0.05, 0.05], 4, &SchedulerSetup::Baseline);
        let end = k.run_until_exited(&ids, SimDuration::from_secs(10)).expect("finishes");
        // 4 iterations × 0.05/0.8 = 0.25 s, plus barrier costs.
        assert!((0.24..0.27).contains(&end.as_secs_f64()), "end {end}");
        for &t in &ids {
            let exec = k.task(t).exec_total.as_secs_f64();
            assert!((0.24..0.26).contains(&exec), "exec {exec}");
        }
    }

    #[test]
    fn imbalanced_gang_balances_under_hpc() {
        let loads = [0.02, 0.08, 0.02, 0.08];
        let mut kb = KernelBuilder::new().without_hpc_class().build();
        let base_ids = gang(&mut kb, &loads, 6, &SchedulerSetup::Baseline);
        let base = kb.run_until_exited(&base_ids, SimDuration::from_secs(10)).unwrap();

        let mut kh = KernelBuilder::new().build();
        let hpc_ids = gang(&mut kh, &loads, 6, &SchedulerSetup::Hpc);
        let hpc = kh.run_until_exited(&hpc_ids, SimDuration::from_secs(10)).unwrap();
        assert!(hpc < base, "{hpc} vs {base}");
    }

    #[test]
    #[should_panic(expected = "empty MPI world")]
    fn empty_gang_rejected() {
        let mut k = KernelBuilder::new().build();
        let _ = gang(&mut k, &[], 1, &SchedulerSetup::Baseline);
    }
}
