//! BT-MZ — the NAS multi-zone Block Tri-diagonal benchmark (paper §V-C).
//!
//! Each MPI process owns a set of mesh zones of uneven sizes; every
//! iteration it computes over its zones, then exchanges boundary data with
//! its neighbours *asynchronously* (`mpi_isend`/`mpi_irecv`) and waits with
//! `mpi_waitall`. There is **no global barrier** — a process synchronizes
//! only with its neighbours (ring topology), which is exactly the coupling
//! the paper notes. The communication phase is ~0.1% of the execution time.
//!
//! Zone-size imbalance is what HPCSched corrects: the default configuration
//! reproduces paper Table V's baseline utilization profile
//! (17.6 / 29.9 / 66.1 / 99.9%).

use crate::spawn::{poll_crash, spawn_ranks, CrashAction, SchedulerSetup};
use mpisim::{Mpi, MpiConfig, MpiFaultConfig};
use schedsim::{Action, Kernel, KernelApi, Program, TaskId};

/// BT-MZ configuration.
#[derive(Clone, Debug)]
pub struct BtMzConfig {
    /// Per-rank compute work per iteration (zone-size proxy).
    pub zone_work: Vec<f64>,
    /// Iterations (paper: class A, 200 iterations).
    pub iterations: u32,
    /// Boundary-exchange message size in bytes.
    pub exchange_bytes: u64,
    /// SMT traits: BT-MZ is memory-bandwidth-bound stencil code — it
    /// converts extra decode slots into speed when favoured (its stalls
    /// overlap), but being decode-starved barely hurts it because cache
    /// misses dominate. Calibrated so the paper's Table V balance is
    /// reachable (see EXPERIMENTS.md).
    pub perf: power5::TaskPerfTraits,
}

impl Default for BtMzConfig {
    fn default() -> Self {
        // Calibration (EXPERIMENTS.md): the critical rank computes 0.380
        // units/iteration → 0.475 s at SMT speed 0.8 → ≈95 s over 200
        // iterations; the other ranks' work is scaled to the paper's
        // baseline utilizations.
        BtMzConfig {
            zone_work: vec![0.067, 0.113, 0.251, 0.380],
            iterations: 200,
            exchange_bytes: 64 * 1024,
            perf: power5::TaskPerfTraits::new(1.0, 0.10),
        }
    }
}

impl BtMzConfig {
    pub fn ranks(&self) -> usize {
        self.zone_work.len()
    }

    /// A hand-tuned static assignment for this zone split *on this
    /// platform*: the critical rank gets High priority. (The paper's own
    /// static run used {4,4,5,6}, hand-tuned for the real POWER5; static
    /// assignments are platform-specific by nature.)
    pub fn static_priorities(&self) -> Vec<power5::HwPriority> {
        let max = self.zone_work.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        self.zone_work
            .iter()
            .map(|&w| {
                if w >= max * 0.99 {
                    power5::HwPriority::HIGH
                } else {
                    power5::HwPriority::MEDIUM
                }
            })
            .collect()
    }
}

enum Phase {
    Compute,
    Exchange,
    Done,
}

/// One BT-MZ process: compute over zones, neighbour exchange, repeat.
pub struct ZoneRank {
    mpi: Mpi,
    rank: usize,
    size: usize,
    work: f64,
    iterations: u32,
    done_iters: u32,
    exchange_bytes: u64,
    phase: Phase,
}

impl Program for ZoneRank {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            Phase::Compute => {
                self.phase = Phase::Exchange;
                Action::Compute(self.work)
            }
            Phase::Exchange => {
                match poll_crash(&self.mpi, api, self.rank, self.done_iters) {
                    Some(CrashAction::Abort(a)) => {
                        self.phase = Phase::Done;
                        return a;
                    }
                    Some(CrashAction::Restart(a)) => {
                        // Redo the interrupted compute after recovery.
                        self.phase = Phase::Compute;
                        return a;
                    }
                    None => {}
                }
                let left = (self.rank + self.size - 1) % self.size;
                let right = (self.rank + 1) % self.size;
                let tag = self.done_iters as i32;
                // Asynchronous boundary exchange with both neighbours.
                let s1 = self.mpi.isend(api, self.rank, left, tag, self.exchange_bytes);
                let s2 = self.mpi.isend(api, self.rank, right, tag, self.exchange_bytes);
                let r1 = self.mpi.irecv(api, self.rank, Some(left), Some(tag));
                let r2 = self.mpi.irecv(api, self.rank, Some(right), Some(tag));
                let tok = self.mpi.waitall(api, &[s1, s2, r1, r2]);
                self.done_iters += 1;
                self.phase =
                    if self.done_iters >= self.iterations { Phase::Done } else { Phase::Compute };
                Action::Block(tok)
            }
            Phase::Done => Action::Exit,
        }
    }
}

/// Spawn BT-MZ with optional MPI fault injection; rank r lands on CPU r.
/// Returns the rank ids and the MPI world handle.
pub fn spawn_faulted(
    kernel: &mut Kernel,
    cfg: &BtMzConfig,
    setup: &SchedulerSetup,
    faults: Option<&MpiFaultConfig>,
) -> (Vec<TaskId>, Mpi) {
    let n = cfg.ranks();
    let mpi = Mpi::new(n, MpiConfig::default());
    if let Some(f) = faults {
        mpi.install_faults(*f);
    }
    let programs: Vec<Box<dyn Program>> = cfg
        .zone_work
        .iter()
        .enumerate()
        .map(|(rank, &work)| {
            Box::new(ZoneRank {
                mpi: mpi.clone(),
                rank,
                size: n,
                work,
                iterations: cfg.iterations,
                done_iters: 0,
                exchange_bytes: cfg.exchange_bytes,
                phase: Phase::Compute,
            }) as Box<dyn Program>
        })
        .collect();
    (spawn_ranks(kernel, "btmz", programs, setup, cfg.perf), mpi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedsim::KernelBuilder;
    use power5::HwPriority;
    use simcore::SimDuration;

    fn short_cfg() -> BtMzConfig {
        BtMzConfig {
            zone_work: vec![0.007, 0.011, 0.025, 0.038],
            iterations: 20,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_utilization_is_graded() {
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let (ranks, _) = spawn_faulted(&mut k, &short_cfg(), &SchedulerSetup::Baseline, None);
        let end = k.run_until_exited(&ranks, SimDuration::from_secs(60)).expect("finishes");
        let u: Vec<f64> = ranks.iter().map(|&r| k.task(r).cpu_utilization(end)).collect();
        assert!(u[0] < u[1] && u[1] < u[2] && u[2] < u[3], "graded utils {u:?}");
        assert!(u[3] > 0.9, "critical rank busy {}", u[3]);
    }

    #[test]
    fn no_global_barrier_lets_neighbours_run_ahead() {
        // With ring-only coupling the simulation must finish even though
        // ranks progress at different speeds.
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let (ranks, _) = spawn_faulted(&mut k, &short_cfg(), &SchedulerSetup::Baseline, None);
        assert!(k.run_until_exited(&ranks, SimDuration::from_secs(60)).is_some());
    }

    #[test]
    fn hpc_raises_critical_rank_and_improves_time() {
        let cfg = short_cfg();
        let mut kb = KernelBuilder::new().without_hpc_class().build();
        let (base_ranks, _) = spawn_faulted(&mut kb, &cfg, &SchedulerSetup::Baseline, None);
        let base =
            kb.run_until_exited(&base_ranks, SimDuration::from_secs(60)).unwrap().as_secs_f64();

        let mut kh = KernelBuilder::new().build();
        let (hpc_ranks, _) = spawn_faulted(&mut kh, &cfg, &SchedulerSetup::Hpc, None);
        let hpc =
            kh.run_until_exited(&hpc_ranks, SimDuration::from_secs(60)).unwrap().as_secs_f64();
        assert_eq!(kh.task(hpc_ranks[3]).hw_prio, HwPriority::HIGH);
        assert!(hpc < base * 0.95, "hpc {hpc} vs base {base}");
    }

    #[test]
    fn static_priorities_target_critical_rank() {
        let cfg = BtMzConfig::default();
        assert_eq!(
            cfg.static_priorities(),
            vec![
                HwPriority::MEDIUM,
                HwPriority::MEDIUM,
                HwPriority::MEDIUM,
                HwPriority::HIGH
            ]
        );
    }
}
