//! SIESTA — an ab-initio materials-simulation application (paper §V-D).
//!
//! SIESTA's scheduler-visible behaviour, per the paper: execution phases
//! are *very small*, tasks exchange *many messages*, iterations are **not**
//! representative of each other (per-iteration variability defeats the
//! iteration-i-predicts-i+1 assumption), and the application is highly
//! sensitive to scheduler latency. The imbalance comes from both the
//! algorithm and the input set (benzene), producing the lopsided baseline
//! profile of paper Table VI (98.9 / 52.8 / 28.5 / 20.0% utilization).
//!
//! The synthetic equivalent: a hub-and-spokes self-consistency loop. Rank 0
//! (the "diagonalization owner") computes most of each round and exchanges
//! a request/reply message pair with every other rank, many rounds per
//! iteration, with strong random per-round jitter. This preserves exactly
//! the properties the paper's analysis rests on.

use crate::spawn::{poll_crash, spawn_ranks, CrashAction, SchedulerSetup};
use mpisim::{Mpi, MpiConfig, MpiFaultConfig};
use schedsim::{Action, Kernel, KernelApi, Program, TaskId};
use simcore::SimRng;

/// SIESTA configuration.
#[derive(Clone, Debug)]
pub struct SiestaConfig {
    /// Mean compute work per *iteration* for each rank; rank 0 is the hub.
    pub rank_work: Vec<f64>,
    /// Self-consistency iterations.
    pub iterations: u32,
    /// Fine-grained compute/message rounds per iteration.
    pub rounds: u32,
    /// Relative per-round jitter (standard deviation of the work factor).
    pub jitter: f64,
    /// Request/reply payload bytes.
    pub msg_bytes: u64,
    /// SMT traits: SIESTA is a memory-intensive DFT code — modest gain
    /// from extra decode slots, modest loss when starved (EXPERIMENTS.md).
    pub perf: power5::TaskPerfTraits,
    pub seed: u64,
}

impl Default for SiestaConfig {
    fn default() -> Self {
        // Calibration (EXPERIMENTS.md): hub 2.35 units/iteration over 25
        // iterations plus per-round messaging ≈ 81.5 s baseline; spoke work
        // scaled to the paper's baseline utilization profile.
        SiestaConfig {
            rank_work: vec![2.35, 1.38, 0.72, 0.51],
            iterations: 25,
            rounds: 50,
            jitter: 0.6,
            msg_bytes: 8 * 1024,
            perf: power5::TaskPerfTraits::new(0.45, 0.10),
            seed: 0x51E57A,
        }
    }
}

impl SiestaConfig {
    pub fn ranks(&self) -> usize {
        self.rank_work.len()
    }
}

enum HubPhase {
    Compute,
    Gather,
    Reply,
    Done,
}

/// Rank 0: compute, collect one message from every spoke, reply to all.
struct Hub {
    mpi: Mpi,
    size: usize,
    work_per_round: f64,
    rounds_total: u64,
    done_rounds: u64,
    jitter: f64,
    msg_bytes: u64,
    rng: SimRng,
    phase: HubPhase,
}

impl Program for Hub {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            HubPhase::Compute => {
                match poll_crash(&self.mpi, api, 0, self.done_rounds.min(u32::MAX as u64) as u32) {
                    Some(CrashAction::Abort(a)) => {
                        self.phase = HubPhase::Done;
                        return a;
                    }
                    Some(CrashAction::Restart(a)) => return a,
                    None => {}
                }
                self.phase = HubPhase::Gather;
                let f = self.rng.normal_clamped(1.0, self.jitter, 0.2, 3.0);
                Action::Compute(self.work_per_round * f)
            }
            HubPhase::Gather => {
                let tag = (self.done_rounds % i32::MAX as u64) as i32;
                let reqs: Vec<_> = (1..self.size)
                    .map(|src| self.mpi.irecv(api, 0, Some(src), Some(tag)))
                    .collect();
                let tok = self.mpi.waitall(api, &reqs);
                self.phase = HubPhase::Reply;
                Action::Block(tok)
            }
            HubPhase::Reply => {
                let tag = (self.done_rounds % i32::MAX as u64) as i32;
                for dst in 1..self.size {
                    self.mpi.send(api, 0, dst, tag, self.msg_bytes);
                }
                self.done_rounds += 1;
                self.phase = if self.done_rounds >= self.rounds_total {
                    HubPhase::Done
                } else {
                    HubPhase::Compute
                };
                // Assembling the replies costs a little CPU.
                Action::Compute(self.work_per_round * 0.02)
            }
            HubPhase::Done => Action::Exit,
        }
    }
}

enum SpokePhase {
    Compute,
    Exchange,
    Done,
}

/// Ranks 1..n: compute, send the request, block on the reply.
struct Spoke {
    mpi: Mpi,
    rank: usize,
    work_per_round: f64,
    rounds_total: u64,
    done_rounds: u64,
    jitter: f64,
    msg_bytes: u64,
    rng: SimRng,
    phase: SpokePhase,
}

impl Program for Spoke {
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        if self.mpi.aborted() {
            return Action::Exit;
        }
        match self.phase {
            SpokePhase::Compute => {
                match poll_crash(
                    &self.mpi,
                    api,
                    self.rank,
                    self.done_rounds.min(u32::MAX as u64) as u32,
                ) {
                    Some(CrashAction::Abort(a)) => {
                        self.phase = SpokePhase::Done;
                        return a;
                    }
                    Some(CrashAction::Restart(a)) => return a,
                    None => {}
                }
                self.phase = SpokePhase::Exchange;
                let f = self.rng.normal_clamped(1.0, self.jitter, 0.2, 3.0);
                Action::Compute(self.work_per_round * f)
            }
            SpokePhase::Exchange => {
                let tag = (self.done_rounds % i32::MAX as u64) as i32;
                self.mpi.send(api, self.rank, 0, tag, self.msg_bytes);
                let tok = self.mpi.recv(api, self.rank, Some(0), Some(tag));
                self.done_rounds += 1;
                self.phase = if self.done_rounds >= self.rounds_total {
                    SpokePhase::Done
                } else {
                    SpokePhase::Compute
                };
                Action::Block(tok)
            }
            SpokePhase::Done => Action::Exit,
        }
    }
}

/// Spawn SIESTA with optional MPI fault injection; rank r lands on CPU r.
/// Returns the rank ids and the MPI world handle.
pub fn spawn_faulted(
    kernel: &mut Kernel,
    cfg: &SiestaConfig,
    setup: &SchedulerSetup,
    faults: Option<&MpiFaultConfig>,
) -> (Vec<TaskId>, Mpi) {
    let n = cfg.ranks();
    assert!(n >= 2, "siesta needs a hub and at least one spoke");
    let mpi = Mpi::new(n, MpiConfig::default());
    if let Some(f) = faults {
        mpi.install_faults(*f);
    }
    let rounds_total = cfg.iterations as u64 * cfg.rounds as u64;
    let mut seed_rng = SimRng::seed_from_u64(cfg.seed);
    let mut programs: Vec<Box<dyn Program>> = Vec::with_capacity(n);
    programs.push(Box::new(Hub {
        mpi: mpi.clone(),
        size: n,
        work_per_round: cfg.rank_work[0] / cfg.rounds as f64,
        rounds_total,
        done_rounds: 0,
        jitter: cfg.jitter,
        msg_bytes: cfg.msg_bytes,
        rng: seed_rng.fork(0),
        phase: HubPhase::Compute,
    }));
    for rank in 1..n {
        programs.push(Box::new(Spoke {
            mpi: mpi.clone(),
            rank,
            work_per_round: cfg.rank_work[rank] / cfg.rounds as f64,
            rounds_total,
            done_rounds: 0,
            jitter: cfg.jitter,
            msg_bytes: cfg.msg_bytes,
            rng: seed_rng.fork(rank as u64),
            phase: SpokePhase::Compute,
        }));
    }
    (spawn_ranks(kernel, "siesta", programs, setup, cfg.perf), mpi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedsim::KernelBuilder;
    use schedsim::NoiseConfig;
    use simcore::SimDuration;

    fn short_cfg() -> SiestaConfig {
        SiestaConfig {
            rank_work: vec![0.06, 0.028, 0.017, 0.012],
            iterations: 6,
            rounds: 10,
            ..Default::default()
        }
    }

    #[test]
    fn baseline_profile_is_lopsided() {
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let (ranks, _) = spawn_faulted(&mut k, &short_cfg(), &SchedulerSetup::Baseline, None);
        let end = k.run_until_exited(&ranks, SimDuration::from_secs(60)).expect("finishes");
        let u: Vec<f64> = ranks.iter().map(|&r| k.task(r).cpu_utilization(end)).collect();
        assert!(u[0] > 0.85, "hub nearly always busy: {u:?}");
        assert!(u[1] > u[2] && u[2] > u[3], "graded spokes: {u:?}");
    }

    #[test]
    fn iterations_are_noisy() {
        // The per-iteration utilization of a spoke varies run to run — the
        // property that defeats iteration-based prediction.
        let mut k = KernelBuilder::new().without_hpc_class().build();
        let cfg = short_cfg();
        let (ranks, _) = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Baseline, None);
        k.run_until_exited(&ranks, SimDuration::from_secs(60)).expect("finishes");
        // Spokes block once per round: plenty of iterations recorded.
        let iters = k.task(ranks[1]).iter.iterations;
        assert!(iters >= (cfg.iterations * cfg.rounds) as u64 / 2, "iters {iters}");
    }

    #[test]
    fn hpc_with_noise_still_finishes_and_does_not_regress() {
        let cfg = short_cfg();
        let run = |hpc: bool| {
            let builder = KernelBuilder::new().noise(NoiseConfig::light()).seed(7);
            let (mut k, setup) = if hpc {
                (builder.build(), SchedulerSetup::Hpc)
            } else {
                (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
            };
            let (ranks, _) = spawn_faulted(&mut k, &cfg, &setup, None);
            k.run_until_exited(&ranks, SimDuration::from_secs(120)).expect("finishes").as_secs_f64()
        };
        let base = run(false);
        let hpc = run(true);
        assert!(hpc <= base * 1.01, "hpc {hpc} vs baseline {base}");
    }

    #[test]
    #[should_panic(expected = "hub and at least one spoke")]
    fn rejects_single_rank() {
        let mut k = KernelBuilder::new().build();
        let cfg = SiestaConfig { rank_work: vec![1.0], ..Default::default() };
        let _ = spawn_faulted(&mut k, &cfg, &SchedulerSetup::Baseline, None);
    }
}
