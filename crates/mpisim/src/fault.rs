//! MPI-level fault hooks (class 3 of the fault model): message delay
//! spikes and rank stall/crash.
//!
//! As with the kernel hooks, this module is mechanism only. The `faultsim`
//! crate compiles a seeded plan into an [`MpiFaultConfig`], which a runner
//! installs with `Mpi::install_faults`. A world with no fault config draws
//! no random values and behaves bit-for-bit as before.
//!
//! Crash semantics: workload programs poll `Mpi::take_crash` at their
//! iteration boundaries (the last completed barrier — the only place a
//! checkpoint exists). A fired directive returns its [`RankFailurePolicy`]:
//!
//! * [`RankFailurePolicy::FailStop`] — the rank calls `Mpi::abort`, every
//!   blocked rank is released, all ranks observe `Mpi::aborted` and exit;
//!   the job ends cleanly with partial results and a typed error upstream.
//! * [`RankFailurePolicy::RestartFromIteration`] — the rank blocks for the
//!   configured recovery delay and re-executes the iteration it was in,
//!   modelling checkpoint/restart. The rest of the job just observes a
//!   straggler.

use crate::world::Rank;
use simcore::{SimDuration, SimRng};

/// What happens when the configured rank crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankFailurePolicy {
    /// The whole job aborts cleanly (partial results + trace still
    /// returned, tagged with a typed error by the runner).
    FailStop,
    /// Checkpoint/restart: the rank re-enters at the last completed
    /// barrier after `delay` of simulated recovery time.
    RestartFromIteration { delay: SimDuration },
}

/// A rank crash directive: fires once `rank` has completed `at_iteration`
/// iterations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankCrash {
    pub rank: Rank,
    pub at_iteration: u32,
    pub policy: RankFailurePolicy,
}

/// Fault configuration for one MPI world.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MpiFaultConfig {
    /// Per-message probability of a delay spike, in `[0, 1]`.
    pub delay_prob: f64,
    /// Extra latency a spiked message suffers.
    pub delay_extra: SimDuration,
    /// Seed of the spike stream. Draws happen in message-send order, which
    /// the kernel's deterministic event order fixes, so spikes are
    /// reproducible for a given `(config, seed, plan)`.
    pub seed: u64,
    /// Optional crash directive.
    pub crash: Option<RankCrash>,
}

/// Live fault state inside a world (one per installed config).
pub(crate) struct MpiFaultState {
    pub(crate) cfg: MpiFaultConfig,
    pub(crate) rng: SimRng,
    pub(crate) delays_injected: u64,
    pub(crate) restarts: u64,
    pub(crate) crash_consumed: bool,
}

impl MpiFaultState {
    pub(crate) fn new(cfg: MpiFaultConfig) -> Self {
        MpiFaultState {
            cfg,
            rng: SimRng::seed_from_u64(cfg.seed),
            delays_injected: 0,
            restarts: 0,
            crash_consumed: false,
        }
    }
}

/// Snapshot of per-world fault accounting, for reports and baselines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MpiFaultStats {
    /// Messages that suffered an injected delay spike.
    pub delays_injected: u64,
    /// Checkpoint/restart re-entries the job absorbed.
    pub restarts: u64,
    /// `(rank, completed iterations)` of a fail-stop abort, if one fired.
    pub aborted_by: Option<(usize, u32)>,
}
