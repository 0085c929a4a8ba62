//! Deterministic fault injection for the HPCSched simulation stack.
//!
//! The paper's transparency claim (§IV, §V) is that the HPC scheduling class
//! "does no harm": it must converge under noisy, shifting load and never
//! perform worse than the default scheduler. Exercising that claim requires
//! *injecting* perturbations, the way simulator-validation work does
//! (Mohammed et al., arXiv:1910.06844; the two-level load-balancing
//! robustness study, arXiv:1911.06714). This crate is the injection layer.
//!
//! A [`FaultPlan`] is a declarative, seeded description of every fault a run
//! should experience. Plans compile into per-layer hook inputs:
//!
//! * **OS noise / daemon interference** — timed CPU steal bursts, injected
//!   into `schedsim` as [`schedsim::fault::FaultEvent::StealBurst`];
//! * **compute slowdown / straggler drift** — per-task speed multipliers
//!   that change mid-run ([`schedsim::fault::FaultEvent::SlowTask`]), which
//!   the detector + heuristics must re-balance around;
//! * **MPI delay spikes and rank crashes** — an [`mpisim::fault::MpiFaultConfig`]
//!   installed into the MPI world, with [`CrashPolicy::FailStop`] (job aborts
//!   cleanly with a typed [`FaultError`]) or [`CrashPolicy::Restart`]
//!   (checkpoint/restart: the rank re-enters at the last completed barrier);
//! * **node failure** — a spec the batch simulator uses to mark a node
//!   down and requeue the job running there onto the survivors
//!   (`batchsim::BatchFault::from_spec`).
//!
//! # Determinism
//!
//! A plan is a pure function of its textual spec: compilation draws only
//! from the plan's own [`SplitMix64`] stream seeded by [`FaultPlan::seed`],
//! never from a wall clock or from any simulator RNG. The same
//! `(config, seed, plan)` triple therefore always produces the same trace,
//! and an empty plan compiles to *nothing* — no events, no RNG draws — so a
//! run with [`FaultPlan::default`] is byte-identical to a run without
//! faultsim wired in at all.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod error;
pub mod plan;
pub mod rng;
pub mod summary;

pub use error::FaultError;
pub use plan::{
    CkptCorruptSpec, CrashPolicy, CrashSpec, DelaySpec, FaultPlan, NodeFailSpec, SlowSpec,
    SpecError, StealSpec, TaskAbortSpec,
};
pub use rng::SplitMix64;
pub use summary::FaultSummary;
