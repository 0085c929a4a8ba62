//! The paper's four evaluation applications, rebuilt as simulated MPI
//! programs (paper §V):
//!
//! * [`metbench`] — the BSC *Minimum Execution Time Benchmark*: a master
//!   and N workers with per-worker loads and a strict global barrier per
//!   iteration. Imbalance is injected by giving SMT-sibling workers
//!   different load sizes.
//! * [`metbenchvar`] — MetBench with the load assignment reversed every
//!   `k` iterations (the dynamic-behaviour stressor of §V-B).
//! * [`btmz`] — a BT-MZ-alike: uneven zone sizes, per-iteration neighbour
//!   exchange with `isend`/`irecv`/`waitall` (no global barrier), 200
//!   iterations (§V-C).
//! * [`siesta`] — a SIESTA-alike: a hub-and-spokes self-consistency loop
//!   with many fine-grained compute/message rounds and strong per-iteration
//!   variability, so iteration *i* is not representative of *i+1* (§V-D).
//!
//! [`synthetic`] provides the reusable compute-barrier skeleton for custom
//! imbalance shapes.
//!
//! Each module exposes a config struct calibrated (see `EXPERIMENTS.md`)
//! so the *baseline* run reproduces the per-task utilization profile of the
//! paper's tables, and a `spawn_faulted` function that plants the ranks into a
//! [`schedsim::Kernel`] under a chosen scheduling setup.

pub mod btmz;
pub mod metbench;
pub mod metbenchvar;
pub mod siesta;
pub mod spawn;
pub mod synthetic;
pub mod templates;

pub use spawn::{spawn_ranks, SchedulerSetup};
