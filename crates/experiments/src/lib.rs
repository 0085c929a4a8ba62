//! Shared experiment runner: every table and figure of the paper's
//! evaluation section (§V) is regenerated through this harness. See
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for the
//! measured-vs-paper record.

pub mod benchfile;
pub mod cli;
pub mod paper;
pub mod report;
pub mod runner;

pub use runner::{run, run_modes, try_run, ExperimentMode, RunResult, WorkloadKind};
