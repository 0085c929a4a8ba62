//! Runtime correctness tooling for the simulator workspace (DESIGN.md §8):
//!
//! * [`conformance`] — a linear-time validator over the trace records a
//!   [`schedsim::SharedSink`] collects, asserting the paper's runtime
//!   invariants: HPC hardware priorities stay inside the tunable bounds,
//!   decode-slot arbitration agrees with Table I, simulated time never runs
//!   backwards, one task per CPU, and telemetry counters reconcile with the
//!   trace.
//! * [`determinism`] — runs a workload twice with one seed and reports the
//!   first diverging trace record (EXPERIMENTS.md reproducibility rests on
//!   runs being pure functions of `(config, seed)`).
//!
//! The static half of that contract — no clocks, hash-ordered collections,
//! shared mutable state, I/O or unchecked panics in simulation code — is
//! checked by the compiler: the root `clippy.toml` lists and the lint
//! attributes on the crate roots (DESIGN.md §8).

#![forbid(unsafe_code)]

pub mod conformance;
pub mod determinism;
