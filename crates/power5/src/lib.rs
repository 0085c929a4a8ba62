//! Simulated IBM POWER5 processor.
//!
//! The POWER5 is a dual-core chip whose cores are 2-way SMT. Each hardware
//! context has a *hardware thread priority* in `0..=7`; the core arbitrates
//! decode cycles between its two contexts according to the priority
//! difference (paper Table I): with difference `d`, every
//! `R = 2^(|d|+1)` cycles the lower-priority thread decodes once and the
//! higher-priority thread `R - 1` times. Priorities 0 (context off),
//! 1 (background) and 7 (single-thread mode) are special.
//!
//! This crate models everything the paper's scheduler can observe or control:
//!
//! * [`topology`] — chips, cores, hardware contexts (what Linux sees as CPUs)
//!   and the domain hierarchy used by load balancing;
//! * [`priority`] — the 8 priority levels, the privilege rules and the
//!   `or X,X,X` nop encodings of paper Table II;
//! * [`decode`] — the decode-slot arbiter of paper Table I, both as a
//!   closed-form share calculation and as a slot-accurate reference
//!   implementation used to cross-check it;
//! * [`perf`] — the SMT performance model translating (my priority, sibling
//!   priority) into task speed factors, calibrated against the speedups and
//!   slowdowns the paper reports;
//! * [`chip`] — the stateful chip: per-context priority registers mutated via
//!   simulated `or`-nops with privilege checking.

#![forbid(unsafe_code)]

pub mod chip;
pub mod decode;
pub mod perf;
pub mod priority;
pub mod topology;

pub use chip::{Chip, ContextState, IdleMode};
pub use decode::{decode_interval, decode_share, DecodeSplit};
pub use perf::{AnalyticModel, CtxLoad, PerfModel, SmtPerfModel, SpeedFactors, TableModel, TaskPerfTraits};
pub use priority::{HwPriority, PriorityError, PrivilegeLevel};
pub use topology::{
    ChipId, ContextId, CoreId, CpuId, Level, LevelKind, Topology, TopologyError,
};
