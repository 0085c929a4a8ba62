//! Discrete-event simulation core shared by every crate in the HPCSched
//! reproduction stack.
//!
//! The whole reproduction is a *simulation*: the paper's scheduler runs inside
//! a Linux kernel on a real POWER5 machine, while ours runs inside a
//! deterministic discrete-event model of both. This crate provides the three
//! primitives everything else is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a deterministically-ordered event queue with re-armable
//!   timer lanes,
//! * [`SimRng`] — a seeded RNG with the distribution helpers the workload and
//!   OS-noise models need,
//!
//! plus [`snapshot`] — versioned, checksummed, byte-stable state encoding
//! for crash-consistent checkpoint/restore.
//!
//! # Determinism
//!
//! Every simulation run in this workspace is a pure function of its
//! configuration and a `u64` seed. The event queue breaks timestamp ties with
//! a monotonically increasing sequence number so iteration order never depends
//! on heap internals, and [`SimRng`] is an explicitly-seeded `SmallRng`.

#![forbid(unsafe_code)]

pub mod event;
pub mod rng;
pub mod snapshot;
pub mod time;

pub use event::{EventQueue, EventQueueCounters, ScheduledEvent};
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
