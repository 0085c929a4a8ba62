//! Two-level batch scheduling over HPCSched clusters.
//!
//! The paper balances threads *within* one MPI job; a real machine runs
//! that local scheduler underneath a batch system that decides which jobs
//! occupy the nodes at all (cf. Eleliemy et al. and Mohammed et al. on
//! two-level scheduling). This crate is that missing layer:
//!
//! * [`job`] — a [`cluster::JobSpec`] gang plus queue metadata;
//! * [`arrivals`] — two deterministic generators over the calibrated
//!   workload shapes: the bundled heavy/light mix used by the EASY-vs-FCFS
//!   acceptance comparison, and the lazy fleet-scale class-catalog stream;
//! * [`discipline`] — FCFS, SJF, and EASY backfill with reservation
//!   correctness;
//! * [`sim`] — the event-driven engine: admitted gangs are placed through
//!   [`cluster::place`] and executed on per-job `schedsim` kernels (HPC,
//!   Linux-like CFS, or static-priority mode); node failures hit the
//!   *queued* system, so re-placement competes with pending jobs. Every
//!   run returns one [`BatchOutcome`], carrying the engine's running trace
//!   hash and statistics accumulator;
//! * [`fleet`] — million-job runs: the same engine over a lazy stream with
//!   its recording off, O(1) in memory, sized by [`scaled_config`];
//! * [`stats`] — fleet-wide wait/turnaround/slowdown/utilization/backfill
//!   figures;
//! * [`checkpoint`] — crash-consistent checkpoint/restore: versioned,
//!   checksummed images of the engine state with atomic on-disk rotation;
//!   [`resume_batch`] continues a batch or fleet image to a trace
//!   byte-identical to the uninterrupted run.
//!
//! Everything is a pure function of `(stream, config, fault)` — see the
//! determinism argument in [`sim`].

pub mod arrivals;
pub mod checkpoint;
pub mod discipline;
pub mod fleet;
pub mod index;
pub mod job;
pub mod pending;
pub mod sim;
pub mod stats;

pub use arrivals::{
    class_catalog, heavy_light_mix, ClassSpec, FleetJobs, FleetStreamConfig, JobTemplate,
};
pub use checkpoint::{
    BatchCheckpoint, CheckpointPolicy, CheckpointStore, StoreError, BATCH_CHECKPOINT_VERSION,
};
pub use discipline::Discipline;
pub use fleet::{scaled_config, FleetAccum, FleetConfig};
pub use index::ReleaseIndex;
pub use job::BatchJob;
pub use pending::PendingQueue;
pub use sim::{
    resume_batch, run_batch, run_batch_checkpointed, run_batch_until, run_fleet,
    run_fleet_until, text_fnv1a, BatchConfig, BatchEvent, BatchFault, BatchOutcome,
    ClusterOutcome, ClusterResult, FleetShape, FnvWriter, JobRecord, NodeFailureRecord,
    ReservationRecord,
};
pub use stats::FleetStats;

// The heterogeneous-fleet vocabulary types, re-exported so fleet callers
// can build shapes without a direct `cluster` dependency.
pub use cluster::{NodeShape, TopoPreset};
