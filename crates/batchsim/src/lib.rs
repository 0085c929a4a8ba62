//! Two-level batch scheduling over HPCSched clusters.
//!
//! The paper balances threads *within* one MPI job; a real machine runs
//! that local scheduler underneath a batch system that decides which jobs
//! occupy the nodes at all (cf. Eleliemy et al. and Mohammed et al. on
//! two-level scheduling). This crate is that missing layer:
//!
//! * [`job`] — a gang-scheduled [`JobSpec`] (per-rank load estimates)
//!   plus queue metadata;
//! * [`arrivals`] — two deterministic generators over the calibrated
//!   workload shapes: the bundled heavy/light mix used by the EASY-vs-FCFS
//!   acceptance comparison, and the lazy fleet-scale class-catalog stream;
//! * [`discipline`] — FCFS, SJF, and EASY backfill with reservation
//!   correctness;
//! * [`placement`] — gang placement over a node catalog ([`place_on`]):
//!   round-robin, greedy LPT, **SMT-aware** placement that pairs heavy
//!   and light ranks because the local HPCSched can absorb intra-core
//!   imbalance through the ±2 hardware-priority range, and **NUMA-aware**
//!   placement that also keeps a gang inside one NUMA node;
//! * [`shape`] — node catalogs: each node's scheduling-domain tree
//!   ([`power5::Topology`]) and relative speed;
//! * [`node`] — per-node execution: [`run_node`] runs a node's ranks on a
//!   real `schedsim` kernel (with or without the HPC class); the engine
//!   runs each node serially under a retry/quarantine/watchdog supervisor
//!   (the private `exec` module);
//! * [`sim`] — the event-driven engine: admitted gangs are placed through
//!   [`place_on`] and executed on per-job `schedsim` kernels (HPC,
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
//! The node layer is the paper's future work (§VI): *"assigning the
//! correct group of tasks to each node (gang scheduling) considering that
//! the local scheduler (in our case HPCSched) is able to dynamically
//! assign more or less hardware resource to each task."* A gang's nodes
//! run independently and the job completes when the slowest node does,
//! plus an allreduce latency per iteration — the standard
//! bulk-synchronous approximation.
//!
//! Everything is a pure function of `(stream, config, fault)` — see the
//! determinism argument in [`sim`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod arrivals;
pub mod checkpoint;
pub mod discipline;
mod exec;
pub mod fleet;
pub mod index;
pub mod job;
pub mod node;
pub mod pending;
pub mod placement;
pub mod shape;
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
pub use job::{BatchJob, JobSpec};
pub use node::{run_node, LocalSched, NodeRun};
pub use pending::PendingQueue;
pub use placement::{place_on, Placement, PlacementError, PlacementStrategy};
pub use shape::{NodeShape, TopoPreset};
pub use sim::{
    resume_batch, run_batch, run_batch_checkpointed, run_batch_until, run_fleet,
    run_fleet_until, text_fnv1a, BatchConfig, BatchEvent, BatchFault, BatchOutcome,
    ClusterOutcome, ClusterResult, FleetShape, FnvWriter, JobRecord, NodeFailureRecord,
    ReservationRecord,
};
pub use stats::FleetStats;
