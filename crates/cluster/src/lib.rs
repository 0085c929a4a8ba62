//! Cluster-level scheduling over HPCSched nodes.
//!
//! The paper's future work (§VI): *"we plan to expand our solution at
//! cluster level … there is another level of load balancing which consists
//! of assigning the correct group of tasks to each node (gang scheduling)
//! considering that the local scheduler (in our case HPCSched) is able to
//! dynamically assign more or less hardware resource to each task."*
//!
//! This crate builds that layer:
//!
//! * [`job`] — a gang-scheduled MPI job: per-rank load estimates;
//! * [`placement`] — gang placement strategies: naive round-robin, classic
//!   greedy LPT bin-packing, **SMT-aware** placement that knows the
//!   local HPCSched can absorb intra-core imbalance up to the capacity of
//!   the ±2 hardware-priority range, and **NUMA-aware** placement that
//!   additionally packs gangs inside one NUMA node of a heterogeneous
//!   catalog ([`place_on`]);
//! * [`shape`] — heterogeneous node catalogs: per-node scheduling-domain
//!   trees ([`power5::Topology`]) and relative speed factors;
//! * [`node`] — per-node execution: each node runs a *real* `schedsim`
//!   kernel (with or without the HPC class) over its assigned ranks, on
//!   its own topology when the catalog is heterogeneous.
//!
//! Jobs run through `batchsim`, even one at a time: for a
//! barrier-synchronized SPMD job the nodes execute independently and the
//! job completes when the slowest node does, plus an allreduce latency
//! per iteration — the standard bulk-synchronous approximation.

pub mod job;
pub mod node;
pub mod placement;
pub mod shape;

pub use job::JobSpec;
pub use node::{run_node, static_prios, LocalSched, NodeRun, NodeTrace};
pub use placement::{place, place_on, Placement, PlacementError, PlacementStrategy};
pub use shape::{NodeShape, TopoPreset};
