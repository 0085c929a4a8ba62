//! A simulated MPI layer over the `schedsim` kernel.
//!
//! The paper's workloads are MPI applications (MPICH 1.0.4 on a single
//! node); what the *scheduler* observes of MPI is the alternation of
//! compute phases and blocking waits — `mpi_barrier` in MetBench,
//! `mpi_isend`/`mpi_irecv`/`mpi_waitall` in BT-MZ, fine-grained send/recv
//! in SIESTA. This crate reproduces those semantics:
//!
//! * eager point-to-point messages with a latency + bandwidth cost model
//!   and MPI's non-overtaking FIFO matching by `(source, tag)`;
//! * non-blocking requests (`isend`/`irecv`) and `wait`/`waitall`;
//! * collectives (barrier, bcast, reduce, allreduce, gather, alltoall)
//!   with a logarithmic-tree cost model.
//!
//! Every potentially blocking call returns a [`schedsim::WaitToken`]; the
//! calling program returns `Action::Block(token)` and the kernel puts the
//! task to sleep until the operation completes — which is precisely the
//! "waiting phase" the paper's Load Imbalance Detector measures.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod collective;
pub mod config;
pub mod fault;
pub mod world;

pub use collective::CollectiveOp;
pub use config::MpiConfig;
pub use fault::{MpiFaultConfig, MpiFaultStats, RankCrash, RankFailurePolicy};
pub use world::{Mpi, MpiWorld, Rank, Request};
