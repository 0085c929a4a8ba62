//! Discrete-event simulation of the Linux 2.6.2x scheduler framework
//! (paper §III), hosting simulated tasks on a simulated POWER5 chip.
//!
//! The framework mirrors the structure the paper builds on:
//!
//! * a **Scheduler Core** ([`Kernel`]) that owns per-CPU state and walks an
//!   ordered chain of **Scheduling Classes** to pick the next task — no task
//!   from a lower class runs while a higher class has runnable work;
//! * a **real-time class** ([`classes::RtClass`]) with per-priority
//!   round-robin queues (the old O(1)-style design);
//! * the **CFS class** ([`classes::FairClass`]) with a run queue ordered by
//!   virtual runtime (a `BTreeSet` of `(vruntime, task id)`);
//! * an **idle class** ([`classes::IdleClass`]) that always has something to
//!   run;
//! * scheduling-domain aware **load balancing** hooks, wakeup preemption,
//!   per-task accounting (exec / wait / sleep, per-iteration run+sleep), and
//!   scheduler-latency measurement;
//! * an **OS noise** model ([`noise`]) of per-CPU background daemons.
//!
//! The paper's own class (`SCHED_HPC`) is [`classes::BalancedClass`]: a
//! thin driver inserted between the real-time and CFS classes (Figure 1(b))
//! that owns the HPC run queues and delegates every balancing *decision*
//! to a pluggable [`Balancer`]. The policies implementing that trait — the
//! paper's Table-I policy and the LB4OMP-style dynamic techniques — live
//! in [`policies`], selectable by name through [`policies::registry`] and
//! [`KernelBuilder::policy`].
//!
//! Simulated tasks execute [`program::Program`]s: state machines yielding
//! compute segments, blocking waits and exits. Blocking and waking is how
//! the kernel observes the *iterations* (compute phase + wait phase) that
//! drive the paper's Load Imbalance Detector.

#![forbid(unsafe_code)]

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod balance;
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod balancer;
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod builder;
pub mod class;
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod classes;
pub mod config;
pub mod error;
pub mod fault;
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod kernel;
pub mod noise;
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod policies;
pub mod policy;
pub mod program;
pub mod task;
pub mod trace;

pub use balance::BalanceView;
pub use balancer::{Balancer, IterSample, PrioAssignment, SampleOutcome};
pub use builder::{HpcSchedConfig, KernelBuilder, PerfModelChoice};
pub use class::{ClassCtx, SchedClass};
pub use classes::{BalancedClass, HpcPolicyKind};
pub use config::{CfsTunables, KernelConfig, NoiseConfig};
pub use error::SchedError;
pub use fault::FaultEvent;
pub use kernel::{Kernel, NewTask, SpawnOptions};
pub use policy::SchedPolicy;
pub use program::{Action, KernelApi, Program, WaitToken, Work};
pub use task::{Task, TaskId, TaskState};
pub use trace::{KernelEvent, Observer, SharedSink, TraceEvent, TraceRecord};
