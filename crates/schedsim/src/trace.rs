//! The kernel's trace and its observers.
//!
//! The kernel emits a [`TraceRecord`] on every scheduler-visible transition
//! and delivers it, as a [`KernelEvent`], to every [`Observer`] attached
//! with [`Kernel::observe`](crate::Kernel::observe). That stream is the
//! trace and nothing else: counts live in the kernel's
//! [`MetricsRegistry`](telemetry::MetricsRegistry). The kernel stays
//! agnostic of storage and rendering — the same role PARAVER's
//! instrumentation plays in the paper's evaluation. Shared handles such as
//! [`SharedSink`] stay with the caller, so the kernel never has to give a
//! sink back.

use crate::task::{TaskId, TaskState};
use power5::{CpuId, HwPriority};
use simcore::SimTime;

/// What happened.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// Task created.
    Spawn { name: String },
    /// Task changed scheduler-visible state.
    State { state: TaskState, cpu: Option<CpuId> },
    /// The hardware priority applied for this task changed.
    HwPrio { prio: HwPriority },
    /// An iteration (compute + wait phase) completed, with its utilization
    /// in `[0,1]`.
    IterationEnd { index: u64, utilization: f64 },
    /// Task exited.
    Exit,
}

/// A timestamped, task-attributed trace record.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    pub time: SimTime,
    pub task: TaskId,
    pub event: TraceEvent,
}

/// One item of the kernel's observation stream.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelEvent {
    /// A scheduler-visible task transition.
    Trace(TraceRecord),
}

/// Receives the kernel's observation stream.
pub trait Observer: Send {
    fn on_event(&mut self, event: &KernelEvent);
}

/// A sink writing into a shared buffer, so callers keep access to the
/// records while the kernel owns the sink.
#[derive(Clone, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "an append-only record buffer with exactly one writer per kernel; record \
              order is the kernel's own event order"
)]
pub struct SharedSink {
    records: std::sync::Arc<std::sync::Mutex<Vec<TraceRecord>>>,
}

impl SharedSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the records collected so far.
    ///
    /// Poison-proof: a panic on another thread mid-`push` cannot leave the
    /// Vec in a broken state, so recover the inner buffer instead of
    /// cascading the poison into every later reader.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl Observer for SharedSink {
    fn on_event(&mut self, event: &KernelEvent) {
        let KernelEvent::Trace(rec) = event;
        self.records.lock().unwrap_or_else(|p| p.into_inner()).push(rec.clone());
    }
}
