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

use std::cell::RefCell;
use std::rc::Rc;

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

/// Receives the kernel's observation stream, on the kernel's own thread.
pub trait Observer {
    fn on_event(&mut self, event: &KernelEvent);
}

/// A sink writing into a shared buffer, so callers keep access to the
/// records while the kernel owns the sink. A single-threaded handle: the
/// kernel that writes it and the caller that reads it share one thread.
#[derive(Clone, Default)]
pub struct SharedSink {
    records: Rc<RefCell<Vec<TraceRecord>>>,
}

impl SharedSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot the records collected so far.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.records.borrow().clone()
    }
}

impl Observer for SharedSink {
    fn on_event(&mut self, event: &KernelEvent) {
        let KernelEvent::Trace(rec) = event;
        self.records.borrow_mut().push(rec.clone());
    }
}
