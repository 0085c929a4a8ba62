//! The kernel's unified observation API.
//!
//! Every scheduler-visible happening — trace records *and* metric events —
//! flows through one channel: [`KernelEvent`], delivered to every observer
//! attached with [`Kernel::observe`](crate::Kernel::observe). Trace
//! renderers (`tracefmt`), metric exporters and ad-hoc probes are all just
//! [`Observer`]s, which replaces the old `set_trace`/`take_trace` ownership
//! dance: the kernel never has to give a sink back because shared handles
//! (e.g. [`SharedSink`](crate::SharedSink)) stay with the caller.
//!
//! Any [`TraceSink`] is automatically an [`Observer`] that receives the
//! trace half of the stream, so existing sinks plug in unchanged. It
//! declares that it wants no metric events
//! ([`Observer::wants_metrics`]), so a kernel observed only by trace
//! sinks never builds one.

use crate::task::TaskId;
use crate::trace::{TraceRecord, TraceSink};
use power5::{CpuId, HwPriority};
use simcore::SimTime;

/// A metric-bearing kernel event (the non-trace half of [`KernelEvent`]).
///
/// These are emitted from the scheduler hot paths and mirrored into the
/// kernel's [`MetricsRegistry`](telemetry::MetricsRegistry); observers see
/// them too so exporters can build time series without polling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricEvent {
    /// A different task was put on a CPU.
    ContextSwitch { cpu: CpuId, task: TaskId },
    /// One walk of the class chain picked a task (or found none).
    /// `wall_ns` is host wall-clock spent picking; `runnable` is the
    /// run-queue depth across classes on that CPU at pick time.
    ClassPick { cpu: CpuId, wall_ns: u64, runnable: usize },
    /// A woken task reached a CPU; simulated wakeup→dispatch latency.
    DispatchLatency { cpu: CpuId, task: TaskId, latency_ns: u64 },
    /// The hardware priority register of a CPU changed.
    HwPrioTransition { cpu: CpuId, from: HwPriority, to: HwPriority },
    /// Periodic scheduler tick.
    Tick { cpu: CpuId },
}

/// One item of the kernel's unified observation stream.
#[derive(Clone, Debug, PartialEq)]
pub enum KernelEvent {
    /// A scheduler-visible task transition (the trace stream).
    Trace(TraceRecord),
    /// A metric sample (the telemetry stream).
    Metric { time: SimTime, event: MetricEvent },
}

/// Receives the kernel's unified event stream.
pub trait Observer: Send {
    fn on_event(&mut self, event: &KernelEvent);

    /// Whether this observer wants [`KernelEvent::Metric`] events. Asked
    /// once, when the observer is attached; an observer that says no is
    /// sent none. When no attached observer wants them, the kernel does
    /// not build them at all (the registry still counts everything). The
    /// default, `true`, receives the whole stream.
    fn wants_metrics(&self) -> bool {
        true
    }
}

// Every trace sink observes the trace half of the stream unchanged, so
// `kernel.observe(Box::new(SharedSink::new()))` replaces `set_trace`.
impl<T: TraceSink> Observer for T {
    fn on_event(&mut self, event: &KernelEvent) {
        if let KernelEvent::Trace(rec) = event {
            self.record(rec.clone());
        }
    }

    fn wants_metrics(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{SharedSink, TraceEvent};

    #[test]
    fn trace_sinks_are_observers() {
        let sink = SharedSink::new();
        let mut obs: Box<dyn Observer> = Box::new(sink.clone());
        obs.on_event(&KernelEvent::Trace(TraceRecord {
            time: SimTime::ZERO,
            task: TaskId(3),
            event: TraceEvent::Exit,
        }));
        obs.on_event(&KernelEvent::Metric {
            time: SimTime::ZERO,
            event: MetricEvent::Tick { cpu: CpuId(0) },
        });
        let records = sink.snapshot();
        assert_eq!(records.len(), 1, "metric events are not trace records");
        assert!(!obs.wants_metrics(), "a trace sink asks for no metric events");
        assert_eq!(records[0].task, TaskId(3));
    }
}
