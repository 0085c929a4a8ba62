//! Trace collection and rendering — the reproduction's PARAVER (paper §V
//! uses PARAVER "to collect data and statistics and to show the trace of
//! each process").
//!
//! * [`timeline`] — turns raw kernel [`schedsim::TraceRecord`]s into
//!   per-task state intervals (Compute / Ready / Wait);
//! * [`ascii`] — renders the timelines the paper's figures show: one row
//!   per process, dark (`#`) compute against light (`.`) wait, with
//!   hardware-priority change markers;
//! * [`stats`] — the paper's table metrics: per-process `%Comp`, final
//!   hardware priority, application execution time;
//! * [`export`] — CSV serialization of intervals and statistics;
//! * [`prv`] — export in the actual Paraver trace format (`.prv`/`.pcf`),
//!   so runs can be inspected in the paper's own visualization tool.

#![forbid(unsafe_code)]

pub mod ascii;
pub mod export;
pub mod prv;
pub mod stats;
pub mod timeline;

pub use ascii::{render_timeline, AsciiOptions};
pub use stats::{task_stats, AppStats, TaskStats};
pub use timeline::{Interval, TaskTimeline, Timeline, TraceState};
