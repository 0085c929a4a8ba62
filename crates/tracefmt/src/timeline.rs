//! From raw trace records to per-task state intervals.

use power5::HwPriority;
use schedsim::{TaskId, TaskState, TraceEvent, TraceRecord};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The display states of the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceState {
    /// Executing on a CPU (the figures' dark gray).
    Compute,
    /// Runnable, waiting for a CPU (scheduler latency).
    Ready,
    /// Blocked on communication/synchronization (light gray).
    Wait,
}

/// A maximal span of one state.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Interval {
    pub start: SimTime,
    pub end: SimTime,
    pub state: TraceState,
}

impl Interval {
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// One task's rendered history.
#[derive(Clone, Debug)]
pub struct TaskTimeline {
    pub task: TaskId,
    pub name: String,
    pub spawned: SimTime,
    pub exited: Option<SimTime>,
    pub intervals: Vec<Interval>,
    /// Hardware-priority changes, as `(time, new priority)`.
    pub prio_changes: Vec<(SimTime, HwPriority)>,
    /// Iteration-end markers, as `(time, utilization in [0,1])`.
    pub iterations: Vec<(SimTime, f64)>,
}

impl TaskTimeline {
    /// Total time in a given state.
    pub fn time_in(&self, state: TraceState) -> SimDuration {
        self.intervals.iter().filter(|i| i.state == state).map(|i| i.duration()).sum()
    }

    /// The state at time `t`, if the task was alive.
    pub fn state_at(&self, t: SimTime) -> Option<TraceState> {
        self.intervals.iter().find(|i| i.start <= t && t < i.end).map(|i| i.state)
    }
}

/// All tasks' timelines.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    pub tasks: Vec<TaskTimeline>,
    pub end: SimTime,
}

impl Timeline {
    /// Build timelines from kernel trace records (which must be in
    /// chronological order, as the kernel emits them).
    pub fn from_records(records: &[TraceRecord]) -> Timeline {
        struct Builder {
            name: String,
            spawned: SimTime,
            exited: Option<SimTime>,
            current: Option<(SimTime, TraceState)>,
            intervals: Vec<Interval>,
            prio_changes: Vec<(SimTime, HwPriority)>,
            iterations: Vec<(SimTime, f64)>,
        }
        impl Builder {
            fn switch(&mut self, now: SimTime, next: Option<TraceState>) {
                if let Some((start, state)) = self.current.take() {
                    if now > start {
                        self.intervals.push(Interval { start, end: now, state });
                    }
                }
                self.current = next.map(|s| (now, s));
            }
        }

        let mut builders: BTreeMap<TaskId, Builder> = BTreeMap::new();
        let mut end = SimTime::ZERO;
        for rec in records {
            end = end.max(rec.time);
            match &rec.event {
                TraceEvent::Spawn { name } => {
                    builders.insert(
                        rec.task,
                        Builder {
                            name: name.clone(),
                            spawned: rec.time,
                            exited: None,
                            current: Some((rec.time, TraceState::Ready)),
                            intervals: Vec::new(),
                            prio_changes: Vec::new(),
                            iterations: Vec::new(),
                        },
                    );
                }
                TraceEvent::State { state, .. } => {
                    if let Some(b) = builders.get_mut(&rec.task) {
                        let next = match state {
                            TaskState::Running => Some(TraceState::Compute),
                            TaskState::Runnable => Some(TraceState::Ready),
                            TaskState::Sleeping => Some(TraceState::Wait),
                            TaskState::Exited => None,
                        };
                        b.switch(rec.time, next);
                    }
                }
                TraceEvent::HwPrio { prio } => {
                    if let Some(b) = builders.get_mut(&rec.task) {
                        b.prio_changes.push((rec.time, *prio));
                    }
                }
                TraceEvent::IterationEnd { utilization, .. } => {
                    if let Some(b) = builders.get_mut(&rec.task) {
                        b.iterations.push((rec.time, *utilization));
                    }
                }
                TraceEvent::Exit => {
                    if let Some(b) = builders.get_mut(&rec.task) {
                        b.switch(rec.time, None);
                        b.exited = Some(rec.time);
                    }
                }
            }
        }
        let final_time = end;
        let tasks = builders
            .into_iter()
            .map(|(task, mut b)| {
                // Close any interval still open at the end of the trace.
                b.switch(final_time, None);
                TaskTimeline {
                    task,
                    name: b.name,
                    spawned: b.spawned,
                    exited: b.exited,
                    intervals: b.intervals,
                    prio_changes: b.prio_changes,
                    iterations: b.iterations,
                }
            })
            .collect();
        Timeline { tasks, end }
    }

    /// Find a task's timeline by id.
    pub fn task(&self, id: TaskId) -> Option<&TaskTimeline> {
        self.tasks.iter().find(|t| t.task == id)
    }

    /// Keep only the given tasks (e.g. drop noise daemons before
    /// rendering).
    pub fn filter_tasks(&self, keep: &[TaskId]) -> Timeline {
        Timeline {
            tasks: self.tasks.iter().filter(|t| keep.contains(&t.task)).cloned().collect(),
            end: self.end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn rec(ms: u64, task: usize, event: TraceEvent) -> TraceRecord {
        TraceRecord { time: t(ms), task: TaskId(task), event }
    }

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            rec(0, 0, TraceEvent::Spawn { name: "P1".into() }),
            rec(0, 0, TraceEvent::State { state: TaskState::Runnable, cpu: None }),
            rec(1, 0, TraceEvent::State { state: TaskState::Running, cpu: None }),
            rec(5, 0, TraceEvent::State { state: TaskState::Sleeping, cpu: None }),
            rec(8, 0, TraceEvent::IterationEnd { index: 1, utilization: 0.5 }),
            rec(8, 0, TraceEvent::HwPrio { prio: HwPriority::HIGH }),
            rec(8, 0, TraceEvent::State { state: TaskState::Runnable, cpu: None }),
            rec(9, 0, TraceEvent::State { state: TaskState::Running, cpu: None }),
            rec(12, 0, TraceEvent::Exit),
        ]
    }

    #[test]
    fn builds_intervals_in_order() {
        let tl = Timeline::from_records(&sample_records());
        assert_eq!(tl.tasks.len(), 1);
        let task = &tl.tasks[0];
        assert_eq!(task.name, "P1");
        let states: Vec<TraceState> = task.intervals.iter().map(|i| i.state).collect();
        assert_eq!(
            states,
            vec![
                TraceState::Ready,
                TraceState::Compute,
                TraceState::Wait,
                TraceState::Ready,
                TraceState::Compute
            ]
        );
        assert_eq!(task.exited, Some(t(12)));
    }

    #[test]
    fn time_accounting_sums() {
        let tl = Timeline::from_records(&sample_records());
        let task = &tl.tasks[0];
        assert_eq!(task.time_in(TraceState::Compute), SimDuration::from_millis(7));
        assert_eq!(task.time_in(TraceState::Wait), SimDuration::from_millis(3));
        assert_eq!(task.time_in(TraceState::Ready), SimDuration::from_millis(2));
    }

    #[test]
    fn captures_prio_and_iterations() {
        let tl = Timeline::from_records(&sample_records());
        let task = &tl.tasks[0];
        assert_eq!(task.prio_changes, vec![(t(8), HwPriority::HIGH)]);
        assert_eq!(task.iterations.len(), 1);
        assert!((task.iterations[0].1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn state_at_queries() {
        let tl = Timeline::from_records(&sample_records());
        let task = &tl.tasks[0];
        assert_eq!(task.state_at(t(3)), Some(TraceState::Compute));
        assert_eq!(task.state_at(t(6)), Some(TraceState::Wait));
        assert_eq!(task.state_at(t(20)), None);
    }

    #[test]
    fn open_interval_closed_at_trace_end() {
        let records = vec![
            rec(0, 0, TraceEvent::Spawn { name: "live".into() }),
            rec(1, 0, TraceEvent::State { state: TaskState::Running, cpu: None }),
            rec(10, 1, TraceEvent::Spawn { name: "other".into() }),
        ];
        let tl = Timeline::from_records(&records);
        let task = tl.task(TaskId(0)).unwrap();
        assert_eq!(task.intervals.last().unwrap().end, t(10));
    }

    #[test]
    fn filter_tasks_drops_others() {
        let mut records = sample_records();
        records.push(rec(2, 7, TraceEvent::Spawn { name: "noise".into() }));
        let tl = Timeline::from_records(&records);
        assert_eq!(tl.tasks.len(), 2);
        let filtered = tl.filter_tasks(&[TaskId(0)]);
        assert_eq!(filtered.tasks.len(), 1);
        assert_eq!(filtered.tasks[0].task, TaskId(0));
    }
}
