//! Per-process statistics — the columns of the paper's Tables III–VI.

use crate::timeline::{TaskTimeline, Timeline, TraceState};
use power5::HwPriority;
use schedsim::TaskId;
use simcore::{SimDuration, SimTime};

/// One row of a paper-style table.
#[derive(Clone, Debug)]
pub struct TaskStats {
    pub task: TaskId,
    pub name: String,
    /// `%Comp`: computing time over lifetime, in percent.
    pub comp_percent: f64,
    /// Time runnable but not running, in percent of lifetime.
    pub ready_percent: f64,
    /// Final hardware priority observed (None = never changed from default).
    pub final_prio: Option<HwPriority>,
    pub compute: SimDuration,
    pub wait: SimDuration,
    pub ready: SimDuration,
    pub lifetime: SimDuration,
    pub iterations: usize,
}

/// Application-level summary.
#[derive(Clone, Debug)]
pub struct AppStats {
    pub tasks: Vec<TaskStats>,
    /// Total execution time: last exit (or trace end).
    pub exec_time: SimDuration,
}

/// Compute a row for one task.
pub fn task_stats(t: &TaskTimeline) -> TaskStats {
    let end = t.exited.unwrap_or_else(|| {
        t.intervals.last().map(|i| i.end).unwrap_or(t.spawned)
    });
    let lifetime = end.saturating_since(t.spawned);
    let compute = t.time_in(TraceState::Compute);
    let wait = t.time_in(TraceState::Wait);
    let ready = t.time_in(TraceState::Ready);
    let pct = |d: SimDuration| {
        if lifetime.is_zero() {
            0.0
        } else {
            100.0 * d.as_nanos() as f64 / lifetime.as_nanos() as f64
        }
    };
    TaskStats {
        task: t.task,
        name: t.name.clone(),
        comp_percent: pct(compute),
        ready_percent: pct(ready),
        final_prio: t.prio_changes.last().map(|(_, p)| *p),
        compute,
        wait,
        ready,
        lifetime,
        iterations: t.iterations.len(),
    }
}

impl AppStats {
    /// Stats for the given tasks of a timeline (order preserved).
    pub fn for_tasks(tl: &Timeline, tasks: &[TaskId]) -> AppStats {
        let rows: Vec<TaskStats> = tasks
            .iter()
            .filter_map(|id| tl.task(*id))
            .map(task_stats)
            .collect();
        let start = rows.iter().map(|_| SimTime::ZERO).next().unwrap_or(SimTime::ZERO);
        let end = tasks
            .iter()
            .filter_map(|id| tl.task(*id))
            .filter_map(|t| t.exited)
            .max()
            .unwrap_or(tl.end);
        AppStats { tasks: rows, exec_time: end.saturating_since(start) }
    }

    /// Render as a paper-style text table.
    pub fn to_table(&self, label: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{label:<12} {:<14} {:>8} {:>8} {:>6}", "Proc", "%Comp", "%Ready", "Prio");
        for (i, row) in self.tasks.iter().enumerate() {
            let prio = row
                .final_prio
                .map(|p| p.to_string())
                .unwrap_or_else(|| "4".to_string());
            let _ = writeln!(
                out,
                "{:<12} {:<14} {:>8.2} {:>8.2} {:>6}",
                if i == 0 { label } else { "" },
                row.name,
                row.comp_percent,
                row.ready_percent,
                prio
            );
        }
        let _ = writeln!(out, "{:<12} Exec. Time: {:.2}s", "", self.exec_time.as_secs_f64());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::Interval;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn tl() -> Timeline {
        Timeline {
            tasks: vec![TaskTimeline {
                task: TaskId(0),
                name: "P1".into(),
                spawned: t(0),
                exited: Some(t(100)),
                intervals: vec![
                    Interval { start: t(0), end: t(25), state: TraceState::Compute },
                    Interval { start: t(25), end: t(95), state: TraceState::Wait },
                    Interval { start: t(95), end: t(100), state: TraceState::Ready },
                ],
                prio_changes: vec![(t(25), HwPriority::MEDIUM_HIGH)],
                iterations: vec![(t(95), 0.25)],
            }],
            end: t(100),
        }
    }

    #[test]
    fn percentages_follow_time_split() {
        let s = task_stats(&tl().tasks[0]);
        assert!((s.comp_percent - 25.0).abs() < 1e-9);
        assert!((s.ready_percent - 5.0).abs() < 1e-9);
        assert_eq!(s.final_prio, Some(HwPriority::MEDIUM_HIGH));
        assert_eq!(s.iterations, 1);
        assert_eq!(s.lifetime, SimDuration::from_millis(100));
    }

    #[test]
    fn app_stats_exec_time_is_last_exit() {
        let stats = AppStats::for_tasks(&tl(), &[TaskId(0)]);
        assert_eq!(stats.exec_time, SimDuration::from_millis(100));
        assert_eq!(stats.tasks.len(), 1);
    }

    #[test]
    fn table_renders_rows() {
        let stats = AppStats::for_tasks(&tl(), &[TaskId(0)]);
        let table = stats.to_table("Baseline");
        assert!(table.contains("Baseline"));
        assert!(table.contains("P1"));
        assert!(table.contains("25.00"));
        assert!(table.contains("Exec. Time: 0.10s"));
    }

    #[test]
    fn missing_tasks_are_skipped() {
        let stats = AppStats::for_tasks(&tl(), &[TaskId(0), TaskId(42)]);
        assert_eq!(stats.tasks.len(), 1);
    }
}
