//! Serialization of timelines and statistics as CSV so experiment
//! output can be post-processed outside the simulator.

use crate::stats::AppStats;
use crate::timeline::Timeline;
use std::fmt::Write;

/// Timeline intervals as CSV: `task,name,start_s,end_s,state`.
pub fn timeline_to_csv(tl: &Timeline) -> String {
    let mut out = String::from("task,name,start_s,end_s,state\n");
    for t in &tl.tasks {
        for iv in &t.intervals {
            let _ = writeln!(
                out,
                "{},{},{:.9},{:.9},{:?}",
                t.task.0,
                t.name,
                iv.start.as_secs_f64(),
                iv.end.as_secs_f64(),
                iv.state
            );
        }
    }
    out
}

/// Statistics as CSV: `task,name,comp_percent,ready_percent,prio,exec_s`.
pub fn stats_to_csv(stats: &AppStats) -> String {
    let mut out = String::from("task,name,comp_percent,ready_percent,prio,exec_s\n");
    for row in &stats.tasks {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4},{},{:.6}",
            row.task.0,
            row.name,
            row.comp_percent,
            row.ready_percent,
            row.final_prio.map(|p| p.value()).unwrap_or(4),
            stats.exec_time.as_secs_f64()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{Interval, TaskTimeline, TraceState};
    use schedsim::TaskId;
    use simcore::{SimDuration, SimTime};

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn tl() -> Timeline {
        Timeline {
            tasks: vec![TaskTimeline {
                task: TaskId(0),
                name: "P1".into(),
                spawned: t(0),
                exited: Some(t(10)),
                intervals: vec![Interval { start: t(0), end: t(10), state: TraceState::Compute }],
                prio_changes: vec![],
                iterations: vec![],
            }],
            end: t(10),
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = timeline_to_csv(&tl());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "task,name,start_s,end_s,state");
        assert!(lines[1].starts_with("0,P1,0.000000000,0.010000000,Compute"));
    }

    #[test]
    fn stats_csv_roundtrip_fields() {
        let stats = AppStats::for_tasks(&tl(), &[TaskId(0)]);
        let csv = stats_to_csv(&stats);
        assert!(csv.contains("comp_percent"));
        assert!(csv.contains("100.0000"), "fully computing: {csv}");
    }
}
