//! The Load Imbalance Detector (paper §IV-B).
//!
//! MPI applications alternate *computing phases* (runnable) with *waiting
//! phases* (blocked on messages or barriers); one of each is an iteration.
//! The detector accumulates, per SCHED_HPC task:
//!
//! * the last iteration's utilization `Ul(i) = tR / ti`,
//! * the global utilization `Ug = Σ tR / Σ ti`,
//!
//! and answers the application-level question the heuristics gate on: *is
//! the set of HPC tasks imbalanced right now?* Balance is declared when the
//! utilization spread across live tasks falls below a tunable threshold —
//! the "stable state" the paper wants heuristics to find and then stop
//! touching priorities in.

use super::tunables::HpcTunables;
use crate::task::TaskId;
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimDuration;
use std::collections::BTreeMap;

/// Per-task iteration statistics, as the heuristics see them.
#[derive(Clone, Copy, Debug)]
pub struct TaskIterStats {
    /// Completed iterations.
    pub iterations: u64,
    /// Utilization of the last completed iteration, in percent.
    pub last_util: f64,
    /// Global utilization over all iterations, in percent.
    pub global_util: f64,
    /// Global utilization *excluding* the last iteration, in percent —
    /// the `Ug(i−1)` term of the Adaptive heuristic.
    pub prev_global_util: f64,
}

impl TaskIterStats {
    /// The Adaptive heuristic's blended metric
    /// `Ui = G·Ug(i−1) + L·Ul(i)` (paper §IV-B).
    pub fn blended(&self, g: f64, l: f64) -> f64 {
        g * self.prev_global_util + l * self.last_util
    }
}

impl Snapshot for TaskIterStats {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.iterations);
        w.put_f64(self.last_util);
        w.put_f64(self.global_util);
        w.put_f64(self.prev_global_util);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TaskIterStats {
            iterations: r.get_u64()?,
            last_util: r.get_f64()?,
            global_util: r.get_f64()?,
            prev_global_util: r.get_f64()?,
        })
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Accum {
    run: SimDuration,
    wall: SimDuration,
    iterations: u64,
    last_util: f64,
    prev_global: f64,
}

impl Snapshot for Accum {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.run);
        w.put(&self.wall);
        w.put_u64(self.iterations);
        w.put_f64(self.last_util);
        w.put_f64(self.prev_global);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Accum {
            run: r.get()?,
            wall: r.get()?,
            iterations: r.get_u64()?,
            last_util: r.get_f64()?,
            prev_global: r.get_f64()?,
        })
    }
}

/// Tracks iteration statistics for every task in the HPC class.
#[derive(Clone, Debug, Default)]
pub struct LoadImbalanceDetector {
    // BTreeMap, not HashMap: `spread` iterates the task set, and imbalance
    // decisions must not depend on hash order.
    tasks: BTreeMap<TaskId, Accum>,
}

impl LoadImbalanceDetector {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed iteration (`run` CPU time over `wall` elapsed
    /// time) and return the task's updated stats.
    ///
    /// Returns `None` — recording nothing — when the sample is unusable: a
    /// zero-length iteration (a never-blocking task "completes" those
    /// back-to-back) or a non-finite utilization. Fabricating a number here
    /// would poison the accumulated history every later decision rests on;
    /// the caller treats `None` as "no sample" and falls back to uniform
    /// priorities rather than acting on garbage.
    pub fn record_iteration(
        &mut self,
        task: TaskId,
        run: SimDuration,
        wall: SimDuration,
    ) -> Option<TaskIterStats> {
        if wall.is_zero() {
            return None;
        }
        let util = ratio_percent(run, wall);
        if !util.is_finite() {
            return None;
        }
        let acc = self.tasks.entry(task).or_default();
        let prev_global = if acc.wall.is_zero() {
            // No history: treat the first iteration as its own history so
            // the blended metric degenerates gracefully.
            util
        } else {
            ratio_percent(acc.run, acc.wall)
        };
        acc.prev_global = prev_global;
        acc.run += run;
        acc.wall += wall;
        acc.iterations += 1;
        acc.last_util = util;
        self.stats_of(task)
    }

    /// A task left the class (exit or policy change); stop counting it in
    /// imbalance checks.
    pub fn forget(&mut self, task: TaskId) {
        self.tasks.remove(&task);
    }

    /// Discard all accumulated history (keeping nothing but the task set).
    ///
    /// Called when a *behaviour change* is detected — the application was
    /// balanced and is no longer. Pre-change history describes a different
    /// regime and would make the global-utilization metric unresponsive
    /// (the paper's Figure 4(c) shows re-balancing within 2–3 iterations
    /// of a swap, which is only possible if stale history stops counting).
    pub fn reset_history(&mut self) {
        for acc in self.tasks.values_mut() {
            *acc = Accum::default();
        }
    }

    /// Stats for one task, if it has completed at least one iteration.
    pub fn stats_of(&self, task: TaskId) -> Option<TaskIterStats> {
        let acc = self.tasks.get(&task)?;
        if acc.iterations == 0 {
            return None;
        }
        Some(TaskIterStats {
            iterations: acc.iterations,
            last_util: acc.last_util,
            global_util: ratio_percent(acc.run, acc.wall),
            prev_global_util: acc.prev_global,
        })
    }

    /// Number of tracked tasks.
    pub fn tracked(&self) -> usize {
        self.tasks.len()
    }

    /// The application-level imbalance check: the spread (max − min) of the
    /// given per-task metric across tracked *compute* tasks, in percentage
    /// points. Tasks whose global utilization is below `negligible_util`
    /// (coordinator/master processes) are excluded: they cannot be balanced
    /// and would otherwise pin the spread open forever. Returns 0 with
    /// fewer than two compute tasks.
    pub fn spread(&self, negligible_util: f64, metric: impl Fn(&TaskIterStats) -> f64) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut n = 0;
        for (&task, _) in self.tasks.iter() {
            if let Some(s) = self.stats_of(task) {
                if s.global_util < negligible_util {
                    continue;
                }
                let v = metric(&s);
                lo = lo.min(v);
                hi = hi.max(v);
                n += 1;
            }
        }
        if n < 2 {
            0.0
        } else {
            hi - lo
        }
    }

    /// Whether the application is balanced under the tunables' spread
    /// threshold, judged on the last iteration only — so a behaviour
    /// change reopens balancing immediately.
    pub fn is_balanced_recent(&self, tun: &HpcTunables) -> bool {
        self.spread(tun.negligible_util, |s| s.last_util) <= tun.balance_spread
    }
}

impl Snapshot for LoadImbalanceDetector {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        // BTreeMap iterates in key order, so equal detectors produce
        // equal bytes.
        w.put(&self.tasks);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(LoadImbalanceDetector { tasks: r.get()? })
    }
}

fn ratio_percent(num: SimDuration, den: SimDuration) -> f64 {
    if den.is_zero() {
        // No elapsed time → no meaningful ratio. Callers filter this out
        // (`record_iteration` rejects the sample); never let it reach the
        // spread computation as a fabricated percentage.
        f64::NAN
    } else {
        100.0 * num.as_nanos() as f64 / den.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn single_iteration_stats() {
        let mut d = LoadImbalanceDetector::new();
        let s = d.record_iteration(TaskId(0), ms(25), ms(100)).expect("usable sample");
        assert_eq!(s.iterations, 1);
        assert!((s.last_util - 25.0).abs() < 1e-9);
        assert!((s.global_util - 25.0).abs() < 1e-9);
    }

    #[test]
    fn global_accumulates_across_iterations() {
        let mut d = LoadImbalanceDetector::new();
        d.record_iteration(TaskId(0), ms(25), ms(100));
        let s = d.record_iteration(TaskId(0), ms(75), ms(100)).expect("usable sample");
        assert!((s.last_util - 75.0).abs() < 1e-9);
        assert!((s.global_util - 50.0).abs() < 1e-9, "Σrun/Σwall = 100/200");
        assert!((s.prev_global_util - 25.0).abs() < 1e-9, "history excludes last");
    }

    #[test]
    fn blended_metric_matches_paper_formula() {
        let mut d = LoadImbalanceDetector::new();
        d.record_iteration(TaskId(0), ms(20), ms(100)); // Ug = 20
        let s = d.record_iteration(TaskId(0), ms(90), ms(100)).expect("usable sample"); // Ul = 90
        // Ui = 0.1 * 20 + 0.9 * 90 = 83
        assert!((s.blended(0.1, 0.9) - 83.0).abs() < 1e-9);
    }

    #[test]
    fn spread_and_balance_detection() {
        let mut d = LoadImbalanceDetector::new();
        d.record_iteration(TaskId(0), ms(25), ms(100));
        d.record_iteration(TaskId(1), ms(100), ms(100));
        let tun = HpcTunables::default();
        assert!((d.spread(tun.negligible_util, |s| s.global_util) - 75.0).abs() < 1e-9);
        assert!(!d.is_balanced_recent(&tun));

        // Next iterations converge.
        d.record_iteration(TaskId(0), ms(95), ms(100));
        d.record_iteration(TaskId(1), ms(100), ms(100));
        assert!(d.is_balanced_recent(&tun), "last-iteration spread 5pts");
    }

    #[test]
    fn fewer_than_two_tasks_is_balanced() {
        let mut d = LoadImbalanceDetector::new();
        let tun = HpcTunables::default();
        assert!(d.is_balanced_recent(&tun), "empty");
        d.record_iteration(TaskId(0), ms(1), ms(100));
        assert!(d.is_balanced_recent(&tun), "single task cannot be imbalanced");
    }

    #[test]
    fn forget_removes_task_from_spread() {
        let mut d = LoadImbalanceDetector::new();
        d.record_iteration(TaskId(0), ms(10), ms(100));
        d.record_iteration(TaskId(1), ms(100), ms(100));
        assert!(!d.is_balanced_recent(&HpcTunables::default()));
        d.forget(TaskId(0));
        assert_eq!(d.tracked(), 1);
        assert!(d.is_balanced_recent(&HpcTunables::default()));
    }

    #[test]
    fn zero_wall_iteration_yields_no_sample() {
        let mut d = LoadImbalanceDetector::new();
        assert!(d.record_iteration(TaskId(0), SimDuration::ZERO, SimDuration::ZERO).is_none());
        assert!(d.stats_of(TaskId(0)).is_none(), "nothing was recorded");
    }

    #[test]
    fn never_blocking_task_accumulates_no_history() {
        // A task that never waits "completes" zero-length iterations back
        // to back; none of them may count or skew the spread.
        let mut d = LoadImbalanceDetector::new();
        for _ in 0..50 {
            assert!(d.record_iteration(TaskId(0), SimDuration::ZERO, SimDuration::ZERO).is_none());
        }
        d.record_iteration(TaskId(1), ms(40), ms(100));
        d.record_iteration(TaskId(2), ms(90), ms(100));
        let tun = HpcTunables::default();
        let spread = d.spread(tun.negligible_util, |s| s.global_util);
        assert!((spread - 50.0).abs() < 1e-9, "spread over real samples only: {spread}");
    }

    #[test]
    fn degraded_then_recovered_task_reports_clean_stats() {
        let mut d = LoadImbalanceDetector::new();
        assert!(d.record_iteration(TaskId(0), ms(5), SimDuration::ZERO).is_none());
        let s = d.record_iteration(TaskId(0), ms(30), ms(100)).expect("usable sample");
        assert_eq!(s.iterations, 1, "rejected sample left no trace");
        assert!((s.last_util - 30.0).abs() < 1e-9);
        assert!(s.global_util.is_finite() && s.prev_global_util.is_finite());
    }

    #[test]
    fn stats_of_unknown_task_is_none() {
        let d = LoadImbalanceDetector::new();
        assert!(d.stats_of(TaskId(9)).is_none());
    }
}
