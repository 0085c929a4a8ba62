//! Fleet-wide outcome statistics.
//!
//! Derivation is O(1) in memory: records fold into the outcome's
//! [`crate::FleetAccum`] (scalar sums, counts, maxima — gated by
//! `tests/alloc_growth.rs`), and the stats are closed-form functions of the
//! accumulator. A recording run folds in id order, which reproduces
//! bit-for-bit the sums the old per-job-vector implementation computed.

use serde::Serialize;

use crate::sim::BatchOutcome;

/// Aggregated queue metrics over one batch run. Wait/turnaround/slowdown
/// means cover *completed* jobs; utilization and throughput are fleet-wide.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct FleetStats {
    pub jobs: usize,
    pub completed: usize,
    pub degraded: usize,
    pub backfilled: usize,
    pub requeued: usize,
    /// Mean queue wait (first start − arrival), seconds.
    pub mean_wait: f64,
    pub max_wait: f64,
    pub mean_turnaround: f64,
    /// Mean bounded slowdown: turnaround over clean service time.
    pub mean_slowdown: f64,
    /// Last event timestamp, seconds.
    pub makespan: f64,
    /// Node·seconds held by jobs over fleet capacity × makespan.
    pub utilization: f64,
    /// Backfilled share of completed jobs.
    pub backfill_rate: f64,
    /// Jobs completed per simulated second — the bench trajectory figure.
    pub throughput: f64,
}

impl FleetStats {
    /// Close a batch or fleet outcome's accumulator into reported figures.
    pub fn from_outcome(out: &BatchOutcome) -> FleetStats {
        let a = &out.accum;
        let makespan = out.makespan;
        let n = a.completed;
        let mean = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        let capacity = out.config_nodes as f64 * makespan;
        FleetStats {
            jobs: a.jobs as usize,
            completed: n as usize,
            degraded: a.degraded as usize,
            backfilled: a.backfilled as usize,
            requeued: a.requeued as usize,
            mean_wait: mean(a.wait_sum),
            max_wait: a.wait_max,
            mean_turnaround: mean(a.turnaround_sum),
            mean_slowdown: mean(a.slowdown_sum),
            makespan,
            utilization: if capacity > 0.0 { a.node_secs / capacity } else { 0.0 },
            backfill_rate: if n > 0 { a.backfilled as f64 / n as f64 } else { 0.0 },
            throughput: if makespan > 0.0 { n as f64 / makespan } else { 0.0 },
        }
    }

    /// One fixed-width summary line for experiment output.
    pub fn render_row(&self, label: &str) -> String {
        format!(
            "{label:<18} jobs {:>4} done {:>4} degr {:>2} | wait {:>8.3}s turn {:>8.3}s slow {:>6.2} | makespan {:>8.2}s util {:>5.1}% bf {:>5.1}% thru {:>6.2}/s",
            self.jobs,
            self.completed,
            self.degraded,
            self.mean_wait,
            self.mean_turnaround,
            self.mean_slowdown,
            self.makespan,
            self.utilization * 100.0,
            self.backfill_rate * 100.0,
            self.throughput,
        )
    }
}
