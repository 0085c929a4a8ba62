//! Fleet-scale batch runs: streaming arrivals, O(1)-memory statistics.
//!
//! The fleet entry points ([`crate::run_fleet`], [`crate::run_fleet_until`])
//! run the one batch engine with its recording off, so nothing in the run
//! grows with the job count; [`crate::resume_batch`] continues their
//! checkpoints like any other. They return the same
//! [`crate::BatchOutcome`] as a batch run, with empty `jobs`, `events` and
//! `reservations`:
//!
//! * arrivals come from a lazy [`crate::arrivals::FleetJobs`] generator
//!   (pure in `(config, index)`, so checkpoints image it as a count);
//! * the event trace lives on only as its FNV-1a fingerprint
//!   (`trace_hash`) — the hash of the rendered trace, never the trace
//!   itself;
//! * per-job records fold into the outcome's [`FleetAccum`] the moment
//!   they are produced, then drop;
//! * EASY shadow times come from the engine's
//!   [`crate::index::ReleaseIndex`] in O(log n) per decision.
//!
//! A fleet run is a pure function of its [`FleetConfig`], and
//! [`crate::run_batch`] over the materialised stream is the same
//! simulation (`tests/prop_streaming.rs`).
//!
//! Statistics here accumulate into scalars, never into per-job growable
//! containers; `tests/alloc_growth.rs` fails when a run's peak heap grows
//! with its job count.

use serde::Serialize;

use crate::arrivals::FleetStreamConfig;
use crate::discipline::Discipline;
use crate::sim::{BatchConfig, JobRecord};

/// Configuration of one fleet-scale run: the streaming workload plus the
/// batch engine parameters it drives.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetConfig {
    pub stream: FleetStreamConfig,
    pub batch: BatchConfig,
}

/// A [`FleetConfig`] sized for fleet-scale studies: `jobs` streamed over
/// `nodes` nodes under EASY backfill, offered load tuned below capacity so
/// the pending queue stays bounded as the job count grows.
///
/// The class catalog is kept at 24 shapes regardless of scale, so the
/// service-time oracle measures at most 24 kernels no matter how many
/// jobs stream through — the property that makes 10^6 jobs affordable.
pub fn scaled_config(jobs: u64, nodes: usize, seed: u64) -> FleetConfig {
    FleetConfig {
        stream: FleetStreamConfig {
            seed,
            jobs,
            classes: 24,
            // ~1100 arrivals per simulated second: with a mean gang of ~8
            // nodes holding ~0.19 s each, that offers ~80% of a 1000-node
            // fleet — busy enough that heads block and backfill fires,
            // slack enough that the pending queue stays bounded.
            mean_interarrival: 0.0009,
        },
        batch: BatchConfig {
            num_nodes: nodes,
            discipline: Discipline::Easy,
            // Bound each EASY pass: examine at most 64 queued candidates
            // behind the head (the SLURM `bf_max_job_test` analogue), so a
            // transient backlog cannot make scheduling O(queue).
            backfill_window: Some(64),
            seed,
            ..BatchConfig::default()
        },
    }
}

/// O(1)-memory running statistics over job records: scalar sums, counts,
/// and maxima only. The engine folds records in completion order; a
/// recording run's outcome refolds its records in id order, whose float
/// sums BENCH_batch.json pins.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize)]
pub struct FleetAccum {
    pub jobs: u64,
    pub completed: u64,
    pub degraded: u64,
    pub backfilled: u64,
    pub requeued: u64,
    /// Sums and maxima over *completed* jobs, seconds.
    pub wait_sum: f64,
    pub wait_max: f64,
    pub turnaround_sum: f64,
    pub turnaround_max: f64,
    pub slowdown_sum: f64,
    pub slowdown_max: f64,
    /// Node·seconds held, over all jobs (degraded included).
    pub node_secs: f64,
}

impl FleetAccum {
    /// Fold one finished job into the accumulator. Records arrive exactly
    /// once per job (the engine retires a tracker exactly once), so every
    /// count below is a per-job count.
    pub fn fold(&mut self, r: &JobRecord) {
        self.jobs += 1;
        self.node_secs += r.node_secs_held;
        if r.requeues > 0 {
            self.requeued += 1;
        }
        if r.outcome.degraded {
            self.degraded += 1;
            return;
        }
        self.completed += 1;
        if r.backfilled {
            self.backfilled += 1;
        }
        self.wait_sum += r.wait;
        if r.wait > self.wait_max {
            self.wait_max = r.wait;
        }
        self.turnaround_sum += r.turnaround;
        if r.turnaround > self.turnaround_max {
            self.turnaround_max = r.turnaround;
        }
        self.slowdown_sum += r.slowdown;
        if r.slowdown > self.slowdown_max {
            self.slowdown_max = r.slowdown;
        }
    }

    /// Fold every record of a recorded outcome, in id order.
    pub fn from_records(records: &[JobRecord]) -> FleetAccum {
        let mut acc = FleetAccum::default();
        for r in records {
            acc.fold(r);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::heavy_light_mix;
    use crate::sim::{run_batch, run_fleet};

    #[test]
    fn accum_fold_matches_materialised_stats() {
        let out = run_batch(&heavy_light_mix(7, 40), &BatchConfig::default(), None);
        let acc = FleetAccum::from_records(&out.jobs);
        assert_eq!(out.accum, acc, "a recording run folds its records in id order");
        assert_eq!(acc.jobs, out.jobs.len() as u64);
    }

    #[test]
    fn scaled_config_is_easy_and_windowed() {
        let cfg = scaled_config(10_000, 1000, 7);
        assert_eq!(cfg.stream.jobs, 10_000);
        assert_eq!(cfg.batch.num_nodes, 1000);
        assert!(matches!(cfg.batch.discipline, Discipline::Easy));
        assert_eq!(cfg.batch.backfill_window, Some(64));
    }

    #[test]
    fn scaled_config_runs_a_small_fleet() {
        let cfg = scaled_config(200, 64, 2008);
        let out = run_fleet(&cfg);
        assert_eq!(out.accum.jobs, 200);
        assert!(out.trace_events > 0);
        assert!(out.makespan > 0.0);
        assert!(out.jobs.is_empty() && out.events.is_empty(), "a fleet run does not record");
    }
}
