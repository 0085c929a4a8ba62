//! Deterministic job arrival streams.
//!
//! Two generators, both pure functions of a seed, with exponential
//! interarrivals driven by faultsim's [`SplitMix64`] and job shapes drawn
//! from the calibrated workload templates ([`workloads::templates`]):
//!
//! * the bundled heavy/light mix ([`heavy_light_mix`]) — the reference
//!   stream for the EASY-vs-FCFS comparison: wide long jobs that block the
//!   queue head interleaved with narrow short jobs that can backfill
//!   around the reservation;
//! * the fleet-scale class-catalog stream ([`FleetJobs`]) — lazy, so
//!   million-job runs never hold a job list.
//!
//! Trace-driven streams are just `Vec<BatchJob>` built by the caller.

use crate::job::{BatchJob, JobSpec};
use faultsim::SplitMix64;
use workloads::templates;

/// Which workload's imbalance profile a synthetic job borrows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobTemplate {
    MetBench,
    MetBenchVar,
    BtMz,
    Siesta,
    /// Uniform-random loads — the irregular catch-all.
    Irregular,
}

impl JobTemplate {
    pub const ALL: [JobTemplate; 5] = [
        JobTemplate::MetBench,
        JobTemplate::MetBenchVar,
        JobTemplate::BtMz,
        JobTemplate::Siesta,
        JobTemplate::Irregular,
    ];

    pub fn label(self) -> &'static str {
        match self {
            JobTemplate::MetBench => "metbench",
            JobTemplate::MetBenchVar => "metbenchvar",
            JobTemplate::BtMz => "btmz",
            JobTemplate::Siesta => "siesta",
            JobTemplate::Irregular => "irregular",
        }
    }

    /// Per-rank loads for one job instance: the template's normalized
    /// shape scaled by `peak` work units per iteration.
    pub fn rank_loads(self, peak: f64, ranks: usize, rng: &mut SplitMix64) -> Vec<f64> {
        let shape = match self {
            JobTemplate::MetBench => stretch(&templates::metbench_shape(), ranks),
            JobTemplate::MetBenchVar => stretch(&templates::metbenchvar_shape(), ranks),
            JobTemplate::BtMz => stretch(&templates::btmz_shape(), ranks),
            JobTemplate::Siesta => templates::siesta_shape(ranks),
            JobTemplate::Irregular => {
                (0..ranks).map(|_| 0.25 + 0.75 * rng.unit()).collect()
            }
        };
        shape.into_iter().map(|s| s * peak).collect()
    }
}

/// Repeat a shape cyclically to `ranks` entries.
fn stretch(shape: &[f64], ranks: usize) -> Vec<f64> {
    (0..ranks).map(|r| shape[r % shape.len()]).collect()
}

/// Exponential variate via inversion; `unit()` is in `[0, 1)` so the
/// argument of `ln` stays strictly positive.
fn exp_gap(mean: f64, rng: &mut SplitMix64) -> f64 {
    -mean * (1.0 - rng.unit()).ln()
}

/// The bundled heavy/light mix (the acceptance stream): one wide long job
/// in four, narrow short fillers otherwise, bursty enough that a queue
/// forms behind every wide job. Sized for a 4-node fleet: wide jobs take 3
/// nodes, so exactly one node is left for backfill when a wide job runs.
/// Each job draws only from one generator in id order, so `mix(seed, k)`
/// is a prefix of `mix(seed, n)` for any `k <= n`.
pub fn heavy_light_mix(seed: u64, jobs: usize) -> Vec<BatchJob> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0;
    (0..jobs as u64)
        .map(|id| {
            t += exp_gap(0.15, &mut rng);
            let heavy = rng.unit() < 0.25;
            let (template, loads, iterations) = if heavy {
                let template = JobTemplate::ALL[(rng.next_u64() % 4) as usize];
                (template, template.rank_loads(0.12, 12, &mut rng), 4)
            } else {
                let template = JobTemplate::Irregular;
                let ranks = 2 + (rng.next_u64() % 3) as usize;
                (template, template.rank_loads(0.04, ranks, &mut rng), 2)
            };
            let kind = if heavy { "heavy" } else { "light" };
            let name = format!("{kind}-{}-{id}", template.label());
            BatchJob::new(id, JobSpec::new(name, loads, iterations), t)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fleet-scale class-catalog streams.
// ---------------------------------------------------------------------------

/// Parameters of a fleet-scale streaming mix: jobs are drawn from a small
/// catalog of *classes*, each with a fixed shape and length, so the
/// service-time oracle measures one kernel per `(class, iterations)`
/// instead of one per job — the property that makes 10^6-job streams
/// affordable (see [`crate::fleet`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetStreamConfig {
    pub seed: u64,
    pub jobs: u64,
    /// Catalog size: number of distinct job classes.
    pub classes: u32,
    /// Mean exponential interarrival gap, seconds.
    pub mean_interarrival: f64,
}

impl Default for FleetStreamConfig {
    fn default() -> Self {
        FleetStreamConfig { seed: 2008, jobs: 10_000, classes: 24, mean_interarrival: 0.05 }
    }
}

/// One catalog entry: the spec every job of the class runs.
#[derive(Clone, Debug)]
pub struct ClassSpec {
    pub loads: Vec<f64>,
    pub iterations: u32,
}

/// Build the class catalog for a fleet stream: each class draws its
/// template, width, and length from its own seeded generator, so the
/// catalog is a pure function of `(seed, classes)`. Roughly one class in
/// four is a wide heavy one (up to 36 ranks), the rest are narrow
/// fillers — the same shape economy as the heavy/light mix, scaled up.
pub fn class_catalog(cfg: &FleetStreamConfig) -> Vec<ClassSpec> {
    (0..u64::from(cfg.classes.max(1)))
        .map(|c| {
            let mut rng = SplitMix64::new(cfg.seed ^ (c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let template = JobTemplate::ALL[(rng.next_u64() % 5) as usize];
            let heavy = rng.unit() < 0.25;
            let (ranks, iterations, peak) = if heavy {
                (8 + 4 * (rng.next_u64() % 8) as usize, 2 + (rng.next_u64() % 3) as u32, 0.12)
            } else {
                (2 + (rng.next_u64() % 3) as usize, 2, 0.04)
            };
            ClassSpec { loads: template.rank_loads(peak, ranks, &mut rng), iterations }
        })
        .collect()
}

/// Lazy fleet-scale stream: exponential interarrivals, classes drawn
/// uniformly from the catalog. Pure in `(cfg, index)`; any prefix is
/// independent of `cfg.jobs`, which is what lets checkpoints image the
/// generator as `(cfg, emitted)` and replay it on resume.
pub struct FleetJobs {
    cfg: FleetStreamConfig,
    catalog: Vec<ClassSpec>,
    arrivals: SplitMix64,
    classes: SplitMix64,
    t: f64,
    emitted: u64,
}

impl FleetJobs {
    pub fn new(cfg: &FleetStreamConfig) -> FleetJobs {
        let mut rng = SplitMix64::new(cfg.seed);
        let arrivals = rng.fork(0xf1ee);
        let classes = rng.fork(0xc1a5);
        FleetJobs {
            cfg: *cfg,
            catalog: class_catalog(cfg),
            arrivals,
            classes,
            t: 0.0,
            emitted: 0,
        }
    }

    /// Jobs generated so far — the checkpointable progress mark.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    pub fn config(&self) -> &FleetStreamConfig {
        &self.cfg
    }

    /// Rebuild a generator positioned after `emitted` jobs by replaying
    /// the (cheap, kernel-free) draws from the start — generation is pure
    /// in `(cfg, index)`, so the replayed state is exact.
    pub fn replay(cfg: &FleetStreamConfig, emitted: u64) -> FleetJobs {
        let mut gen = FleetJobs::new(cfg);
        for _ in 0..emitted.min(cfg.jobs) {
            let _ = gen.next();
        }
        gen
    }
}

impl Iterator for FleetJobs {
    type Item = BatchJob;

    fn next(&mut self) -> Option<BatchJob> {
        if self.emitted >= self.cfg.jobs {
            return None;
        }
        let id = self.emitted;
        self.emitted += 1;
        self.t += exp_gap(self.cfg.mean_interarrival, &mut self.arrivals);
        let class = self.classes.next_u64() % self.catalog.len() as u64;
        let entry = &self.catalog[class as usize];
        let spec =
            JobSpec::new(format!("c{class}-{id}"), entry.loads.clone(), entry.iterations);
        let mut job = BatchJob::new(id, spec, self.t);
        job.class = Some(class);
        Some(job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let a = heavy_light_mix(2008, 200);
        let b = heavy_light_mix(2008, 200);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let cfg = FleetStreamConfig { jobs: 200, ..Default::default() };
        let a: Vec<_> = FleetJobs::new(&cfg).collect();
        let b: Vec<_> = FleetJobs::new(&cfg).collect();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let s = heavy_light_mix(7, 100);
        for w in s.windows(2) {
            assert!(w[1].arrival > w[0].arrival);
            assert!(w[1].id == w[0].id + 1);
        }
    }

    #[test]
    fn heavy_light_mix_has_both_kinds() {
        let s = heavy_light_mix(2008, 200);
        let wide = s.iter().filter(|j| j.nodes_needed() == 3).count();
        let narrow = s.iter().filter(|j| j.nodes_needed() == 1).count();
        assert_eq!(wide + narrow, 200);
        assert!(wide >= 25 && narrow >= 100, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn templates_produce_positive_loads() {
        let mut rng = SplitMix64::new(1);
        for t in JobTemplate::ALL {
            let loads = t.rank_loads(0.1, 8, &mut rng);
            assert_eq!(loads.len(), 8);
            assert!(loads.iter().all(|&l| l > 0.0), "{t:?}: {loads:?}");
        }
    }
}
