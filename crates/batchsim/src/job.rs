//! Jobs: a gang-scheduled [`JobSpec`] and the [`BatchJob`] that carries
//! it through the queue.

use serde::{Deserialize, Serialize};
use simcore::SimRng;

use crate::placement::NODE_SLOTS;

/// An SPMD job: one load estimate per rank (work units per iteration, the
/// same normalization as the `workloads` crate) and an iteration count.
/// Ranks synchronize with a global barrier each iteration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    pub name: String,
    /// Per-rank compute work per iteration.
    pub rank_loads: Vec<f64>,
    pub iterations: u32,
}

impl simcore::snapshot::Snapshot for JobSpec {
    fn snapshot(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        self.snapshot_with_iterations(self.iterations, w);
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        // `new`'s validation as a typed error: a checksum proves the bytes
        // are the ones written, not that they came from a valid spec, and
        // the engine places and runs a spec without checking it again.
        let spec = JobSpec { name: r.get_str()?, rank_loads: r.get()?, iterations: r.get_u32()? };
        if spec.rank_loads.is_empty() || !spec.rank_loads.iter().all(|&l| l > 0.0) {
            let why = "job spec without positive loads";
            return Err(simcore::snapshot::SnapshotError::Malformed(why));
        }
        Ok(spec)
    }
}

impl JobSpec {
    /// # Panics
    /// If any load is non-positive or the job is empty.
    pub fn new(name: impl Into<String>, rank_loads: Vec<f64>, iterations: u32) -> Self {
        assert!(!rank_loads.is_empty(), "empty job");
        assert!(rank_loads.iter().all(|&l| l > 0.0), "loads must be positive");
        JobSpec { name: name.into(), rank_loads, iterations }
    }

    pub fn ranks(&self) -> usize {
        self.rank_loads.len()
    }

    /// The image of this spec with its iterations replaced by
    /// `iterations`: the bytes the snapshot of such a copy would write,
    /// without the copy.
    pub(crate) fn snapshot_with_iterations(
        &self,
        iterations: u32,
        w: &mut simcore::snapshot::SnapshotWriter,
    ) {
        w.put_str(&self.name);
        w.put(&self.rank_loads);
        w.put_u32(iterations);
    }

    /// Whether `other` is this spec up to its iterations, loads compared
    /// bit for bit.
    pub(crate) fn same_gang(&self, other: &JobSpec) -> bool {
        let same_bits = |(a, b): (&f64, &f64)| a.to_bits() == b.to_bits();
        self.name == other.name
            && self.rank_loads.len() == other.rank_loads.len()
            && self.rank_loads.iter().zip(&other.rank_loads).all(same_bits)
    }

    /// A synthetic job with lognormal-ish load spread — the irregular mesh
    /// partitions cluster schedulers actually face.
    pub fn random(name: impl Into<String>, ranks: usize, iterations: u32, rng: &mut SimRng) -> Self {
        assert!(ranks > 0);
        let loads = (0..ranks)
            .map(|_| {
                let base = 0.05;
                base * rng.normal_clamped(1.0, 0.6, 0.25, 4.0)
            })
            .collect();
        JobSpec::new(name, loads, iterations)
    }

    /// Imbalance ratio: max load / min load.
    pub fn imbalance(&self) -> f64 {
        let max = self.rank_loads.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = self.rank_loads.iter().cloned().fold(f64::INFINITY, f64::min);
        max / min
    }
}

/// One job submitted to the batch scheduler.
#[derive(Clone, Debug)]
pub struct BatchJob {
    /// Submission order, unique within a stream. Ties on every queue
    /// decision break by id, which is what makes the simulation a pure
    /// function of (stream, config).
    pub id: u64,
    pub spec: JobSpec,
    /// Submission time, seconds from stream start.
    pub arrival: f64,
    /// Service-time class. Jobs sharing a class have identical specs (up
    /// to the name), so the oracle memoizes one kernel measurement per
    /// `(class, iterations)` instead of one per job — what makes
    /// million-job fleet streams affordable. `None` keys the oracle by
    /// job id, the classic per-job behaviour.
    pub class: Option<u64>,
}

impl BatchJob {
    pub fn new(id: u64, spec: JobSpec, arrival: f64) -> BatchJob {
        BatchJob { id, spec, arrival, class: None }
    }

    /// The oracle memoization key: the class when present, else the id.
    pub fn service_key(&self) -> u64 {
        self.class.unwrap_or(self.id)
    }

    /// Nodes this gang occupies: allocation is node-exclusive, so a job
    /// takes whole nodes even when its last node is partially filled.
    pub fn nodes_needed(&self) -> usize {
        self.spec.ranks().div_ceil(NODE_SLOTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_metrics() {
        let j = JobSpec::new("j", vec![1.0, 2.0, 4.0], 10);
        assert_eq!(j.ranks(), 3);
        assert!((j.imbalance() - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "loads must be positive")]
    fn rejects_zero_loads() {
        JobSpec::new("bad", vec![1.0, 0.0], 1);
    }

    #[test]
    fn random_jobs_are_bounded_and_deterministic() {
        let mut r1 = SimRng::seed_from_u64(5);
        let mut r2 = SimRng::seed_from_u64(5);
        let a = JobSpec::random("a", 16, 5, &mut r1);
        let b = JobSpec::random("b", 16, 5, &mut r2);
        assert_eq!(a.rank_loads, b.rank_loads, "seeded generation is deterministic");
        assert!(a.imbalance() <= 16.0 + 1e-9);
        assert!(a.rank_loads.iter().all(|&l| l > 0.0));
    }

    #[test]
    fn nodes_needed_rounds_up() {
        let j = |ranks: usize| {
            BatchJob::new(0, JobSpec::new("j", vec![0.1; ranks], 1), 0.0)
        };
        assert_eq!(j(1).nodes_needed(), 1);
        assert_eq!(j(4).nodes_needed(), 1);
        assert_eq!(j(5).nodes_needed(), 2);
        assert_eq!(j(12).nodes_needed(), 3);
    }
}
