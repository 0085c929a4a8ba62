//! Deterministic random number generation for simulations.
//!
//! Everything stochastic in the workspace (workload jitter, OS-noise
//! arrivals, message latency jitter) draws from a [`SimRng`] seeded from the
//! experiment configuration, so runs are exactly reproducible.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// A seeded RNG with the handful of distributions the simulators need.
///
/// Wraps `rand::rngs::SmallRng`; the wrapper exists so the rest of the
/// workspace depends on a stable, minimal interface rather than on `rand`'s
/// trait soup, and so distribution helpers (exponential, bounded normal) live
/// in one audited place.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create an RNG from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng { inner: SmallRng::seed_from_u64(seed) }
    }

    /// Derive an independent child RNG; used to give each task / noise source
    /// its own stream so adding one source does not perturb the others.
    pub fn fork(&mut self, salt: u64) -> SimRng {
        // splitmix-style mixing of a fresh draw with the salt.
        let base = self.inner.random::<u64>();
        let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SimRng::seed_from_u64(z ^ (z >> 31))
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random::<f64>()
    }

    /// Uniform integer in `[lo, hi)`. `hi` must be > `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        self.inner.random_range(lo..hi)
    }

    /// Exponentially distributed value with the given mean (inter-arrival
    /// times of Poisson processes; OS-noise model).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        let u = 1.0 - self.unit(); // in (0, 1]
        -mean * u.ln()
    }

    /// Normally distributed value (Box–Muller), clamped to `[lo, hi]`.
    /// Used for bounded per-iteration compute jitter.
    pub fn normal_clamped(&mut self, mean: f64, stddev: f64, lo: f64, hi: f64) -> f64 {
        assert!(stddev >= 0.0);
        let u1 = (1.0 - self.unit()).max(f64::MIN_POSITIVE);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (mean + stddev * z).clamp(lo, hi)
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.range_u64(0, 1_000_000), b.range_u64(0, 1_000_000));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.unit() == b.unit()).count();
        assert!(same < 4, "streams should diverge");
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut root1 = SimRng::seed_from_u64(7);
        let mut root2 = SimRng::seed_from_u64(7);
        let mut c1 = root1.fork(0xABCD);
        let mut c2 = root2.fork(0xABCD);
        for _ in 0..32 {
            assert_eq!(c1.unit(), c2.unit());
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::seed_from_u64(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let observed = sum / n as f64;
        assert!((observed - mean).abs() < 0.2, "observed mean {observed}");
    }

    #[test]
    fn normal_clamped_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..10_000 {
            let v = rng.normal_clamped(0.0, 10.0, -1.0, 1.0);
            assert!((-1.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let v = rng.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
