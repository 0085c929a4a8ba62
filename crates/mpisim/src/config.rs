//! MPI cost model configuration.

use simcore::SimDuration;

/// Latency/bandwidth model for the simulated interconnect.
///
/// The paper's machine runs all four ranks on one node, so messages move
/// through shared memory: microsecond-scale latency, ~GB/s bandwidth.
#[derive(Clone, Copy, Debug)]
pub struct MpiConfig {
    /// Per-message base latency.
    pub latency: SimDuration,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Extra per-hop latency charged per tree level in collectives.
    pub collective_hop: SimDuration,
}

impl Default for MpiConfig {
    fn default() -> Self {
        MpiConfig {
            latency: SimDuration::from_micros(2),
            bandwidth: 1.0e9,
            collective_hop: SimDuration::from_micros(3),
        }
    }
}

impl MpiConfig {
    /// Transfer time of an eager message of `bytes`.
    pub fn transfer_time(&self, bytes: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(bytes as f64 / self.bandwidth)
    }

    /// Completion delay of a collective over `n` ranks, counted from the
    /// moment the last rank arrives: an up+down tree of hops.
    pub fn collective_time(&self, n: usize) -> SimDuration {
        let levels = (n.max(1) as f64).log2().ceil() as u64;
        self.latency + self.collective_hop * (2 * levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let c = MpiConfig::default();
        let small = c.transfer_time(0);
        assert_eq!(small, c.latency);
        let big = c.transfer_time(1_000_000_000);
        assert!(big >= SimDuration::from_secs(1), "1GB at 1GB/s");
        assert!(c.transfer_time(1024) > small);
    }

    #[test]
    fn collective_time_grows_logarithmically() {
        let c = MpiConfig::default();
        let t2 = c.collective_time(2);
        let t4 = c.collective_time(4);
        let t16 = c.collective_time(16);
        assert!(t4 >= t2);
        assert!(t16 > t4);
        // log2(16) = 4 levels vs log2(4) = 2 levels → difference of 4 hops.
        assert_eq!(t16 - t4, c.collective_hop * 4);
    }

    #[test]
    fn single_rank_collective_is_cheap() {
        let c = MpiConfig::default();
        assert_eq!(c.collective_time(1), c.latency);
    }
}
