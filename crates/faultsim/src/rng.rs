//! Self-contained SplitMix64 generator for fault schedules.
//!
//! faultsim deliberately does not reuse `simcore::SimRng`: a fault schedule
//! must be derivable from the plan seed alone, without consuming (and thereby
//! perturbing) any simulator RNG stream. SplitMix64 is tiny, needs no state
//! beyond one `u64`, and uses the same finalizer constants as
//! `SimRng::fork`, so streams mix equally well. No wall clock anywhere:
//! seeding is always explicit (the root `clippy.toml` bans host clocks).

/// A SplitMix64 pseudo-random stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derive an independent child stream, so each fault clause gets its own
    /// sequence and adding one clause never perturbs the others.
    ///
    /// Forking *consumes* one draw from the parent, so the fork sequence is
    /// part of the determinism contract: callers that fan work out (e.g.
    /// `batchsim`'s per-node seed derivation) must fork all children
    /// serially, in a fixed order, *before* handing work to any thread
    /// pool — fork order, including which salts are skipped, decides every
    /// child stream.
    pub fn fork(&mut self, salt: u64) -> SplitMix64 {
        let base = self.next_u64();
        let mut z = base ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SplitMix64::new(z ^ (z >> 31))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(2008);
        let mut b = SplitMix64::new(2008);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn fork_order_decides_child_streams() {
        // fork() consumes a parent draw: forking the same salts in a
        // different order must give different children, while the same
        // order always reproduces them. This is the contract parallel
        // callers rely on when they pre-derive seeds serially.
        let mut fwd = SplitMix64::new(11);
        let a1 = fwd.fork(1).next_u64();
        let a2 = fwd.fork(2).next_u64();
        let mut rev = SplitMix64::new(11);
        let b2 = rev.fork(2).next_u64();
        let b1 = rev.fork(1).next_u64();
        assert_ne!((a1, a2), (b1, b2), "fork order must matter");
        let mut again = SplitMix64::new(11);
        assert_eq!(again.fork(1).next_u64(), a1);
        assert_eq!(again.fork(2).next_u64(), a2);
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut r1 = SplitMix64::new(9);
        let mut r2 = SplitMix64::new(9);
        let mut c1 = r1.fork(0xABCD);
        let mut c2 = r2.fork(0xABCD);
        for _ in 0..32 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut other = SplitMix64::new(9).fork(0xABCE);
        assert_ne!(c1.next_u64(), other.next_u64());
    }
}
