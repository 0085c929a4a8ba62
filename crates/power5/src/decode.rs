//! Decode-slot arbitration between the two SMT contexts of a core
//! (paper §II-B, Table I).
//!
//! For two runnable contexts with *regular* priorities (2–6) and priority
//! difference `d`, the core repeats a window of `R = 2^(d+1)` decode cycles:
//! the lower-priority thread decodes in exactly 1 of them, the
//! higher-priority thread in the remaining `R − 1`. Equal priorities
//! alternate 1:1 (`R = 2`).
//!
//! Two implementations are provided:
//!
//! * [`decode_share`] — the closed-form share each context receives, used by
//!   the performance model;
//! * [`SlotArbiter`] — a cycle-by-cycle reference arbiter, used by tests and
//!   by the Table I experiment to *demonstrate* the ratios rather than
//!   assume them.

use crate::priority::HwPriority;

/// The fraction of decode cycles each context receives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecodeSplit {
    /// Share of context A, in `[0, 1]`.
    pub a: f64,
    /// Share of context B, in `[0, 1]`.
    pub b: f64,
}

impl DecodeSplit {
    /// Both contexts off.
    pub const NONE: DecodeSplit = DecodeSplit { a: 0.0, b: 0.0 };
}

/// Size of the arbitration window for a given priority difference:
/// `R = 2^(|d|+1)` (paper Table I). Defined for regular priorities only.
#[inline]
pub fn decode_interval(diff: u8) -> u32 {
    2u32 << diff // 2^(diff+1)
}

/// Closed-form decode shares for a pair of context priorities.
///
/// Handles the special levels exactly as the paper describes:
/// * priority 0 — context off, share 0; the sibling effectively runs alone;
/// * priority 7 — single-thread mode (architecturally the sibling is off;
///   we treat a (7, x) pair as (all, none));
/// * priority 1 — background: the thread only receives decode cycles the
///   foreground thread leaves unused. We model that as a fixed small share
///   (`BACKGROUND_SHARE`) when the sibling is a regular foreground thread.
pub fn decode_share(a: HwPriority, b: HwPriority) -> DecodeSplit {
    const FULL: DecodeSplit = DecodeSplit { a: 1.0, b: 0.0 };
    const FULL_B: DecodeSplit = DecodeSplit { a: 0.0, b: 1.0 };

    match (a.value(), b.value()) {
        (0, 0) => DecodeSplit::NONE,
        (0, _) => FULL_B,
        (_, 0) => FULL,
        // ST mode: a 7 wins the whole core. (7,7) is not architecturally
        // meaningful — ST mode implies the sibling is off — so treat it as
        // an even split, the closest defined behaviour.
        (7, 7) => DecodeSplit { a: 0.5, b: 0.5 },
        (7, _) => FULL,
        (_, 7) => FULL_B,
        // Background vs background: even split of leftovers.
        (1, 1) => DecodeSplit { a: 0.5, b: 0.5 },
        (1, _) => DecodeSplit { a: BACKGROUND_SHARE, b: 1.0 - BACKGROUND_SHARE },
        (_, 1) => DecodeSplit { a: 1.0 - BACKGROUND_SHARE, b: BACKGROUND_SHARE },
        (pa, pb) => {
            let d = pa.abs_diff(pb);
            let r = decode_interval(d) as f64;
            if pa >= pb {
                DecodeSplit { a: (r - 1.0) / r, b: 1.0 / r }
            } else {
                DecodeSplit { a: 1.0 / r, b: (r - 1.0) / r }
            }
        }
    }
}

/// Decode share granted to a background (priority 1) thread whose sibling is
/// a regular foreground thread. The architecture gives the background thread
/// only leftover decode slots; on compute-bound foreground work the leftover
/// is tiny. 1/32 matches the most extreme regular ratio (diff 4 → 31:1),
/// which is where the paper places priority 1 relative to the regular range.
pub const BACKGROUND_SHARE: f64 = 1.0 / 32.0;

/// Cycle-accurate reference arbiter.
///
/// Reproduces paper Table I literally: within each window of `R` cycles the
/// lower-priority context decodes exactly once (in the last slot of the
/// window, matching the round-robin hardware counter) and the
/// higher-priority context `R - 1` times. Only defined for two runnable
/// regular-priority contexts — exactly the regime Table I covers.
#[derive(Clone, Debug)]
pub struct SlotArbiter {
    prio_a: HwPriority,
    prio_b: HwPriority,
    cycle: u64,
}

/// Which context decodes in a given cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    A,
    B,
}

impl SlotArbiter {
    /// # Panics
    /// If either priority is not regular (2–6); the special levels bypass
    /// windowed arbitration.
    pub fn new(prio_a: HwPriority, prio_b: HwPriority) -> Self {
        assert!(
            prio_a.is_regular() && prio_b.is_regular(),
            "slot arbitration is defined for regular priorities (2-6)"
        );
        SlotArbiter { prio_a, prio_b, cycle: 0 }
    }

    /// Window size `R` for the configured pair.
    pub fn window(&self) -> u32 {
        decode_interval(self.prio_a.diff(self.prio_b))
    }

    /// Advance one decode cycle and report which context got the slot.
    ///
    /// The low-priority thread gets the final slot of each window; with
    /// equal priorities (R = 2) this degenerates to strict alternation.
    pub fn next_slot(&mut self) -> Slot {
        let r = self.window() as u64;
        let pos = self.cycle % r;
        self.cycle += 1;
        if self.prio_a == self.prio_b {
            return if pos == 0 { Slot::A } else { Slot::B };
        }
        let a_is_low = self.prio_a < self.prio_b;
        let low_slot = pos == r - 1;
        if low_slot == a_is_low {
            Slot::A
        } else {
            Slot::B
        }
    }

    /// Run `n` cycles and count slots per context.
    pub fn run(&mut self, n: u64) -> (u64, u64) {
        let mut a = 0;
        let mut b = 0;
        for _ in 0..n {
            match self.next_slot() {
                Slot::A => a += 1,
                Slot::B => b += 1,
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    #[test]
    fn interval_matches_table1() {
        // Table I: diff -> R
        let expect = [(0u8, 2u32), (1, 4), (2, 8), (3, 16), (4, 32), (5, 64)];
        for (d, r) in expect {
            assert_eq!(decode_interval(d), r, "diff {d}");
        }
    }

    #[test]
    fn share_equal_priorities() {
        let s = decode_share(p(4), p(4));
        assert_eq!(s.a, 0.5);
        assert_eq!(s.b, 0.5);
    }

    #[test]
    fn share_matches_table1_ratios() {
        // diff 2 (6 vs 4): 7 of 8 cycles vs 1 of 8.
        let s = decode_share(p(6), p(4));
        assert!((s.a - 7.0 / 8.0).abs() < 1e-12);
        assert!((s.b - 1.0 / 8.0).abs() < 1e-12);

        // diff 4 (6 vs 2): 31 vs 1 of 32 — the paper's worked example.
        let s = decode_share(p(6), p(2));
        assert!((s.a - 31.0 / 32.0).abs() < 1e-12);
        assert!((s.b - 1.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn share_is_symmetric() {
        for a in 2..=6u8 {
            for b in 2..=6u8 {
                let s1 = decode_share(p(a), p(b));
                let s2 = decode_share(p(b), p(a));
                assert_eq!(s1.a, s2.b);
                assert_eq!(s1.b, s2.a);
            }
        }
    }

    #[test]
    fn shares_sum_to_one_for_running_pairs() {
        for a in 1..=7u8 {
            for b in 1..=7u8 {
                let s = decode_share(p(a), p(b));
                assert!((s.a + s.b - 1.0).abs() < 1e-12, "prio ({a},{b})");
            }
        }
    }

    #[test]
    fn off_context_yields_whole_core() {
        let s = decode_share(p(0), p(4));
        assert_eq!(s.a, 0.0);
        assert_eq!(s.b, 1.0);
        assert_eq!(decode_share(p(0), p(0)), DecodeSplit::NONE);
    }

    #[test]
    fn st_mode_takes_everything() {
        let s = decode_share(p(7), p(4));
        assert_eq!(s.a, 1.0);
        assert_eq!(s.b, 0.0);
    }

    #[test]
    fn background_gets_leftovers_only() {
        let s = decode_share(p(1), p(4));
        assert!(s.a <= BACKGROUND_SHARE + 1e-12);
        assert!(s.b >= 1.0 - BACKGROUND_SHARE - 1e-12);
    }

    #[test]
    fn arbiter_counts_match_table1_exactly() {
        // Table I rows: (diff, decode cycles A, decode cycles B) per window,
        // with A the higher-priority context.
        let rows = [(0u8, 1u64, 1u64), (1, 3, 1), (2, 7, 1)];
        for (d, high, low) in rows {
            let pa = p(4 + d); // stays within 2..=6 for d <= 2
            let pb = p(4);
            let mut arb = SlotArbiter::new(pa, pb);
            let r = arb.window() as u64;
            assert_eq!(r, high + low, "diff {d} window");
            let (a, b) = arb.run(r);
            assert_eq!(a, high, "diff {d} high count");
            assert_eq!(b, low, "diff {d} low count");
        }
    }

    #[test]
    fn arbiter_long_run_converges_to_share() {
        let mut arb = SlotArbiter::new(p(6), p(4));
        let n = 8 * 1000;
        let (a, b) = arb.run(n);
        assert_eq!(a, 7000);
        assert_eq!(b, 1000);
        let s = decode_share(p(6), p(4));
        assert!((a as f64 / n as f64 - s.a).abs() < 1e-9);
        assert!((b as f64 / n as f64 - s.b).abs() < 1e-9);
    }

    #[test]
    fn arbiter_equal_priorities_alternate() {
        let mut arb = SlotArbiter::new(p(4), p(4));
        let slots: Vec<Slot> = (0..6).map(|_| arb.next_slot()).collect();
        assert_eq!(slots, vec![Slot::A, Slot::B, Slot::A, Slot::B, Slot::A, Slot::B]);
    }

    #[test]
    #[should_panic(expected = "regular priorities")]
    fn arbiter_rejects_special_levels() {
        SlotArbiter::new(p(7), p(4));
    }
}
