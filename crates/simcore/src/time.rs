//! Simulated time.
//!
//! All simulated clocks in the workspace use a `u64` nanosecond counter.
//! Nanosecond resolution matches what the Linux scheduler uses internally
//! (`sched_clock()` returns nanoseconds) and gives ~584 simulated years of
//! range, far beyond any experiment here.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; used as a sentinel for "no deadline".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Simulated seconds since start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`. Saturates at zero instead of
    /// panicking so callers comparing clock samples taken out of order get a
    /// zero span rather than UB-adjacent wrapping.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + dur`, saturating at the far future.
    #[inline]
    pub fn saturating_add(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(dur.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds. Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> SimDuration {
        if s <= 0.0 {
            SimDuration::ZERO
        } else {
            SimDuration(round_u64(s * 1e9))
        }
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating multiplication by a count.
    #[inline]
    pub fn saturating_mul(self, n: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(n))
    }

    /// Scale by a non-negative float, rounding to the nearest nanosecond.
    /// Used by the CPU model to convert work at a given speed into time.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative time scaling");
        SimDuration(round_u64(self.0 as f64 * factor))
    }

    /// Divide by a positive float, rounding to the nearest nanosecond.
    #[inline]
    pub fn div_f64(self, divisor: f64) -> SimDuration {
        debug_assert!(divisor > 0.0, "division by non-positive factor");
        SimDuration(round_u64(self.0 as f64 / divisor))
    }
}

/// `x.round() as u64`, without the libm call `f64::round` compiles to on
/// baseline x86-64 (no SSE4.1): the truncation, plus one when the fraction
/// it dropped is at least a half. Below 2⁵³ the fraction `x - t` is exact;
/// at or above it `x` is an integer and the fraction is 0; a negative `x`
/// or NaN truncates to 0 and never has a fraction of a half; `x ≥ 2⁶⁴` and
/// +∞ saturate. Each case is what the cast of the rounded value gives.
#[inline]
fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went backwards");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(self.0 >= rhs.0, "SimDuration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_nanos(7).as_nanos(), 7);
    }

    fn round_like_libm(x: f64) {
        assert_eq!(round_u64(x), x.round() as u64, "{x:?} ({:#x})", x.to_bits());
    }

    #[test]
    fn round_u64_edges_match_f64_round() {
        let two64 = 18_446_744_073_709_551_616.0_f64;
        let edges = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            0.49999999999999994,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            4503599627370495.5,
            4503599627370496.0,
            9007199254740991.0,
            9007199254740993.0,
            two64,
            two64 * 2.0,
            f64::from_bits(two64.to_bits() - 1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            -1e300,
        ];
        for x in edges {
            round_like_libm(x);
        }
        for n in 0..2000u64 {
            let x = n as f64 / 4.0;
            round_like_libm(x);
            round_like_libm(f64::from_bits(x.to_bits() + 1));
            round_like_libm(f64::from_bits(x.to_bits().saturating_sub(1)));
        }
    }

    proptest::proptest! {
        /// Every bit pattern: NaNs, infinities, subnormals, negatives and
        /// values past 2⁶⁴ included.
        #[test]
        fn round_u64_matches_f64_round_on_any_bits(bits in proptest::prelude::any::<u64>()) {
            round_like_libm(f64::from_bits(bits));
        }

        /// Ties and their neighbours at every magnitude below 2⁵³.
        #[test]
        fn round_u64_matches_f64_round_near_ties(n in 0u64..(1 << 52), shift in 0u32..52) {
            let tie = (n >> shift) as f64 + 0.5;
            for x in [tie, f64::from_bits(tie.to_bits() - 1), f64::from_bits(tie.to_bits() + 1)] {
                round_like_libm(x);
            }
        }
    }

    #[test]
    fn from_secs_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_millis(10);
        assert_eq!(t.as_nanos(), 10_000_000);
        let later = t + SimDuration::from_millis(5);
        assert_eq!(later - t, SimDuration::from_millis(5));
        assert_eq!(t.saturating_since(later), SimDuration::ZERO);
        assert_eq!(later.saturating_since(t), SimDuration::from_millis(5));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(500));
        assert_eq!(d.div_f64(2.0), SimDuration::from_millis(500));
        assert_eq!(d * 3, SimDuration::from_secs(3));
        assert_eq!(d / 4, SimDuration::from_millis(250));
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
        let small = SimDuration::from_nanos(1);
        let big = SimDuration::from_nanos(2);
        assert_eq!(small.saturating_sub(big), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_sum() {
        assert!(SimTime(1) < SimTime(2));
        let total: SimDuration =
            [SimDuration::from_secs(1), SimDuration::from_secs(2)].into_iter().sum();
        assert_eq!(total, SimDuration::from_secs(3));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }
}
