//! SMT performance model: from context priorities to task speeds.
//!
//! The scheduler does not care about decode slots per se — it cares about
//! how fast each task *runs*. Mapping decode share to instruction throughput
//! is strongly non-linear on the real POWER5: the paper's §I observes that
//! buying an X% speedup for the favoured thread can cost the sibling more
//! than 10·X%, and the companion characterization study (Boneti et al.,
//! ISCA 2008, reference \[4\] of the paper) measures the curve. We therefore
//! expose a [`PerfModel`] trait with two implementations:
//!
//! * [`TableModel`] — the default: a per-priority-difference table of
//!   (high-priority, low-priority) speed factors calibrated so that at the
//!   paper's working point (difference 2) the favoured thread gains ~15%
//!   and the victim loses ~69%, reproducing both the 12–16% application
//!   improvements and the near-perfect re-balancing of 4:1-imbalanced pairs
//!   the paper reports;
//! * [`AnalyticModel`] — a one-parameter concave rational curve
//!   `T(s) = (1+k)s / (1+ks)` over the decode share `s`, kept for ablation
//!   studies of the calibration itself.
//!
//! All speed factors are *relative to a dedicated single-thread core* =
//! `1.0`. Two equal-priority threads each run at [`TableModel::smt_equal`]
//! (default 0.8, i.e. SMT yields 1.6× aggregate throughput, in line with
//! published POWER5 SMT gains).

use crate::decode::decode_share;
use crate::priority::HwPriority;

/// Instantaneous speed factors for the two contexts of one core.
/// `1.0` = the speed of the same task alone on the core in ST mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeedFactors {
    pub a: f64,
    pub b: f64,
}

impl SpeedFactors {
    pub const IDLE: SpeedFactors = SpeedFactors { a: 0.0, b: 0.0 };
}

/// What the model needs to know about a running task.
///
/// Gaining decode slots and losing decode slots affect real code
/// *asymmetrically*: a compute-bound thread converts extra slots into
/// speed (high gain sensitivity) while a memory-bound thread that is
/// stall-dominated barely notices being starved of them (low loss
/// sensitivity). The companion characterization study (Boneti et al.,
/// ISCA 2008 — reference \[4\] of the paper) measures per-application curves;
/// these two knobs are how the workloads crate encodes each benchmark's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaskPerfTraits {
    /// How strongly the task speeds up when *favoured* (relative factor
    /// above 1), in `[0, 1]`. 1 = fully decode-bound.
    pub gain_sensitivity: f64,
    /// How strongly the task slows down when *starved* (relative factor
    /// below 1), in `[0, 1]`. 0 = entirely stall-bound, decode share
    /// irrelevant.
    pub loss_sensitivity: f64,
}

impl TaskPerfTraits {
    /// Equal gain/loss sensitivity (a plain compute-bound thread at 1.0).
    pub fn uniform(s: f64) -> Self {
        TaskPerfTraits { gain_sensitivity: s, loss_sensitivity: s }
    }

    /// Asymmetric sensitivities.
    pub fn new(gain: f64, loss: f64) -> Self {
        TaskPerfTraits { gain_sensitivity: gain, loss_sensitivity: loss }
    }

    fn for_rel(&self, rel: f64) -> f64 {
        if rel >= 1.0 {
            self.gain_sensitivity
        } else {
            self.loss_sensitivity
        }
    }
}

impl Default for TaskPerfTraits {
    fn default() -> Self {
        TaskPerfTraits::uniform(1.0)
    }
}

/// A context as the performance model sees it: empty, or running a task with
/// the given hardware priority and traits.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CtxLoad {
    /// Nothing runs here (or the idle thread, which the kernel parks at a
    /// priority that cedes the core).
    Idle,
    Busy { prio: HwPriority, traits: TaskPerfTraits },
}

/// Maps the state of a core's two contexts to task speed factors.
pub trait PerfModel {
    /// Speed factors for contexts A and B.
    fn speeds(&self, a: CtxLoad, b: CtxLoad) -> SpeedFactors;

    /// Speed of a task running with the sibling context idle/off.
    fn st_speed(&self, traits: TaskPerfTraits) -> f64 {
        self.speeds(CtxLoad::Busy { prio: HwPriority::MEDIUM, traits }, CtxLoad::Idle).a
    }

    /// Speed factors for an n-way core, one per context in order.
    ///
    /// The decode-arbitration table is defined pairwise, so the default
    /// delegates to [`PerfModel::speeds`] for widths ≤ 2 and panics on
    /// wider cores: a wide-SMT topology must run a model that overrides
    /// this ([`AnalyticModel`] does; [`schedsim`'s builder switches to it
    /// automatically for wide cores).
    fn speeds_many(&self, ctxs: &[CtxLoad]) -> Vec<f64> {
        match ctxs {
            [] => Vec::new(),
            [a] => vec![self.speeds(*a, CtxLoad::Idle).a],
            [a, b] => {
                let s = self.speeds(*a, *b);
                vec![s.a, s.b]
            }
            _ => panic!(
                "this SMT performance model is pairwise; cores wider than 2-way \
                 need the analytic model"
            ),
        }
    }
}

/// The default, calibration-table-driven model. See module docs.
#[derive(Clone, Debug)]
pub struct TableModel {
    /// Speed of each thread when both run at equal priority, relative to ST.
    pub smt_equal: f64,
    /// `(high, low)` speed factors relative to `smt_equal`, indexed by
    /// priority difference 0..=5.
    pub by_diff: [(f64, f64); 6],
    /// Relative factor for a priority-1 background thread facing a regular
    /// foreground sibling (the foreground sibling gets `st_factor`).
    pub background: f64,
    /// Relative factor for running effectively alone (sibling idle/off or
    /// own priority 7): `smt_equal * st_factor = 1.0` by construction.
    pub st_factor: f64,
}

impl Default for TableModel {
    fn default() -> Self {
        // Calibration rationale (DESIGN.md §3.2):
        // * diff 2 must give a high/low speed *ratio* ≈ 3.7 so that the 4:1
        //   load imbalance of MetBench/BT-MZ can be almost fully absorbed
        //   (Tables III and V show ~100% post-balance utilizations), while
        //   the favoured thread's *speedup* stays ≈ 15% (the applications
        //   improve 12–16%).
        // * The asymmetry grows with the difference, consistent with the
        //   1-in-R decode starvation of Table I and with the paper's
        //   "X% gain may cost 10X%" observation.
        let smt_equal = 0.8;
        TableModel {
            smt_equal,
            by_diff: [
                (1.00, 1.00),
                (1.08, 0.55),
                (1.15, 0.31),
                (1.20, 0.18),
                (1.22, 0.10),
                (1.24, 0.055),
            ],
            background: 0.12,
            st_factor: 1.0 / smt_equal,
        }
    }
}

impl TableModel {
    /// Apply a task's SMT sensitivity to a relative factor: an insensitive
    /// task's speed deviates less from the equal-priority baseline, with
    /// gains and losses scaled independently.
    fn sensitize(rel: f64, traits: TaskPerfTraits) -> f64 {
        1.0 + traits.for_rel(rel).clamp(0.0, 1.0) * (rel - 1.0)
    }

    fn relative_pair(&self, pa: HwPriority, pb: HwPriority) -> (f64, f64) {
        debug_assert!(pa.is_regular() && pb.is_regular());
        let d = (pa.diff(pb) as usize).min(self.by_diff.len() - 1);
        let (high, low) = self.by_diff[d];
        if pa >= pb {
            (high, low)
        } else {
            (low, high)
        }
    }
}

impl PerfModel for TableModel {
    fn speeds(&self, a: CtxLoad, b: CtxLoad) -> SpeedFactors {
        use CtxLoad::*;
        match (a, b) {
            (Idle, Idle) => SpeedFactors::IDLE,
            (Busy { prio, traits }, Idle) => SpeedFactors {
                a: self.solo_speed(prio, traits),
                b: 0.0,
            },
            (Idle, Busy { prio, traits }) => SpeedFactors {
                a: 0.0,
                b: self.solo_speed(prio, traits),
            },
            (Busy { prio: pa, traits: ta }, Busy { prio: pb, traits: tb }) => {
                self.pair_speeds(pa, ta, pb, tb)
            }
        }
    }
}

impl TableModel {
    fn solo_speed(&self, prio: HwPriority, traits: TaskPerfTraits) -> f64 {
        if prio == HwPriority::OFF {
            return 0.0;
        }
        // Alone on the core the thread gets every decode slot regardless of
        // its priority value; it runs at ST speed scaled by sensitivity.
        self.smt_equal * Self::sensitize(self.st_factor, traits)
    }

    fn pair_speeds(
        &self,
        pa: HwPriority,
        ta: TaskPerfTraits,
        pb: HwPriority,
        tb: TaskPerfTraits,
    ) -> SpeedFactors {
        use HwPriority as P;
        // Special levels first (paper §II-B): 0 = off, 7 = ST mode, 1 =
        // background.
        if pa == P::OFF && pb == P::OFF {
            return SpeedFactors::IDLE;
        }
        if pa == P::OFF {
            return SpeedFactors { a: 0.0, b: self.solo_speed(pb, tb) };
        }
        if pb == P::OFF {
            return SpeedFactors { a: self.solo_speed(pa, ta), b: 0.0 };
        }
        if pa == P::VERY_HIGH || pb == P::VERY_HIGH {
            // ST mode: the 7-side owns the core. (7,7) splits evenly.
            if pa == pb {
                return SpeedFactors { a: self.smt_equal, b: self.smt_equal };
            }
            return if pa == P::VERY_HIGH {
                SpeedFactors { a: self.solo_speed(pa, ta), b: 0.0 }
            } else {
                SpeedFactors { a: 0.0, b: self.solo_speed(pb, tb) }
            };
        }
        if pa == P::VERY_LOW || pb == P::VERY_LOW {
            if pa == pb {
                // Two background threads share the core evenly, like an
                // equal-priority pair.
                return SpeedFactors {
                    a: self.smt_equal * Self::sensitize(1.0, ta),
                    b: self.smt_equal * Self::sensitize(1.0, tb),
                };
            }
            // Foreground runs at ~ST speed; background gets scraps.
            return if pa == P::VERY_LOW {
                SpeedFactors {
                    a: self.smt_equal * Self::sensitize(self.background, ta),
                    b: self.smt_equal * Self::sensitize(self.st_factor, tb),
                }
            } else {
                SpeedFactors {
                    a: self.smt_equal * Self::sensitize(self.st_factor, ta),
                    b: self.smt_equal * Self::sensitize(self.background, tb),
                }
            };
        }
        // Regular pair: table lookup.
        let (ra, rb) = self.relative_pair(pa, pb);
        SpeedFactors {
            a: self.smt_equal * Self::sensitize(ra, ta),
            b: self.smt_equal * Self::sensitize(rb, tb),
        }
    }
}

/// Analytic alternative: throughput as a concave function of decode share,
/// `T(s) = (1+k)·s / (1 + k·s)`, normalized so `T(1) = 1`. Larger `k` means
/// stronger diminishing returns. Used for calibration ablations.
#[derive(Clone, Copy, Debug)]
pub struct AnalyticModel {
    /// Concavity parameter `k ≥ 0`.
    pub k: f64,
}

impl Default for AnalyticModel {
    fn default() -> Self {
        // k = 3 puts T(0.5) at 0.8, matching the TableModel's equal-priority
        // point.
        AnalyticModel { k: 3.0 }
    }
}

impl AnalyticModel {
    fn throughput(&self, share: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&share));
        (1.0 + self.k) * share / (1.0 + self.k * share)
    }

    /// Speed at `share`, sensitized relative to the given equal-share
    /// baseline (T(0.5) for a pair, T(1/n) for an n-way core).
    fn speed_at(&self, share: f64, traits: TaskPerfTraits, equal: f64) -> f64 {
        if share <= 0.0 {
            return 0.0;
        }
        let rel = self.throughput(share) / equal;
        equal * (1.0 + traits.for_rel(rel).clamp(0.0, 1.0) * (rel - 1.0))
    }

    fn speed_of(&self, share: f64, traits: TaskPerfTraits) -> f64 {
        self.speed_at(share, traits, self.throughput(0.5))
    }
}

impl PerfModel for AnalyticModel {
    fn speeds(&self, a: CtxLoad, b: CtxLoad) -> SpeedFactors {
        use CtxLoad::*;
        match (a, b) {
            (Idle, Idle) => SpeedFactors::IDLE,
            (Busy { prio, traits }, Idle) => {
                if prio == HwPriority::OFF {
                    SpeedFactors::IDLE
                } else {
                    SpeedFactors { a: self.speed_of(1.0, traits), b: 0.0 }
                }
            }
            (Idle, Busy { prio, traits }) => {
                if prio == HwPriority::OFF {
                    SpeedFactors::IDLE
                } else {
                    SpeedFactors { a: 0.0, b: self.speed_of(1.0, traits) }
                }
            }
            (Busy { prio: pa, traits: ta }, Busy { prio: pb, traits: tb }) => {
                let split = decode_share(pa, pb);
                SpeedFactors { a: self.speed_of(split.a, ta), b: self.speed_of(split.b, tb) }
            }
        }
    }

    /// n-way generalisation of the decode arbitration: each busy regular
    /// context weighs `2^priority` decode slots (the same geometric
    /// progression Table I's pairwise `R = 2^(|d|+1)` interval encodes),
    /// priority 7 claims the core exclusively, priority 0 is off. Shares
    /// are sensitized against the equal-share point `T(1/n_busy)`, so a
    /// full n-way core of equal peers degrades gracefully instead of
    /// pretending to be a pair.
    fn speeds_many(&self, ctxs: &[CtxLoad]) -> Vec<f64> {
        use CtxLoad::*;
        if ctxs.len() <= 2 {
            // Exact pairwise arbitration where it is defined.
            return match ctxs {
                [] => Vec::new(),
                [a] => vec![self.speeds(*a, Idle).a],
                [a, b] => {
                    let s = self.speeds(*a, *b);
                    vec![s.a, s.b]
                }
                _ => unreachable!(),
            };
        }
        let st_claims: Vec<bool> = ctxs
            .iter()
            .map(|c| matches!(c, Busy { prio, .. } if *prio == HwPriority::VERY_HIGH))
            .collect();
        let any_st = st_claims.iter().any(|&b| b);
        let weights: Vec<f64> = ctxs
            .iter()
            .zip(&st_claims)
            .map(|(c, &st)| match c {
                Idle => 0.0,
                Busy { prio, .. } => {
                    if *prio == HwPriority::OFF || (any_st && !st) {
                        0.0
                    } else {
                        (1u64 << prio.value()) as f64
                    }
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let n_busy = weights.iter().filter(|&&w| w > 0.0).count();
        if total <= 0.0 || n_busy == 0 {
            return vec![0.0; ctxs.len()];
        }
        let equal = self.throughput(1.0 / n_busy as f64);
        ctxs.iter()
            .zip(&weights)
            .map(|(c, &w)| match c {
                Idle => 0.0,
                Busy { traits, .. } => self.speed_at(w / total, *traits, equal),
            })
            .collect()
    }
}

/// Boxed model alias used where the choice is configuration-driven.
pub type SmtPerfModel = Box<dyn PerfModel + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    fn busy(prio: u8) -> CtxLoad {
        CtxLoad::Busy { prio: p(prio), traits: TaskPerfTraits::default() }
    }

    fn busy_sens(prio: u8, s: f64) -> CtxLoad {
        CtxLoad::Busy { prio: p(prio), traits: TaskPerfTraits::uniform(s) }
    }

    #[test]
    fn equal_priorities_split_evenly() {
        let m = TableModel::default();
        let s = m.speeds(busy(4), busy(4));
        assert!((s.a - 0.8).abs() < 1e-12);
        assert!((s.b - 0.8).abs() < 1e-12);
    }

    #[test]
    fn solo_runs_at_st_speed() {
        let m = TableModel::default();
        let s = m.speeds(busy(4), CtxLoad::Idle);
        assert!((s.a - 1.0).abs() < 1e-12);
        assert_eq!(s.b, 0.0);
    }

    #[test]
    fn diff2_working_point_matches_calibration() {
        let m = TableModel::default();
        let s = m.speeds(busy(6), busy(4));
        // Favoured thread ≈ +15% over equal-priority SMT.
        assert!((s.a / 0.8 - 1.15).abs() < 1e-9);
        // Victim ≈ -69%.
        assert!((s.b / 0.8 - 0.31).abs() < 1e-9);
        // Ratio ≈ 3.7: enough to rebalance a 4:1 load split.
        let ratio = s.a / s.b;
        assert!((3.2..4.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn asymmetry_grows_with_difference() {
        // Paper §I conclusion 1: the victim's loss outpaces the winner's
        // gain, increasingly so at larger differences.
        let m = TableModel::default();
        let mut last_gain = 0.0;
        let mut last_loss = 0.0;
        for d in 1..=2u8 {
            let s = m.speeds(busy(4 + d), busy(4));
            let gain = s.a / 0.8 - 1.0;
            let loss = 1.0 - s.b / 0.8;
            assert!(loss > gain, "diff {d}: loss {loss} gain {gain}");
            assert!(gain > last_gain && loss > last_loss);
            last_gain = gain;
            last_loss = loss;
        }
    }

    #[test]
    fn higher_priority_never_slower() {
        let m = TableModel::default();
        for a in 2..=6u8 {
            for b in 2..=6u8 {
                let s = m.speeds(busy(a), busy(b));
                if a > b {
                    assert!(s.a >= s.b, "({a},{b})");
                } else if a < b {
                    assert!(s.a <= s.b, "({a},{b})");
                }
            }
        }
    }

    #[test]
    fn off_context_gives_sibling_full_core() {
        let m = TableModel::default();
        let s = m.speeds(busy(0), busy(4));
        assert_eq!(s.a, 0.0);
        assert!((s.b - 1.0).abs() < 1e-12);
    }

    #[test]
    fn st_mode_priority7() {
        let m = TableModel::default();
        let s = m.speeds(busy(7), busy(4));
        assert!((s.a - 1.0).abs() < 1e-12);
        assert_eq!(s.b, 0.0);
    }

    #[test]
    fn background_thread_gets_scraps() {
        let m = TableModel::default();
        let s = m.speeds(busy(1), busy(4));
        assert!(s.a < 0.15, "background speed {}", s.a);
        assert!((s.b - 1.0).abs() < 1e-9, "foreground speed {}", s.b);
    }

    #[test]
    fn insensitive_task_barely_reacts() {
        let m = TableModel::default();
        let s = m.speeds(busy_sens(6, 0.0), busy_sens(4, 0.0));
        // Zero sensitivity → both stuck at the equal-priority baseline.
        assert!((s.a - 0.8).abs() < 1e-12);
        assert!((s.b - 0.8).abs() < 1e-12);

        let s_half = m.speeds(busy_sens(6, 0.5), busy_sens(4, 0.5));
        let s_full = m.speeds(busy(6), busy(4));
        assert!(s_half.a < s_full.a && s_half.a > 0.8);
        assert!(s_half.b > s_full.b && s_half.b < 0.8);
    }

    #[test]
    fn st_speed_helper() {
        let m = TableModel::default();
        assert!((m.st_speed(TaskPerfTraits::default()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn analytic_model_basics() {
        let m = AnalyticModel::default();
        let s = m.speeds(busy(4), busy(4));
        assert!((s.a - s.b).abs() < 1e-12);
        assert!((s.a - 0.8).abs() < 1e-9, "equal point {}", s.a);
        let solo = m.speeds(busy(4), CtxLoad::Idle);
        assert!((solo.a - 1.0).abs() < 1e-9);
    }

    #[test]
    fn analytic_model_is_concave_in_share() {
        let m = AnalyticModel { k: 3.0 };
        // Winner's relative gain < victim's relative loss.
        let s = m.speeds(busy(6), busy(4));
        let gain = s.a / 0.8 - 1.0;
        let loss = 1.0 - s.b / 0.8;
        assert!(loss > gain);
    }

    #[test]
    fn speeds_many_default_delegates_and_refuses_wide() {
        let m = TableModel::default();
        let pair = m.speeds_many(&[busy(6), busy(4)]);
        let s = m.speeds(busy(6), busy(4));
        assert_eq!(pair, vec![s.a, s.b]);
        let solo = m.speeds_many(&[busy(4)]);
        assert!((solo[0] - 1.0).abs() < 1e-12);
        assert!(std::panic::catch_unwind(|| {
            TableModel::default().speeds_many(&[busy(4), busy(4), busy(4), busy(4)])
        })
        .is_err());
    }

    #[test]
    fn analytic_speeds_many_covers_wide_cores() {
        let m = AnalyticModel::default();
        // Four equal peers split the core evenly and each run at the
        // 4-way equal point T(1/4).
        let s = m.speeds_many(&[busy(4), busy(4), busy(4), busy(4)]);
        assert_eq!(s.len(), 4);
        for &v in &s {
            assert!((v - s[0]).abs() < 1e-12);
        }
        assert!(s[0] < 0.8 && s[0] > 0.3, "4-way equal point {}", s[0]);
        // A favoured context outruns its siblings; idle contexts are 0.
        let s = m.speeds_many(&[busy(6), busy(4), CtxLoad::Idle, busy(4)]);
        assert!(s[0] > s[1] && s[1] == s[3]);
        assert_eq!(s[2], 0.0);
        // Priority 7 owns the core.
        let s = m.speeds_many(&[busy(7), busy(4), busy(4), busy(4)]);
        assert!((s[0] - 1.0).abs() < 1e-9);
        assert_eq!(&s[1..], &[0.0, 0.0, 0.0]);
        // Pairwise input still goes through the exact decode arbitration.
        let pair = m.speeds_many(&[busy(6), busy(4)]);
        let exact = m.speeds(busy(6), busy(4));
        assert_eq!(pair, vec![exact.a, exact.b]);
    }

    #[test]
    fn both_models_agree_things_sum_below_st_times_two() {
        // Aggregate SMT throughput can exceed 1× ST but never 2× ST.
        let tm = TableModel::default();
        let am = AnalyticModel::default();
        for a in 2..=6u8 {
            for b in 2..=6u8 {
                for s in [tm.speeds(busy(a), busy(b)), am.speeds(busy(a), busy(b))] {
                    let total = s.a + s.b;
                    assert!(total > 0.9 && total < 2.0, "({a},{b}) total {total}");
                }
            }
        }
    }
}
