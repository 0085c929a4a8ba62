//! Prioritization heuristics (paper §IV-B).
//!
//! After each iteration the scheduler must decide whether to raise, lower or
//! keep a task's hardware priority. The paper implements two heuristics and
//! lets the user pick one (plus tune it at run time):
//!
//! * **Uniform** — judges on the *global* utilization `Ug`. Slow to adapt
//!   but stable; best for applications with constant behaviour
//!   (MetBench, BT-MZ).
//! * **Adaptive** — judges on `Ui = G·Ug(i−1) + L·Ul(i)`, weighting recent
//!   history (aggressively, by default: G=0.1, L=0.9). Fast to adapt, may
//!   over-react to noise and then recover (MetBenchVar, dynamic apps).
//!
//! Both step the priority by one level per iteration within
//! `[MIN_PRIO, MAX_PRIO]` (default `[4, 6]`, i.e. a maximum difference of
//! ±2 — larger differences starve the sibling context, paper §II/§IV).

use super::detector::TaskIterStats;
use super::tunables::HpcTunables;
use power5::HwPriority;

/// Which heuristic to run (the paper selects this at kernel compile time).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeuristicKind {
    Uniform,
    Adaptive,
    /// The paper's future-work wish (§VI): "an heuristic capable of
    /// performing well (even if not optimal) for both constant and dynamic
    /// applications". See [`HybridHeuristic`].
    Hybrid,
}

/// A prioritization heuristic: maps a task's iteration statistics to its
/// next hardware priority.
pub trait Heuristic: Send {
    fn name(&self) -> &'static str;

    /// The utilization metric (percent) this heuristic judges on.
    fn metric(&self, stats: &TaskIterStats, tun: &HpcTunables) -> f64;

    /// Next priority for a task currently at `current` with the given
    /// stats. Must stay within `[tun.min_prio, tun.max_prio]`.
    fn next_priority(
        &self,
        stats: &TaskIterStats,
        current: HwPriority,
        tun: &HpcTunables,
    ) -> HwPriority {
        let util = self.metric(stats, tun);
        let next = if util >= tun.high_util {
            current.raised()
        } else if util <= tun.low_util {
            current.lowered()
        } else {
            current
        };
        next.clamp(tun.min_prio, tun.max_prio)
    }
}

/// The Uniform heuristic: global utilization with hysteresis bounds.
#[derive(Clone, Copy, Debug, Default)]
pub struct UniformHeuristic;

impl Heuristic for UniformHeuristic {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn metric(&self, stats: &TaskIterStats, _tun: &HpcTunables) -> f64 {
        stats.global_util
    }
}

/// The Adaptive heuristic: recency-weighted utilization.
#[derive(Clone, Copy, Debug, Default)]
pub struct AdaptiveHeuristic;

impl Heuristic for AdaptiveHeuristic {
    fn name(&self) -> &'static str {
        "adaptive"
    }

    fn metric(&self, stats: &TaskIterStats, tun: &HpcTunables) -> f64 {
        stats.blended(tun.g_weight, tun.l_weight)
    }
}

/// The Hybrid heuristic — this reproduction's implementation of the
/// paper's future-work item (§VI).
///
/// Observation: what distinguishes the two built-in heuristics is how much
/// history they trust. History is trustworthy exactly when the application
/// has been behaving consistently *since the last behaviour change* — and
/// the Load Imbalance Detector already resets its accumulators on every
/// behaviour change, so a task's `iterations` counter *is* its
/// "iterations of consistent behaviour" age.
///
/// Hybrid therefore anneals: right after a behaviour change (young
/// history) it judges like an aggressive Adaptive (trust the last
/// iteration); as consistent history accumulates it smoothly shifts to the
/// Uniform judgement (trust the global average). Constant applications get
/// Uniform's stability; dynamic applications get Adaptive's reaction time.
#[derive(Clone, Copy, Debug)]
pub struct HybridHeuristic {
    /// Iterations of consistent behaviour after which history is fully
    /// trusted.
    pub warmup: u64,
}

impl Default for HybridHeuristic {
    fn default() -> Self {
        HybridHeuristic { warmup: 6 }
    }
}

impl Heuristic for HybridHeuristic {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn metric(&self, stats: &TaskIterStats, _tun: &HpcTunables) -> f64 {
        // Weight of history grows with its age: g = min(age/warmup, 1) · g_max.
        // g_max < 1 keeps a sliver of reactivity even at full maturity.
        const G_MAX: f64 = 0.9;
        let age = stats.iterations.min(self.warmup) as f64 / self.warmup as f64;
        let g = G_MAX * age;
        stats.blended(g, 1.0 - g)
    }
}

/// Instantiate a heuristic by kind.
pub fn make_heuristic(kind: HeuristicKind) -> Box<dyn Heuristic> {
    match kind {
        HeuristicKind::Uniform => Box::new(UniformHeuristic),
        HeuristicKind::Adaptive => Box::new(AdaptiveHeuristic),
        HeuristicKind::Hybrid => Box::new(HybridHeuristic::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(last: f64, global: f64, prev_global: f64) -> TaskIterStats {
        TaskIterStats { iterations: 3, last_util: last, global_util: global, prev_global_util: prev_global }
    }

    fn tun() -> HpcTunables {
        HpcTunables::default()
    }

    #[test]
    fn uniform_raises_high_utilization_tasks() {
        let h = UniformHeuristic;
        let next = h.next_priority(&stats(99.0, 99.0, 99.0), HwPriority::MEDIUM, &tun());
        assert_eq!(next, HwPriority::MEDIUM_HIGH, "one step per iteration");
        let next = h.next_priority(&stats(99.0, 99.0, 99.0), next, &tun());
        assert_eq!(next, HwPriority::HIGH);
        let next = h.next_priority(&stats(99.0, 99.0, 99.0), next, &tun());
        assert_eq!(next, HwPriority::HIGH, "clamped at MAX_PRIO");
    }

    #[test]
    fn uniform_lowers_low_utilization_tasks() {
        let h = UniformHeuristic;
        let next = h.next_priority(&stats(20.0, 20.0, 20.0), HwPriority::HIGH, &tun());
        assert_eq!(next, HwPriority::MEDIUM_HIGH);
        let next = h.next_priority(&stats(20.0, 20.0, 20.0), HwPriority::MEDIUM, &tun());
        assert_eq!(next, HwPriority::MEDIUM, "clamped at MIN_PRIO");
    }

    #[test]
    fn hysteresis_band_keeps_priority() {
        let h = UniformHeuristic;
        for u in [66.0, 70.0, 80.0, 84.9] {
            let next = h.next_priority(&stats(u, u, u), HwPriority::MEDIUM_HIGH, &tun());
            assert_eq!(next, HwPriority::MEDIUM_HIGH, "util {u} inside band");
        }
    }

    #[test]
    fn uniform_ignores_last_iteration_spike() {
        // Global 50%, last iteration 100%: Uniform judges on global.
        let h = UniformHeuristic;
        let next = h.next_priority(&stats(100.0, 50.0, 49.0), HwPriority::MEDIUM, &tun());
        assert_eq!(next, HwPriority::MEDIUM);
    }

    #[test]
    fn adaptive_follows_last_iteration() {
        // Same stats: Adaptive (G=0.1, L=0.9) sees 0.1*49 + 0.9*100 = 94.9.
        let h = AdaptiveHeuristic;
        let next = h.next_priority(&stats(100.0, 50.0, 49.0), HwPriority::MEDIUM, &tun());
        assert_eq!(next, HwPriority::MEDIUM_HIGH);
    }

    #[test]
    fn adaptive_with_g_one_behaves_like_uniform() {
        let mut t = tun();
        t.set_weights(1.0);
        let h = AdaptiveHeuristic;
        let s = stats(100.0, 50.0, 49.0);
        assert!((h.metric(&s, &t) - 49.0).abs() < 1e-9, "pure history");
        assert_eq!(h.next_priority(&s, HwPriority::MEDIUM, &t), HwPriority::MEDIUM);
    }

    #[test]
    fn priorities_never_leave_configured_range() {
        let t = tun();
        for kind in [HeuristicKind::Uniform, HeuristicKind::Adaptive] {
            let h = make_heuristic(kind);
            for u in [0.0, 30.0, 65.0, 75.0, 85.0, 100.0] {
                for p in [HwPriority::MEDIUM, HwPriority::MEDIUM_HIGH, HwPriority::HIGH] {
                    let next = h.next_priority(&stats(u, u, u), p, &t);
                    assert!(next >= t.min_prio && next <= t.max_prio, "{kind:?} u={u} p={p}");
                }
            }
        }
    }

    #[test]
    fn custom_range_respected() {
        let mut t = tun();
        t.set("min_prio", "3").unwrap();
        t.set("max_prio", "5").unwrap();
        let h = UniformHeuristic;
        let up = h.next_priority(&stats(99.0, 99.0, 99.0), HwPriority::MEDIUM_HIGH, &t);
        assert_eq!(up, HwPriority::MEDIUM_HIGH, "clamped at 5");
        let down = h.next_priority(&stats(10.0, 10.0, 10.0), HwPriority::MEDIUM, &t);
        assert_eq!(down.value(), 3);
    }

    #[test]
    fn kinds_instantiate() {
        assert_eq!(make_heuristic(HeuristicKind::Uniform).name(), "uniform");
        assert_eq!(make_heuristic(HeuristicKind::Adaptive).name(), "adaptive");
        assert_eq!(make_heuristic(HeuristicKind::Hybrid).name(), "hybrid");
    }

    fn stats_with_age(last: f64, prev: f64, age: u64) -> TaskIterStats {
        TaskIterStats {
            iterations: age,
            last_util: last,
            global_util: (last + prev) / 2.0,
            prev_global_util: prev,
        }
    }

    #[test]
    fn hybrid_acts_like_adaptive_when_history_is_young() {
        let h = HybridHeuristic::default();
        // One iteration of history after a behaviour change: the metric is
        // dominated by the last iteration.
        let s = stats_with_age(100.0, 20.0, 1);
        let m = h.metric(&s, &tun());
        assert!(m > 85.0, "young history follows the last iteration: {m}");
        assert_eq!(
            h.next_priority(&s, HwPriority::MEDIUM, &tun()),
            HwPriority::MEDIUM_HIGH
        );
    }

    #[test]
    fn hybrid_acts_like_uniform_when_history_is_mature() {
        let h = HybridHeuristic::default();
        // Long consistent history at 20%: a single 100% spike is ignored.
        let s = stats_with_age(100.0, 20.0, 50);
        let m = h.metric(&s, &tun());
        assert!(m < 40.0, "mature history damps spikes: {m}");
        assert_eq!(h.next_priority(&s, HwPriority::MEDIUM, &tun()), HwPriority::MEDIUM);
    }

    #[test]
    fn hybrid_weight_anneals_monotonically() {
        let h = HybridHeuristic::default();
        let mut last_metric = f64::INFINITY;
        for age in 1..=8 {
            // With last > prev, the metric decreases as history weight
            // grows.
            let m = h.metric(&stats_with_age(100.0, 0.0, age), &tun());
            assert!(m <= last_metric, "age {age}: {m} > {last_metric}");
            last_metric = m;
        }
    }
}
