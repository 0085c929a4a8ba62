//! Property tests for the HPC scheduler's decision components.

use power5::HwPriority;
use proptest::prelude::*;
use schedsim::policies::{
    AdaptiveHeuristic, Heuristic, HpcTunables, LoadImbalanceDetector, TaskIterStats,
    UniformHeuristic,
};
use schedsim::TaskId;
use simcore::SimDuration;

fn stats(last: f64, global: f64, prev: f64) -> TaskIterStats {
    TaskIterStats { iterations: 5, last_util: last, global_util: global, prev_global_util: prev }
}

proptest! {
    /// Heuristic outputs never leave the configured priority range and
    /// never jump more than one level per decision.
    #[test]
    fn heuristic_steps_are_bounded(
        util in 0.0f64..100.0,
        cur in 4u8..=6,
        uniform in any::<bool>(),
    ) {
        let tun = HpcTunables::default();
        let current = HwPriority::new(cur).unwrap();
        let h: Box<dyn Heuristic> = if uniform {
            Box::new(UniformHeuristic)
        } else {
            Box::new(AdaptiveHeuristic)
        };
        let next = h.next_priority(&stats(util, util, util), current, &tun);
        prop_assert!(next >= tun.min_prio && next <= tun.max_prio);
        prop_assert!(next.value().abs_diff(current.value()) <= 1);
    }

    /// The heuristic decision is monotone in utilization: more utilization
    /// never yields a lower priority.
    #[test]
    fn heuristic_monotone_in_utilization(
        u1 in 0.0f64..100.0,
        u2 in 0.0f64..100.0,
        cur in 4u8..=6,
    ) {
        let (lo, hi) = if u1 <= u2 { (u1, u2) } else { (u2, u1) };
        let tun = HpcTunables::default();
        let current = HwPriority::new(cur).unwrap();
        let h = UniformHeuristic;
        let from_lo = h.next_priority(&stats(lo, lo, lo), current, &tun);
        let from_hi = h.next_priority(&stats(hi, hi, hi), current, &tun);
        prop_assert!(from_hi >= from_lo);
    }

    /// Adaptive's blended metric interpolates between history and the last
    /// iteration and stays within their envelope.
    #[test]
    fn blended_metric_is_convex(
        last in 0.0f64..100.0,
        prev in 0.0f64..100.0,
        g in 0.0f64..=1.0,
    ) {
        let s = stats(last, (last + prev) / 2.0, prev);
        let blended = s.blended(g, 1.0 - g);
        let lo = last.min(prev) - 1e-9;
        let hi = last.max(prev) + 1e-9;
        prop_assert!((lo..=hi).contains(&blended), "blended {blended} in [{lo},{hi}]");
    }

    /// Detector utilizations are always within [0, 100] and the global is
    /// within the envelope of recorded iteration utilizations.
    #[test]
    fn detector_utilizations_bounded(
        iters in proptest::collection::vec((1u64..1_000, 1u64..1_000), 1..30),
    ) {
        let mut d = LoadImbalanceDetector::new();
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (run_ms, extra_ms) in iters {
            let run = SimDuration::from_millis(run_ms);
            let wall = SimDuration::from_millis(run_ms + extra_ms);
            let s = d.record_iteration(TaskId(0), run, wall).expect("wall > 0");
            prop_assert!((0.0..=100.0).contains(&s.last_util));
            lo = lo.min(s.last_util);
            hi = hi.max(s.last_util);
            prop_assert!(s.global_util >= lo - 1e-9 && s.global_util <= hi + 1e-9,
                "global {} outside envelope [{lo},{hi}]", s.global_util);
        }
    }

    /// Spread is symmetric under task relabeling and zero when all equal.
    #[test]
    fn spread_properties(utils in proptest::collection::vec(6.0f64..100.0, 2..8)) {
        let tun = HpcTunables::default();
        let mut d = LoadImbalanceDetector::new();
        for (i, &u) in utils.iter().enumerate() {
            let wall = SimDuration::from_millis(1_000);
            let run = SimDuration::from_millis((u * 10.0) as u64);
            d.record_iteration(TaskId(i), run, wall);
        }
        let spread = d.spread(tun.negligible_util, |s| s.last_util);
        let max = utils.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = utils.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!((spread - (max - min)).abs() < 0.2, "spread {spread} vs {}", max - min);
    }

    /// sysfs round-trip: any valid numeric write reads back equal.
    #[test]
    fn tunables_roundtrip(high in 66.0f64..100.0, low in 0.0f64..=65.0) {
        let mut t = HpcTunables::default();
        t.set("low_util", &low.to_string()).unwrap();
        t.set("high_util", &high.to_string()).unwrap();
        prop_assert_eq!(t.get("high_util").unwrap(), high.to_string());
        prop_assert_eq!(t.get("low_util").unwrap(), low.to_string());
        prop_assert!(t.validate().is_ok());
    }
}
