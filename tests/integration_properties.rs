//! Property-based integration tests: whole-simulation invariants under
//! randomized workload shapes.

use proptest::prelude::*;
use schedsim::KernelBuilder;
use simcore::SimDuration;
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

/// Run MetBench with the given loads; return (exec seconds, per-worker
/// exec totals in seconds, per-worker priorities).
fn run(loads: Vec<f64>, iterations: u32, hpc: bool, seed: u64) -> (f64, Vec<f64>, Vec<u8>) {
    let cfg = MetBenchConfig { loads, iterations, ..Default::default() };
    let builder = KernelBuilder::new().seed(seed);
    let (mut kernel, setup) = if hpc {
        (builder.build(), SchedulerSetup::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
    };
    let (workers, master, _) = metbench::spawn_faulted(&mut kernel, &cfg, &setup, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel
        .run_until_exited(&all, SimDuration::from_secs(3_000))
        .expect("finishes within deadline");
    let execs = workers.iter().map(|&w| kernel.task(w).exec_total.as_secs_f64()).collect();
    let prios = workers.iter().map(|&w| kernel.task(w).hw_prio.value()).collect();
    (end.as_secs_f64(), execs, prios)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Work is conserved: each worker's consumed CPU time is bounded by its
    /// total work divided by the slowest/fastest speeds the chip can give.
    #[test]
    fn work_conservation(
        loads in proptest::collection::vec(0.01f64..0.15, 4),
        iterations in 2u32..6,
    ) {
        let total: Vec<f64> = loads.iter().map(|l| l * iterations as f64).collect();
        let (_, execs, _) = run(loads, iterations, true, 1);
        for (exec, work) in execs.iter().zip(&total) {
            // Fastest possible speed 1.25 (would-be ST), slowest regular
            // speed 0.8*0.31 ≈ 0.248.
            prop_assert!(*exec >= work / 1.30 - 0.01, "exec {exec} work {work}");
            prop_assert!(*exec <= work / 0.20 + 0.01, "exec {exec} work {work}");
        }
    }

    /// Determinism: identical configuration and seed ⇒ identical results.
    #[test]
    fn determinism(loads in proptest::collection::vec(0.01f64..0.1, 4)) {
        let a = run(loads.clone(), 3, true, 7);
        let b = run(loads, 3, true, 7);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Priorities stay inside the configured [MIN_PRIO, MAX_PRIO] range no
    /// matter the load shape.
    #[test]
    fn priorities_stay_in_range(
        loads in proptest::collection::vec(0.005f64..0.2, 4),
        iterations in 2u32..8,
    ) {
        let (_, _, prios) = run(loads, iterations, true, 3);
        for p in prios {
            prop_assert!((4..=6).contains(&p), "priority {p} escaped [4,6]");
        }
    }

    /// HPCSched's worst case is bounded: mild imbalances (≈1.2–2×) cannot
    /// be matched by the coarse ±2 hardware priority steps, so the
    /// scheduler "will oscillate between two solutions" (paper §IV-B) —
    /// but the oscillation cost stays small, and strong imbalances win.
    #[test]
    fn never_much_worse_than_baseline(
        small in 0.01f64..0.08,
        ratio in 1.0f64..4.0,
    ) {
        let loads = vec![small, small * ratio, small, small * ratio];
        let (base, _, _) = run(loads.clone(), 5, false, 5);
        let (hpc, _, _) = run(loads, 5, true, 5);
        prop_assert!(hpc <= base * 1.15, "hpc {hpc} vs baseline {base}");
    }
}

#[test]
fn strongly_imbalanced_shapes_always_improve() {
    for ratio in [3.0, 4.0, 5.0] {
        let loads = vec![0.05, 0.05 * ratio, 0.05, 0.05 * ratio];
        let (base, _, _) = run(loads.clone(), 6, false, 2);
        let (hpc, _, _) = run(loads, 6, true, 2);
        assert!(
            hpc < base * 0.97,
            "ratio {ratio}: hpc {hpc} vs base {base} should improve ≥3%"
        );
    }
}
