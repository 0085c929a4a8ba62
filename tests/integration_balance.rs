//! Cross-crate integration: the full balancing pipeline
//! (workload → MPI → kernel → HPC class → heuristics → chip) on
//! paper-shaped applications, at reduced scale.

use power5::HwPriority;
use schedsim::policies::HeuristicKind;
use schedsim::{HpcSchedConfig, KernelBuilder};
use simcore::SimDuration;
use workloads::btmz::{self, BtMzConfig};
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn metbench_cfg() -> MetBenchConfig {
    MetBenchConfig { loads: vec![0.05, 0.2, 0.05, 0.2], iterations: 8, ..Default::default() }
}

fn run_metbench(mode: &str) -> (f64, Vec<f64>, Vec<u8>) {
    let cfg = metbench_cfg();
    let (mut kernel, setup) = match mode {
        "baseline" => {
            (KernelBuilder::new().without_hpc_class().build(), SchedulerSetup::Baseline)
        }
        "static" => (
            KernelBuilder::new().without_hpc_class().build(),
            SchedulerSetup::Static(cfg.static_priorities()),
        ),
        "uniform" => (KernelBuilder::new().build(), SchedulerSetup::Hpc),
        "adaptive" => (
            KernelBuilder::new().heuristic(HeuristicKind::Adaptive).build(),
            SchedulerSetup::Hpc,
        ),
        _ => unreachable!(),
    };
    let (workers, master, _) = metbench::spawn_faulted(&mut kernel, &cfg, &setup, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel.run_until_exited(&all, SimDuration::from_secs(120)).expect("finishes");
    let utils = workers.iter().map(|&w| kernel.task(w).cpu_utilization(end) * 100.0).collect();
    let prios = workers.iter().map(|&w| kernel.task(w).hw_prio.value()).collect();
    (end.as_secs_f64(), utils, prios)
}

#[test]
fn metbench_all_schedulers_beat_baseline() {
    let (base, _, _) = run_metbench("baseline");
    for mode in ["static", "uniform", "adaptive"] {
        let (secs, _, _) = run_metbench(mode);
        assert!(
            secs < base * 0.97,
            "{mode} should improve ≥3% over baseline: {secs} vs {base}"
        );
    }
}

#[test]
fn metbench_improvement_factor_matches_paper_shape() {
    // Paper Table III: static ≈ +13%, dynamic ≈ +12%.
    let (base, _, _) = run_metbench("baseline");
    let (stat, _, _) = run_metbench("static");
    let (unif, _, _) = run_metbench("uniform");
    let s_imp = 100.0 * (base - stat) / base;
    let u_imp = 100.0 * (base - unif) / base;
    assert!((8.0..18.0).contains(&s_imp), "static improvement {s_imp}");
    assert!((7.0..18.0).contains(&u_imp), "uniform improvement {u_imp}");
    // Dynamic is within a couple points of hand-tuned static.
    assert!((s_imp - u_imp).abs() < 5.0, "static {s_imp} vs uniform {u_imp}");
}

#[test]
fn metbench_baseline_utilization_profile() {
    let (_, utils, prios) = run_metbench("baseline");
    // 4:1 loads → ~25% vs ~100%.
    assert!((20.0..35.0).contains(&utils[0]), "small worker {utils:?}");
    assert!(utils[1] > 95.0, "large worker {utils:?}");
    assert!(utils.iter().zip(&[25.0, 100.0, 25.0, 100.0]).all(|(u, e)| (u - e).abs() < 12.0));
    assert!(prios.iter().all(|&p| p == 4), "baseline never changes hw prio");
}

#[test]
fn metbench_uniform_converges_to_paper_priorities() {
    let (_, utils, prios) = run_metbench("uniform");
    assert_eq!(prios, vec![4, 6, 4, 6], "large workers boosted to High");
    // Small workers' utilization rises sharply once balanced.
    assert!(utils[0] > 60.0, "post-balance small-worker utilization {utils:?}");
}

#[test]
fn btmz_critical_rank_is_boosted_and_wins() {
    let cfg = BtMzConfig {
        zone_work: vec![0.007, 0.011, 0.025, 0.038],
        iterations: 25,
        ..Default::default()
    };
    let mut kb = KernelBuilder::new().without_hpc_class().build();
    let (br, _) = btmz::spawn_faulted(&mut kb, &cfg, &SchedulerSetup::Baseline, None);
    let base = kb.run_until_exited(&br, SimDuration::from_secs(120)).unwrap().as_secs_f64();

    let mut kh = KernelBuilder::new().build();
    let (hr, _) = btmz::spawn_faulted(&mut kh, &cfg, &SchedulerSetup::Hpc, None);
    let end = kh.run_until_exited(&hr, SimDuration::from_secs(120)).unwrap();
    let hpc = end.as_secs_f64();

    assert_eq!(kh.task(hr[3]).hw_prio, HwPriority::HIGH, "critical rank at max");
    assert!(kh.task(hr[0]).hw_prio < HwPriority::HIGH, "light rank not boosted");
    let imp = 100.0 * (base - hpc) / base;
    assert!((8.0..18.0).contains(&imp), "BT-MZ improvement {imp}% (paper: ~16%)");
    // The sibling of the boosted rank must not have escalated into a
    // priority war (the regression this suite guards against).
    assert!(kh.task(hr[2]).hw_prio <= HwPriority::MEDIUM_HIGH);
}

#[test]
fn balanced_application_is_left_alone() {
    // Four equal loads: never imbalanced, no priority should ever change.
    let cfg = MetBenchConfig { loads: vec![0.1; 4], iterations: 6, ..Default::default() };
    let mut kernel = KernelBuilder::new().build();
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    kernel.run_until_exited(&all, SimDuration::from_secs(60)).expect("finishes");
    for &w in &workers {
        assert_eq!(kernel.task(w).hw_prio, HwPriority::MEDIUM, "no churn on balanced app");
    }
}

#[test]
fn null_mechanism_keeps_priorities_flat() {
    // On an architecture without hardware prioritization the class still
    // schedules, but priorities stay at Medium and no speedup appears.
    let cfg = metbench_cfg();
    let mut kernel = KernelBuilder::new()
        .hpc_config(HpcSchedConfig { power5_mechanism: false, ..Default::default() })
        .build();
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel.run_until_exited(&all, SimDuration::from_secs(120)).expect("finishes");
    for &w in &workers {
        assert_eq!(kernel.task(w).hw_prio, HwPriority::MEDIUM);
    }
    let (base, _, _) = run_metbench("baseline");
    assert!((end.as_secs_f64() - base).abs() < base * 0.03, "no hardware effect");
}
