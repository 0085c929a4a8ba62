//! Cross-crate integration: the full balancing pipeline
//! (workload → MPI → kernel → HPC class → heuristics → chip) on
//! paper-shaped applications, at reduced scale, plus the ablations behind
//! the paper's design choices (idle loop, SMT model, priority range,
//! intra-class policy).

use power5::{Chip, HwPriority, IdleMode, Topology};
use schedsim::policies::{
    HeuristicKind, Power5Mechanism, SharedTunables, Table1Balancer, UniformHeuristic,
};
use schedsim::{
    BalancedClass, HpcPolicyKind, HpcSchedConfig, Kernel, KernelBuilder, KernelConfig,
    PerfModelChoice, TaskId,
};
use simcore::{SimDuration, SimTime};
use workloads::btmz::{self, BtMzConfig};
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn metbench_cfg() -> MetBenchConfig {
    MetBenchConfig { loads: vec![0.05, 0.2, 0.05, 0.2], iterations: 8, ..Default::default() }
}

/// Spawn MetBench on `kernel` and run it to completion: the workers and
/// the time the last task (workers or master) exited.
fn run_to_exit(
    kernel: &mut Kernel,
    cfg: &MetBenchConfig,
    setup: &SchedulerSetup,
) -> (Vec<TaskId>, SimTime) {
    let (workers, master, _) = metbench::spawn_faulted(kernel, cfg, setup, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
    (workers, end)
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
    let (workers, end) = run_to_exit(&mut kernel, &cfg, &setup);
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
    let (workers, _) = run_to_exit(&mut kernel, &cfg, &SchedulerSetup::Hpc);
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
    let (workers, end) = run_to_exit(&mut kernel, &cfg, &SchedulerSetup::Hpc);
    for &w in &workers {
        assert_eq!(kernel.task(w).hw_prio, HwPriority::MEDIUM);
    }
    let (base, _, _) = run_metbench("baseline");
    assert!((end.as_secs_f64() - base).abs() < base * 0.03, "no hardware effect");
}

// ----------------------------------------------------------------------
// Ablations of the paper's design choices, on a small MetBench (1:4
// loads, 6 iterations).
// ----------------------------------------------------------------------

fn small_metbench() -> MetBenchConfig {
    MetBenchConfig { loads: vec![0.02, 0.08, 0.02, 0.08], iterations: 6, ..Default::default() }
}

/// Execution time of the small MetBench, in seconds.
fn small_metbench_secs(mut kernel: Kernel, setup: &SchedulerSetup) -> f64 {
    run_to_exit(&mut kernel, &small_metbench(), setup).1.as_secs_f64()
}

/// Gain (percent) of the small MetBench under HPC on `hpc` over its
/// baseline run on `base`.
fn gain_pct(base: Kernel, hpc: Kernel) -> f64 {
    let base = small_metbench_secs(base, &SchedulerSetup::Baseline);
    let hpc = small_metbench_secs(hpc, &SchedulerSetup::Hpc);
    100.0 * (base - hpc) / base
}

/// A kernel on an OpenPower 710 whose idle contexts run `mode`, with the
/// paper's Table-I balancer (Uniform heuristic, RR) when `hpc` is set.
fn idle_mode_kernel(mode: IdleMode, hpc: bool) -> Kernel {
    let mut chip = Chip::new(Topology::openpower_710());
    chip.set_idle_mode(mode);
    let mut kernel = Kernel::new(chip, KernelConfig::default());
    if hpc {
        let balancer = Table1Balancer::new(
            Box::new(UniformHeuristic),
            Box::new(Power5Mechanism),
            SharedTunables::default(),
        );
        kernel.install_class_after_rt(Box::new(BalancedClass::new(
            HpcPolicyKind::Rr,
            SimDuration::from_millis(100),
            Box::new(balancer),
        )));
    }
    kernel
}

/// Idle-loop model (paper §II). A spinning idle context competes for
/// decode slots, so boosting its busy sibling pays. A snoozing one
/// already leaves its sibling the whole core, so prioritisation buys
/// nothing: the paper's effect depends on the era's spinning idle loop.
#[test]
fn prioritisation_pays_only_when_idle_contexts_spin() {
    let gain = |mode| gain_pct(idle_mode_kernel(mode, false), idle_mode_kernel(mode, true));
    let spin = gain(IdleMode::Spin);
    let snooze = gain(IdleMode::Snooze);
    assert!(spin > 0.0, "spinning idle loop: gain {spin:.1}%");
    assert!(snooze <= 0.0, "snoozing idle loop: gain {snooze:.1}%");
}

/// SMT performance model: the analytic model with concavity k = 3
/// rewards a priority boost more than the calibrated table model does,
/// and both show a gain.
#[test]
fn analytic_model_gains_more_than_table_model() {
    let gain = |model| {
        let mk = || KernelBuilder::new().perf_model(model);
        gain_pct(mk().without_hpc_class().build(), mk().build())
    };
    let table = gain(PerfModelChoice::Table);
    let analytic = gain(PerfModelChoice::Analytic { k: 3.0 });
    assert!(table > 0.0, "table model gain {table:.1}%");
    assert!(analytic > table, "analytic k=3 gain {analytic:.1}% vs table {table:.1}%");
}

/// Maximum priority difference (paper §II): with `min_prio` at MEDIUM
/// (4), a `max_prio` of 6 allows ±2 and beats the ±1 of `max_prio` 5.
/// ±3 cannot be configured: it needs `max_prio` 7, which is not a
/// regular priority, and `HpcTunables::validate` rejects it.
#[test]
fn priority_range_pm2_beats_pm1() {
    let secs = |max_prio| {
        let mut hpc = HpcSchedConfig::default();
        hpc.tunables.set("max_prio", max_prio).expect("a regular priority");
        small_metbench_secs(KernelBuilder::new().hpc_config(hpc).build(), &SchedulerSetup::Hpc)
    };
    let pm1 = secs("5");
    let pm2 = secs("6");
    assert!(pm2 < pm1, "±2 {pm2}s vs ±1 {pm1}s");
}

/// Intra-class policy (paper §IV-A): at one task per CPU, FIFO and RR
/// show "essentially no difference"; here the two runs end at the same
/// instant, bit for bit.
#[test]
fn fifo_and_rr_agree_at_one_task_per_cpu() {
    let secs = |policy| {
        let hpc = HpcSchedConfig { policy, ..Default::default() };
        small_metbench_secs(KernelBuilder::new().hpc_config(hpc).build(), &SchedulerSetup::Hpc)
    };
    let rr = secs(HpcPolicyKind::Rr);
    let fifo = secs(HpcPolicyKind::Fifo);
    assert_eq!(fifo.to_bits(), rr.to_bits(), "FIFO {fifo}s vs RR {rr}s");
}
