//! Ablation benches for the design choices DESIGN.md calls out. Each group
//! prints the *outcome* of the ablation (execution time under each variant)
//! once during setup, then benches the variants so regressions in either
//! dimension are visible.

use bench::small_metbench;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use experiments::WorkloadKind;
use power5::Topology;
use schedsim::builder::PerfModelChoice;
use schedsim::policies::{HpcTunables, Power5Mechanism, Table1Balancer, UniformHeuristic};
use schedsim::{BalancedClass, HpcPolicyKind, HpcSchedConfig, Kernel, KernelBuilder, KernelConfig};
use simcore::SimDuration;
use workloads::metbench::MetBenchConfig;
use workloads::SchedulerSetup;

fn mb_cfg(wl: &WorkloadKind) -> MetBenchConfig {
    match wl {
        WorkloadKind::MetBench(c) => c.clone(),
        _ => unreachable!(),
    }
}

/// Run MetBench with a fully custom builder.
fn run_custom(cfg: &MetBenchConfig, builder: KernelBuilder, hpc: bool) -> f64 {
    let (mut kernel, setup) = if hpc {
        (builder.build(), SchedulerSetup::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
    };
    let (workers, master, _) = workloads::metbench::spawn_faulted(&mut kernel, cfg, &setup, None);
    let mut all = workers;
    all.push(master);
    kernel
        .run_until_exited(&all, SimDuration::from_secs(600))
        .expect("finishes")
        .as_secs_f64()
}

/// Ablation: maximum priority difference ±1 vs ±2 vs ±3 (paper §II limits
/// itself to ±2 because the victim's loss explodes beyond that).
fn ablation_priority_range(c: &mut Criterion) {
    let cfg = mb_cfg(&small_metbench());
    println!("\n[ablation] priority range (MetBench):");
    let mut g = c.benchmark_group("ablation_priority_range");
    g.sample_size(10);
    for (label, max_prio) in [("range_pm1", "5"), ("range_pm2", "6")] {
        let mk = || {
            let mut hpc = HpcSchedConfig::default();
            hpc.tunables.set("max_prio", max_prio).unwrap();
            KernelBuilder::new().hpc_config(hpc)
        };
        let secs = run_custom(&cfg, mk(), true);
        println!("  max diff {label}: {secs:.3}s");
        let cfg2 = cfg.clone();
        g.bench_function(label, move |b| b.iter(|| black_box(run_custom(&cfg2, mk(), true))));
    }
    g.finish();
}

/// Ablation: idle-loop model. With a snoozing idle loop the sibling of a
/// waiting task already owns the core, so prioritization buys much less —
/// the reason the paper's effect depends on the spinning idle loop of the
/// era's kernels.
fn ablation_idle_mode(c: &mut Criterion) {
    use power5::{Chip, IdleMode};
    let cfg = mb_cfg(&small_metbench());
    println!("\n[ablation] idle-loop model (MetBench baseline vs HPC):");
    let mut g = c.benchmark_group("ablation_idle_mode");
    g.sample_size(10);
    for (label, mode) in [("spin", IdleMode::Spin), ("snooze", IdleMode::Snooze)] {
        // Build kernels on chips with the chosen idle mode.
        let run_mode = move |cfg: &MetBenchConfig, hpc: bool| {
            let mut chip = Chip::new(Topology::openpower_710());
            chip.set_idle_mode(mode);
            let mut kernel = Kernel::new(chip, KernelConfig::default());
            let setup = if hpc {
                let tun = std::sync::Arc::new(std::sync::Mutex::new(
                    HpcTunables::default(),
                ));
                let balancer = Table1Balancer::new(
                    Box::new(UniformHeuristic),
                    Box::new(Power5Mechanism),
                    tun,
                );
                kernel.install_class_after_rt(Box::new(BalancedClass::new(
                    HpcPolicyKind::Rr,
                    SimDuration::from_millis(100),
                    Box::new(balancer),
                )));
                SchedulerSetup::Hpc
            } else {
                SchedulerSetup::Baseline
            };
            let (workers, master, _) =
                workloads::metbench::spawn_faulted(&mut kernel, cfg, &setup, None);
            let mut all = workers;
            all.push(master);
            kernel
                .run_until_exited(&all, SimDuration::from_secs(600))
                .expect("finishes")
                .as_secs_f64()
        };
        let base = run_mode(&cfg, false);
        let hpc = run_mode(&cfg, true);
        println!("  idle={label}: baseline {base:.3}s  hpc {hpc:.3}s  gain {:+.1}%",
            100.0 * (base - hpc) / base);
        let cfg2 = cfg.clone();
        g.bench_function(label, move |b| b.iter(|| black_box(run_mode(&cfg2, true))));
    }
    g.finish();
}

/// Ablation: table-driven vs analytic SMT performance model.
fn ablation_perf_model(c: &mut Criterion) {
    let cfg = mb_cfg(&small_metbench());
    println!("\n[ablation] SMT performance model (MetBench, Uniform):");
    let mut g = c.benchmark_group("ablation_perf_model");
    g.sample_size(10);
    for (label, model) in
        [("table", PerfModelChoice::Table), ("analytic_k3", PerfModelChoice::Analytic { k: 3.0 })]
    {
        let mk = move || KernelBuilder::new().perf_model(model);
        let base = run_custom(&cfg, mk(), false);
        let hpc = run_custom(&cfg, mk(), true);
        println!("  model={label}: baseline {base:.3}s  hpc {hpc:.3}s  gain {:+.1}%",
            100.0 * (base - hpc) / base);
        let cfg2 = cfg.clone();
        g.bench_function(label, move |b| b.iter(|| black_box(run_custom(&cfg2, mk(), true))));
    }
    g.finish();
}

/// Ablation: FIFO vs RR intra-class policy (paper §IV-A reports no
/// observable difference at one process per CPU).
fn ablation_policy(c: &mut Criterion) {
    let cfg = mb_cfg(&small_metbench());
    println!("\n[ablation] HPC intra-class policy:");
    let mut g = c.benchmark_group("ablation_policy");
    g.sample_size(10);
    let mut outcomes = Vec::new();
    for (label, policy) in [("rr", HpcPolicyKind::Rr), ("fifo", HpcPolicyKind::Fifo)] {
        let mk = move || {
            KernelBuilder::new().hpc_config(HpcSchedConfig { policy, ..Default::default() })
        };
        let secs = run_custom(&cfg, mk(), true);
        println!("  policy={label}: {secs:.3}s");
        outcomes.push(secs);
        let cfg2 = cfg.clone();
        g.bench_function(label, move |b| b.iter(|| black_box(run_custom(&cfg2, mk(), true))));
    }
    // Paper: "essentially no difference between these two policies".
    assert!(
        (outcomes[0] - outcomes[1]).abs() < outcomes[0] * 0.02,
        "FIFO and RR should agree at one task/CPU: {outcomes:?}"
    );
    g.finish();
}

criterion_group!(
    benches,
    ablation_priority_range,
    ablation_idle_mode,
    ablation_perf_model,
    ablation_policy
);
criterion_main!(benches);
