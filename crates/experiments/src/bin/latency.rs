//! Scheduler-latency study (supplements §V-D): wakeup→dispatch latency of
//! the application's ranks under CFS vs SCHED_HPC across noise levels.
//! The HPC class's near-constant microsecond latency is the
//! "high-responsive task scheduler" half of the paper's SIESTA result.

use schedsim::KernelBuilder;
use schedsim::{Kernel, NoiseConfig, TaskId};
use simcore::SimDuration;
use workloads::siesta::{self, SiestaConfig};
use workloads::SchedulerSetup;

struct LatencyReport {
    /// Mean latency of application ranks (µs).
    app_mean_us: f64,
    /// Worst per-rank mean among application ranks (µs).
    app_worst_mean_us: f64,
    /// Mean latency of the background daemons (µs).
    daemon_mean_us: f64,
    exec_secs: f64,
    /// End-of-run kernel metrics (for `--telemetry`).
    metrics: telemetry::MetricsSnapshot,
}

fn mean_of(kernel: &Kernel, tasks: impl Iterator<Item = TaskId>) -> f64 {
    let (sum, n) = tasks.fold((0.0f64, 0u64), |(s, n), t| {
        let task = kernel.task(t);
        (s + task.latency_total.as_nanos() as f64, n + task.latency_samples)
    });
    if n == 0 {
        0.0
    } else {
        sum / n as f64 / 1_000.0
    }
}

fn run(noise: NoiseConfig, hpc: bool) -> LatencyReport {
    let builder = KernelBuilder::new().noise(noise).seed(2008);
    let built = if hpc { builder.try_build() } else { builder.without_hpc_class().try_build() };
    let mut kernel = built.unwrap_or_else(|e| {
        eprintln!("invalid kernel configuration: {e}");
        std::process::exit(2);
    });
    let setup = if hpc { SchedulerSetup::Hpc } else { SchedulerSetup::Baseline };
    let cfg = SiestaConfig {
        rank_work: vec![0.47, 0.28, 0.14, 0.10],
        iterations: 8,
        rounds: 30,
        ..Default::default()
    };
    let (ranks, _) = siesta::spawn_faulted(&mut kernel, &cfg, &setup, None);
    let end = kernel.run_until_exited(&ranks, SimDuration::from_secs(600)).expect("finishes");

    let app_mean_us = mean_of(&kernel, ranks.iter().copied());
    let app_worst_mean_us = ranks
        .iter()
        .map(|&t| kernel.task(t).mean_latency().as_nanos() as f64 / 1_000.0)
        .fold(0.0, f64::max);
    let daemons: Vec<TaskId> = kernel
        .tasks()
        .iter()
        .filter(|t| t.name.starts_with("kdaemon"))
        .map(|t| t.id)
        .collect();
    let daemon_mean_us = mean_of(&kernel, daemons.into_iter());
    LatencyReport {
        app_mean_us,
        app_worst_mean_us,
        daemon_mean_us,
        exec_secs: end.as_secs_f64(),
        metrics: kernel.metrics_registry().snapshot(),
    }
}

fn main() {
    let flags = experiments::cli::CliFlags::from_env();
    println!("Wakeup→dispatch latency, SIESTA-like workload (microseconds)\n");
    println!(
        "{:<26} {:>10} {:>12} {:>14} {:>10}",
        "configuration", "app mean", "app worst", "daemon mean", "exec (s)"
    );
    for (label, noise) in [
        ("quiet", NoiseConfig::off()),
        ("light noise", NoiseConfig::light()),
        ("heavy noise", NoiseConfig::heavy()),
    ] {
        for hpc in [false, true] {
            let r = run(noise, hpc);
            println!(
                "{:<26} {:>10.2} {:>12.2} {:>14.1} {:>10.3}",
                format!("{} / {}", if hpc { "SCHED_HPC" } else { "CFS" }, label),
                r.app_mean_us,
                r.app_worst_mean_us,
                r.daemon_mean_us,
                r.exec_secs,
            );
            if flags.telemetry {
                println!(
                    "--- telemetry: {} / {} ---\n{}",
                    if hpc { "SCHED_HPC" } else { "CFS" },
                    label,
                    telemetry::export::snapshot_summary(&r.metrics)
                );
            }
        }
    }
    println!(
        "\nShape: the application's wakeup latency under SCHED_HPC stays at the\n\
         context-switch cost regardless of noise (class preemption), while\n\
         under CFS it grows with noise — and the cost is shifted onto the\n\
         daemons, which is exactly where the paper wants it."
    );
}
