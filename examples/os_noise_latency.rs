//! The "high-responsive scheduling" half of the paper's result (§V-D):
//! a fine-grained MPI application on a noisy node.
//!
//! A `SCHED_NORMAL` task that wakes on message arrival competes with every
//! other process in CFS; a `SCHED_HPC` task preempts background daemons
//! immediately because its class outranks theirs. SIESTA-like codes that
//! sleep and wake thousands of times feel this directly.
//!
//! Run with: `cargo run --release --example os_noise_latency`

use schedsim::{KernelBuilder, NoiseConfig};
use simcore::SimDuration;
use workloads::siesta::{self, SiestaConfig};
use workloads::SchedulerSetup;

fn run(noise: NoiseConfig, hpc: bool, seed: u64) -> (f64, f64) {
    let builder = KernelBuilder::new().noise(noise).seed(seed);
    let (mut kernel, setup) = if hpc {
        (builder.build(), SchedulerSetup::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
    };
    let cfg = SiestaConfig {
        rank_work: vec![0.50, 0.26, 0.15, 0.11],
        iterations: 10,
        rounds: 40,
        ..Default::default()
    };
    let (ranks, _) = siesta::spawn_faulted(&mut kernel, &cfg, &setup, None);
    let end = kernel
        .run_until_exited(&ranks, SimDuration::from_secs(600))
        .expect("application finishes");
    // Mean wakeup→dispatch latency across ranks.
    let (lat_sum, lat_n) = ranks.iter().fold((0.0f64, 0u64), |(s, n), &r| {
        let t = kernel.task(r);
        (s + t.latency_total.as_nanos() as f64, n + t.latency_samples)
    });
    let mean_us = if lat_n == 0 { 0.0 } else { lat_sum / lat_n as f64 / 1_000.0 };
    (end.as_secs_f64(), mean_us)
}

fn main() {
    println!("SIESTA-like workload (hub + 3 spokes, thousands of small messages)\n");
    println!(
        "{:<24} {:>12} {:>12} {:>22}",
        "configuration", "exec (s)", "vs quiet", "mean wake latency (us)"
    );

    let (quiet_base, quiet_lat) = run(NoiseConfig::off(), false, 11);
    println!(
        "{:<24} {:>12.3} {:>12} {:>22.1}",
        "CFS, quiet node", quiet_base, "-", quiet_lat
    );

    for (label, noise) in [("light noise", NoiseConfig::light()), ("heavy noise", NoiseConfig::heavy())] {
        let (cfs, cfs_lat) = run(noise, false, 11);
        let (hpc, hpc_lat) = run(noise, true, 11);
        println!(
            "{:<24} {:>12.3} {:>11.1}% {:>22.1}",
            format!("CFS, {label}"),
            cfs,
            100.0 * (cfs - quiet_base) / quiet_base,
            cfs_lat
        );
        println!(
            "{:<24} {:>12.3} {:>11.1}% {:>22.1}",
            format!("HPCSched, {label}"),
            hpc,
            100.0 * (hpc - quiet_base) / quiet_base,
            hpc_lat
        );
    }

    println!(
        "\nHPCSched tasks wake with near-constant microsecond latency regardless of\n\
         noise (class preemption); under CFS the woken rank waits for the daemon's\n\
         burst or the next tick — the OS-noise sensitivity the paper cites."
    );
}
