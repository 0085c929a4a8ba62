//! Scheduler-latency integration: the SCHED_HPC class's responsiveness on
//! a noisy node (paper §V-D, the SIESTA analysis).

use power5::CpuId;
use schedsim::{KernelBuilder, NoiseConfig, SchedPolicy, SpawnOptions};
use simcore::SimDuration;
use workloads::siesta::{self, SiestaConfig};
use workloads::SchedulerSetup;

fn cfg() -> SiestaConfig {
    SiestaConfig {
        rank_work: vec![0.30, 0.15, 0.09, 0.06],
        iterations: 6,
        rounds: 25,
        ..Default::default()
    }
}

fn run(noise: NoiseConfig, hpc: bool) -> (f64, f64) {
    let builder = KernelBuilder::new().noise(noise).seed(99);
    let (mut kernel, setup) = if hpc {
        (builder.build(), SchedulerSetup::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
    };
    let (ranks, _) = siesta::spawn_faulted(&mut kernel, &cfg(), &setup, None);
    let end = kernel.run_until_exited(&ranks, SimDuration::from_secs(600)).expect("finishes");
    let (sum, n) = ranks.iter().fold((0.0f64, 0u64), |(s, n), &r| {
        let t = kernel.task(r);
        (s + t.latency_total.as_nanos() as f64, n + t.latency_samples)
    });
    (end.as_secs_f64(), if n == 0 { 0.0 } else { sum / n as f64 / 1_000.0 })
}

#[test]
fn hpc_class_cuts_wakeup_latency_under_noise() {
    let (_, cfs_lat) = run(NoiseConfig::heavy(), false);
    let (_, hpc_lat) = run(NoiseConfig::heavy(), true);
    assert!(
        hpc_lat < cfs_lat * 0.5,
        "HPC latency {hpc_lat}us should be well below CFS {cfs_lat}us"
    );
    // Class preemption keeps it near the context-switch cost.
    assert!(hpc_lat < 50.0, "HPC latency {hpc_lat}us stays microsecond-scale");
}

#[test]
fn hpc_class_improves_execution_on_noisy_node() {
    let (cfs, _) = run(NoiseConfig::heavy(), false);
    let (hpc, _) = run(NoiseConfig::heavy(), true);
    assert!(hpc < cfs, "HPCSched {hpc}s vs CFS {cfs}s under heavy noise");
}

#[test]
fn noise_hurts_cfs_more_than_hpcsched() {
    let (cfs_quiet, _) = run(NoiseConfig::off(), false);
    let (cfs_noisy, _) = run(NoiseConfig::heavy(), false);
    let (hpc_quiet, _) = run(NoiseConfig::off(), true);
    let (hpc_noisy, _) = run(NoiseConfig::heavy(), true);
    let cfs_hit = (cfs_noisy - cfs_quiet) / cfs_quiet;
    let hpc_hit = (hpc_noisy - hpc_quiet) / hpc_quiet;
    assert!(
        hpc_hit < cfs_hit + 1e-9,
        "noise slowdown: hpc {hpc_hit:.4} must not exceed cfs {cfs_hit:.4}"
    );
}

#[test]
fn rt_semantics_preserved_above_hpc_class() {
    // Paper §IV: the HPC class sits *below* real-time. An RT hog on a CPU
    // must starve an HPC task placed there, not the other way around.
    use schedsim::program::ScriptedProgram;
    let mut kernel = KernelBuilder::new().build();
    let rt = kernel.spawn(
        "rt-hog",
        SchedPolicy::Fifo,
        Box::new(ScriptedProgram::compute_once(0.3)),
        SpawnOptions {
            rt_priority: 50,
            affinity: Some(vec![CpuId(0)]),
            ..Default::default()
        },
    );
    let hpc = kernel.spawn(
        "hpc-task",
        SchedPolicy::Hpc,
        Box::new(ScriptedProgram::compute_once(0.1)),
        SpawnOptions { affinity: Some(vec![CpuId(0)]), ..Default::default() },
    );
    kernel.run_until_exited(&[rt, hpc], SimDuration::from_secs(60)).expect("finishes");
    let rt_end = kernel.task(rt).exited_at.unwrap();
    let hpc_end = kernel.task(hpc).exited_at.unwrap();
    assert!(rt_end < hpc_end, "RT finishes first despite arriving together");
}

#[test]
fn hpc_outranks_normal_tasks() {
    use schedsim::program::ScriptedProgram;
    let mut kernel = KernelBuilder::new().build();
    let normal = kernel.spawn(
        "normal",
        SchedPolicy::Normal,
        Box::new(ScriptedProgram::compute_once(0.3)),
        SpawnOptions { affinity: Some(vec![CpuId(0)]), ..Default::default() },
    );
    let hpc = kernel.spawn(
        "hpc-task",
        SchedPolicy::Hpc,
        Box::new(ScriptedProgram::compute_once(0.1)),
        SpawnOptions { affinity: Some(vec![CpuId(0)]), ..Default::default() },
    );
    kernel.run_until_exited(&[normal, hpc], SimDuration::from_secs(60)).expect("finishes");
    assert!(
        kernel.task(hpc).exited_at.unwrap() < kernel.task(normal).exited_at.unwrap(),
        "HPC class outranks CFS"
    );
}
