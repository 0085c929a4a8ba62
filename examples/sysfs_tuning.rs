//! Tuning a live scheduler through the simulated sysfs interface.
//!
//! The paper exposes `HIGH_UTIL`, `LOW_UTIL`, `MAX_PRIO`, `MIN_PRIO` and the
//! Adaptive weights as sysfs entries so administrators can adapt the
//! heuristic to an application without recompiling (§IV-B). The builder
//! exposes the shared tunables handle — the "mount point" — from
//! construction on, and changes take effect at the next iteration boundary.
//!
//! Run with: `cargo run --release --example sysfs_tuning`

use schedsim::policies::HpcTunables;
use schedsim::KernelBuilder;
use simcore::SimDuration;
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn run_with(tune: impl FnOnce(&mut HpcTunables)) -> (f64, Vec<u8>) {
    let builder = KernelBuilder::new();
    let handle = builder.tunables();
    tune(&mut handle.lock().unwrap());
    let mut kernel = builder.build();

    let cfg = MetBenchConfig {
        loads: vec![0.25, 1.0, 0.25, 1.0],
        iterations: 8,
        ..Default::default()
    };
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel
        .run_until_exited(&all, SimDuration::from_secs(300))
        .expect("application finishes");
    let prios = workers.iter().map(|&w| kernel.task(w).hw_prio.value()).collect();
    (end.as_secs_f64(), prios)
}

fn main() {
    println!("Runtime tuning through the sysfs-style interface\n");
    println!("available keys: {:?}\n", HpcTunables::keys());

    let (default_secs, default_prios) = run_with(|_| {});
    println!(
        "defaults (HIGH_UTIL=85, range [4,6]):      {default_secs:.2}s, final priorities {default_prios:?}"
    );

    // Restrict the scheduler to a ±1 priority difference, like an
    // administrator protecting latency-sensitive co-runners.
    let (narrow_secs, narrow_prios) = run_with(|t| {
        t.set("max_prio", "5").expect("valid priority");
    });
    println!(
        "echo 5 > max_prio (range [4,5]):           {narrow_secs:.2}s, final priorities {narrow_prios:?}"
    );

    // Raise HIGH_UTIL so only near-saturated tasks are boosted.
    let (strict_secs, strict_prios) = run_with(|t| {
        t.set("high_util", "99.5").expect("valid threshold");
    });
    println!(
        "echo 99.5 > high_util (stricter boost):    {strict_secs:.2}s, final priorities {strict_prios:?}"
    );

    // Invalid writes are rejected exactly like a sysfs store returning
    // -EINVAL.
    let mut t = HpcTunables::default();
    let err = t.set("max_prio", "9").unwrap_err();
    println!("\necho 9 > max_prio -> rejected: {err}");
    let err = t.set("low_util", "95").unwrap_err();
    println!("echo 95 > low_util -> rejected: {err}");

    assert!(narrow_secs >= default_secs, "±1 range cannot beat ±2 here");
    println!(
        "\nThe ±1 run improves less than the default ±2 run — the decode-slot\n\
         ratio at difference 1 (3:1) cannot absorb a 4:1 load imbalance, which\n\
         is why the paper explores priorities up to ±2 and no further."
    );
}
