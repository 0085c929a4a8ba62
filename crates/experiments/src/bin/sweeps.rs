//! Tunable sweeps: how sensitive is the result to the knobs the paper
//! exposes through sysfs? Sweeps HIGH_UTIL/LOW_UTIL bounds, the Adaptive
//! G/L weights and the priority range on MetBench and MetBenchVar.

use schedsim::policies::{HeuristicKind, HpcTunables};
use schedsim::builder::HpcSchedConfig;
use schedsim::KernelBuilder;
use schedsim::SchedError;
use simcore::SimDuration;
use workloads::metbench::{self, MetBenchConfig};
use workloads::metbenchvar::{self, MetBenchVarConfig};
use workloads::SchedulerSetup;

fn run_metbench(tunables: HpcTunables, heuristic: HeuristicKind) -> Result<f64, SchedError> {
    let cfg = MetBenchConfig {
        loads: vec![0.109, 0.436, 0.109, 0.436], // 1/5-scale paper loads
        iterations: 30,
        ..Default::default()
    };
    let mut kernel = KernelBuilder::new()
        .hpc_config(HpcSchedConfig { heuristic, tunables, ..Default::default() })
        .try_build()?;
    let (workers, master, _) =
        metbench::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers;
    all.push(master);
    Ok(kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes").as_secs_f64())
}

fn run_metbenchvar(tunables: HpcTunables, heuristic: HeuristicKind) -> Result<f64, SchedError> {
    let cfg = MetBenchVarConfig {
        base: MetBenchConfig {
            loads: vec![0.327, 1.309, 0.327, 1.309], // 1/5-scale paper loads
            iterations: 45,
            ..Default::default()
        },
        k: 15,
    };
    let mut kernel = KernelBuilder::new()
        .hpc_config(HpcSchedConfig { heuristic, tunables, ..Default::default() })
        .try_build()?;
    let (workers, master, _) =
        metbenchvar::spawn_faulted(&mut kernel, &cfg, &SchedulerSetup::Hpc, None);
    let mut all = workers;
    all.push(master);
    Ok(kernel.run_until_exited(&all, SimDuration::from_secs(2000)).expect("finishes").as_secs_f64())
}

/// Format a sweep point: seconds, or the builder's rejection for an
/// invalid tunable combination (the sweep keeps going either way).
fn fmt(res: Result<f64, SchedError>) -> String {
    match res {
        Ok(secs) => format!("{secs:.3}s"),
        Err(e) => format!("rejected: {e}"),
    }
}

fn main() {
    println!("== HIGH_UTIL sweep (MetBench, Uniform; paper default 85) ==");
    for high in [70.0, 80.0, 85.0, 90.0, 95.0, 99.0] {
        let t = HpcTunables { high_util: high, ..Default::default() };
        println!("  HIGH_UTIL={high:>5}: {}", fmt(run_metbench(t, HeuristicKind::Uniform)));
    }

    println!("\n== LOW_UTIL sweep (MetBench, Uniform; paper default 65) ==");
    for low in [30.0, 50.0, 65.0, 80.0] {
        let t = HpcTunables { low_util: low, ..Default::default() };
        println!("  LOW_UTIL={low:>5}: {}", fmt(run_metbench(t, HeuristicKind::Uniform)));
    }

    println!("\n== Adaptive G weight sweep (MetBenchVar; paper default G=0.1) ==");
    for g in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9] {
        let mut t = HpcTunables::default();
        t.set_weights(g);
        println!("  G={g:.1} L={:.1}: {}", 1.0 - g, fmt(run_metbenchvar(t, HeuristicKind::Adaptive)));
    }

    println!("\n== Priority range sweep (MetBench, Uniform; paper uses [4,6]) ==");
    for max in [4u8, 5, 6] {
        let mut t = HpcTunables::default();
        t.set("max_prio", &max.to_string()).unwrap();
        println!("  range [4,{max}]: {}", fmt(run_metbench(t, HeuristicKind::Uniform)));
    }

    println!("\n== Balance-spread sweep (MetBench, Uniform; default 10) ==");
    for spread in [2.0, 5.0, 10.0, 20.0, 40.0] {
        let t = HpcTunables { balance_spread: spread, ..Default::default() };
        println!("  spread={spread:>4}: {}", fmt(run_metbench(t, HeuristicKind::Uniform)));
    }

    println!(
        "\nShapes to expect: HIGH_UTIL is flat between ~70 and ~95 (the gate\n\
         freezes a balanced app either way) and degrades at 99+ (boost never\n\
         triggers); [4,4] disables balancing entirely, [4,5] buys roughly half\n\
         of [4,6]'s improvement; tiny balance spreads re-open the gate on\n\
         measurement noise and churn priorities."
    );

    if experiments::cli::CliFlags::from_env().telemetry {
        // Kernel metrics for one representative cell (paper-default
        // MetBench under Uniform).
        let wl = experiments::WorkloadKind::MetBench(Default::default());
        let r = experiments::run(&wl, experiments::ExperimentMode::Uniform, 2008);
        print!("{}", experiments::report::telemetry_report(std::slice::from_ref(&r)));
    }
}
