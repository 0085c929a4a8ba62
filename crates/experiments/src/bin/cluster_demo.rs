//! Cluster-level gang scheduling — the paper's future-work direction
//! (§VI): assign groups of tasks to nodes knowing the local HPCSched can
//! dynamically rebalance inside each node.
//!
//! The demo jobs are submitted as a tiny FCFS stream through `batchsim`
//! (the two-level batch layer); each gang is placed with the chosen
//! strategy and runs one simulated kernel per node. Expected shape:
//! (1) HPCSched nodes beat CFS nodes under any placement; (2) the
//! SMT-aware placement — which deliberately pairs heavy and light ranks
//! on SMT siblings because the hardware-priority boost can exploit
//! exactly that — matches or beats classic load-oblivious and
//! load-balancing placements.

use batchsim::{
    run_batch, BatchConfig, BatchJob, Discipline, FleetStats, JobSpec, LocalSched,
    PlacementStrategy,
};
use experiments::cli::CliFlags;
use simcore::SimRng;

/// One FCFS batch of the demo jobs on a `nodes`-node fleet; per-node
/// kernel runs fan out over `threads` pool workers (output is identical
/// at any count).
fn run_fcfs(
    jobs: &[BatchJob],
    nodes: usize,
    strategy: PlacementStrategy,
    sched: LocalSched,
    threads: usize,
) -> batchsim::BatchOutcome {
    let cfg = BatchConfig {
        num_nodes: nodes,
        discipline: Discipline::Fcfs,
        sched,
        placement: strategy,
        threads,
        ..Default::default()
    };
    run_batch(jobs, &cfg, None)
}

fn main() {
    let flags = CliFlags::from_env();
    // `--policy` swaps the balanced side of the comparison from the
    // paper's HPCSched onto the named zoo policy.
    let balanced = flags.policy.map_or(LocalSched::Hpc, LocalSched::Policy);
    let strategies = [
        PlacementStrategy::RoundRobin,
        PlacementStrategy::GreedyLpt,
        PlacementStrategy::SmtAware,
    ];

    // Job 1: bimodal — two heavy solver ranks among light halo ranks.
    let bimodal = JobSpec::new(
        "bimodal",
        vec![0.40, 0.40, 0.10, 0.10, 0.10, 0.10, 0.10, 0.10],
        20,
    );
    // Job 2: irregular mesh partition (random, deterministic seed).
    let mut rng = SimRng::seed_from_u64(7);
    let irregular = JobSpec::random("irregular", 16, 15, &mut rng);

    for (job, nodes) in [(&bimodal, 2usize), (&irregular, 4)] {
        println!(
            "== job {:<10} ranks={} nodes={nodes} imbalance={:.1}x ==",
            job.name,
            job.ranks(),
            job.imbalance()
        );
        println!(
            "{:<12} {:>14} {:>14} {:>12}",
            "placement",
            "CFS nodes (s)",
            format!("{} nodes (s)", balanced.label()),
            "gain"
        );
        let stream = [BatchJob::new(0, job.clone(), 0.01)];
        for s in strategies {
            let cfs = run_fcfs(&stream, nodes, s, LocalSched::Cfs, flags.threads);
            let hpc = run_fcfs(&stream, nodes, s, balanced, flags.threads);
            let (cfs, hpc) =
                (cfs.jobs[0].outcome.result.makespan, hpc.jobs[0].outcome.result.makespan);
            println!(
                "{:<12} {:>14.3} {:>14.3} {:>11.1}%",
                format!("{s:?}"),
                cfs,
                hpc,
                100.0 * (cfs - hpc) / cfs
            );
        }
        println!();
    }

    // Both jobs through one queue: the bimodal gang holds 2 of 4 nodes
    // while the irregular gang (4 nodes wide) waits behind it — the
    // batch layer's wait/turnaround accounting on a toy stream.
    let stream =
        vec![BatchJob::new(0, bimodal, 0.01), BatchJob::new(1, irregular, 0.02)];
    let out = run_fcfs(&stream, 4, PlacementStrategy::SmtAware, balanced, flags.threads);
    let stats = FleetStats::from_outcome(&out);
    println!("== both jobs, one FCFS queue (4 nodes, SmtAware, HPCSched) ==");
    println!("{}", stats.render_row("fcfs"));

    println!(
        "\nThe SMT-aware gang scheduler and the local HPCSched compose: the\n\
         placement engineers per-core imbalance that the hardware priorities\n\
         then absorb — the coordination the paper's future work envisions.\n\
         The `batch` binary runs the full two-level study (disciplines,\n\
         arrival streams, node failures)."
    );
    if flags.telemetry {
        println!("--- telemetry: batch / fcfs ---");
        println!("{}", telemetry::export::snapshot_summary(&out.metrics));
    }
}
