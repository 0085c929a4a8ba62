//! Quickstart: balance an imbalanced SMT pair with HPCSched.
//!
//! Two workers share one POWER5 core. One has 4× the work of the other, so
//! under the stock scheduler the small worker idles at the barrier ~75% of
//! the time while the large worker grinds at equal-priority SMT speed.
//! Moving the processes to `SCHED_HPC` lets the kernel raise the large
//! worker's *hardware thread priority*, shifting decode slots to it and
//! shrinking every iteration.
//!
//! Run with: `cargo run --release --example quickstart`

use mpisim::{Mpi, MpiConfig};
use power5::CpuId;
use schedsim::program::FnProgram;
use schedsim::{Action, Kernel, KernelApi, KernelBuilder, SchedPolicy, SpawnOptions, TaskId};
use simcore::SimDuration;

/// Build a two-worker barrier-synchronized program pair (rank 0 small,
/// rank 1 large) and return their task ids.
fn spawn_pair(kernel: &mut Kernel, policy: SchedPolicy, iterations: u32) -> Vec<TaskId> {
    let mpi = Mpi::new(2, MpiConfig::default());
    let mut ids = Vec::new();
    for (rank, load) in [(0usize, 0.1f64), (1usize, 0.4f64)] {
        let mpi = mpi.clone();
        let mut computing = true;
        let mut left = iterations;
        let program = FnProgram(move |api: &mut KernelApi<'_>| {
            if computing {
                computing = false;
                Action::Compute(load)
            } else if left > 0 {
                left -= 1;
                computing = true;
                Action::Block(mpi.barrier(api, rank))
            } else {
                Action::Exit
            }
        });
        // Pin the pair onto the two SMT contexts of core 0.
        let cpu = CpuId(rank);
        ids.push(kernel.spawn(
            format!("worker{rank}"),
            policy,
            Box::new(program),
            SpawnOptions { affinity: Some(vec![cpu]), ..Default::default() },
        ));
    }
    ids
}

fn run(with_hpcsched: bool) -> (f64, Vec<String>) {
    let builder = KernelBuilder::new();
    let (mut kernel, policy) = if with_hpcsched {
        (builder.build(), SchedPolicy::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedPolicy::Normal)
    };
    let ids = spawn_pair(&mut kernel, policy, 20);
    let end = kernel
        .run_until_exited(&ids, SimDuration::from_secs(120))
        .expect("application finishes");
    let report = ids
        .iter()
        .map(|&id| {
            let t = kernel.task(id);
            format!(
                "  {}: utilization {:>5.1}%, final hw priority {}",
                t.name,
                t.cpu_utilization(end) * 100.0,
                t.hw_prio
            )
        })
        .collect();
    (end.as_secs_f64(), report)
}

fn main() {
    println!("HPCSched quickstart: 4:1 imbalanced pair on one POWER5 core\n");

    let (base, base_report) = run(false);
    println!("Standard scheduler (CFS): {base:.2}s");
    base_report.iter().for_each(|l| println!("{l}"));

    let (hpc, hpc_report) = run(true);
    println!("\nHPCSched (SCHED_HPC, Uniform heuristic): {hpc:.2}s");
    hpc_report.iter().for_each(|l| println!("{l}"));

    println!(
        "\nImprovement: {:+.1}% — the scheduler detected the imbalance from \
         per-iteration CPU utilization\nand raised the busy worker's hardware \
         priority, no application changes needed.",
        100.0 * (base - hpc) / base
    );
}
