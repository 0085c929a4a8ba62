//! Plugging a custom prioritization heuristic into the HPC scheduler.
//!
//! The paper's future work asks for "an heuristic capable of performing
//! well for both constant and dynamic applications". This example shows the
//! extension surface: implement [`schedsim::policies::Heuristic`] and
//! hand it to a [`schedsim::policies::Table1Balancer`] driving the
//! [`schedsim::BalancedClass`]. The demo heuristic jumps straight to the
//! target priority instead of stepping one level per iteration. (For a
//! whole new *policy* rather than a new Table-I heuristic, implement
//! [`schedsim::Balancer`] and pass it to `KernelBuilder::balancer`.)
//!
//! Run with: `cargo run --release --example custom_heuristic`

use std::sync::{Arc, Mutex};

use mpisim::{Mpi, MpiConfig};
use power5::{Chip, CpuId, HwPriority, Topology};
use schedsim::policies::{Heuristic, HpcTunables, Power5Mechanism, Table1Balancer, TaskIterStats};
use schedsim::program::FnProgram;
use schedsim::{
    Action, BalancedClass, HpcPolicyKind, Kernel, KernelApi, KernelConfig, SchedPolicy,
    SpawnOptions,
};
use simcore::SimDuration;

/// One-shot heuristic: high-utilization tasks go straight to MAX_PRIO,
/// low-utilization tasks straight to MIN_PRIO (no gradual stepping). More
/// aggressive than Uniform, less noisy than Adaptive.
struct OneShotHeuristic;

impl Heuristic for OneShotHeuristic {
    fn name(&self) -> &'static str {
        "one-shot"
    }

    fn metric(&self, stats: &TaskIterStats, _tun: &HpcTunables) -> f64 {
        // Judge on the last iteration, like Adaptive with L = 1.
        stats.last_util
    }

    fn next_priority(
        &self,
        stats: &TaskIterStats,
        current: HwPriority,
        tun: &HpcTunables,
    ) -> HwPriority {
        let util = self.metric(stats, tun);
        if util >= tun.high_util {
            tun.max_prio
        } else if util <= tun.low_util {
            tun.min_prio
        } else {
            current
        }
    }
}

fn main() {
    // Assemble a kernel manually (instead of via KernelBuilder) to show
    // the full plug-in path: chip → kernel → balancer → class.
    let chip = Chip::new(Topology::openpower_710());
    let mut kernel = Kernel::new(chip, KernelConfig::default());
    let tunables = Arc::new(Mutex::new(HpcTunables::default()));
    let balancer = Table1Balancer::new(
        Box::new(OneShotHeuristic),
        Box::new(Power5Mechanism),
        tunables.clone(),
    );
    let class = BalancedClass::new(
        HpcPolicyKind::Rr,
        SimDuration::from_millis(100),
        Box::new(balancer),
    );
    kernel.install_class_after_rt(Box::new(class));

    // An imbalanced pair on core 0.
    let mpi = Mpi::new(2, MpiConfig::default());
    let mut ids = Vec::new();
    for (rank, load) in [(0usize, 0.05f64), (1usize, 0.2f64)] {
        let mpi = mpi.clone();
        let mut compute = true;
        let mut left = 10u32;
        ids.push(kernel.spawn(
            format!("rank{rank}"),
            SchedPolicy::Hpc,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                if compute {
                    compute = false;
                    Action::Compute(load)
                } else if left > 0 {
                    left -= 1;
                    compute = true;
                    Action::Block(mpi.barrier(api, rank))
                } else {
                    Action::Exit
                }
            })),
            SpawnOptions { affinity: Some(vec![CpuId(rank)]), ..Default::default() },
        ));
    }

    let end = kernel.run_until_exited(&ids, SimDuration::from_secs(60)).expect("finishes");
    println!("one-shot heuristic run finished in {:.3}s", end.as_secs_f64());
    for &id in &ids {
        let t = kernel.task(id);
        println!(
            "  {}: utilization {:>5.1}%, hw priority {} (reached in one iteration)",
            t.name,
            t.cpu_utilization(end) * 100.0,
            t.hw_prio
        );
    }
    assert_eq!(kernel.task(ids[1]).hw_prio, HwPriority::HIGH, "busy rank at MAX_PRIO");
    println!("\nCompare: the built-in Uniform heuristic needs two iterations to reach");
    println!("priority 6; one-shot jumps directly — at the cost of over-reacting to");
    println!("a single unrepresentative iteration (exactly the trade-off of paper IV-B).");
}
