//! Balance a real-shaped MPI application and *watch it happen*: runs the
//! MetBench benchmark under the stock scheduler and under HPCSched, prints
//! the paper-style statistics table and the PARAVER-style ASCII trace.
//!
//! Run with: `cargo run --release --example balance_mpi_app`

use schedsim::{KernelBuilder, SharedSink};
use simcore::SimDuration;
use tracefmt::{render_timeline, AppStats, AsciiOptions, Timeline};
use workloads::metbench::{self, MetBenchConfig};
use workloads::SchedulerSetup;

fn run(cfg: &MetBenchConfig, hpc: bool) -> (f64, String, String) {
    let builder = KernelBuilder::new();
    let (mut kernel, setup) = if hpc {
        (builder.build(), SchedulerSetup::Hpc)
    } else {
        (builder.without_hpc_class().build(), SchedulerSetup::Baseline)
    };
    let sink = SharedSink::new();
    kernel.observe(Box::new(sink.clone()));

    let (workers, master, _) = metbench::spawn_faulted(&mut kernel, cfg, &setup, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel
        .run_until_exited(&all, SimDuration::from_secs(600))
        .expect("application finishes");

    let timeline = Timeline::from_records(&sink.snapshot()).filter_tasks(&workers);
    let stats = AppStats::for_tasks(&timeline, &workers);
    let label = if hpc { "HPCSched" } else { "Baseline" };
    (
        end.as_secs_f64(),
        stats.to_table(label),
        render_timeline(&timeline, &AsciiOptions { width: 100, ..Default::default() }),
    )
}

fn main() {
    // A shortened MetBench: two small-load and two large-load workers.
    let cfg = MetBenchConfig {
        loads: vec![0.25, 1.0, 0.25, 1.0],
        iterations: 10,
        ..Default::default()
    };

    println!("MetBench (4 workers + master, strict barrier per iteration)\n");
    for hpc in [false, true] {
        let (secs, table, trace) = run(&cfg, hpc);
        println!("{table}");
        println!("{trace}");
        println!("total execution time: {secs:.2}s\n{}", "=".repeat(70));
    }
    println!(
        "\nThe dark (#) compute phases of the small workers stretch to fill the\n\
         iteration once HPCSched raises the large workers' hardware priorities\n\
         (digit markers in the trace) — compare with paper Figure 3."
    );
}
