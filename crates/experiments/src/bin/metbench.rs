//! Paper Table III / Figure 3 — MetBench.

use experiments::cli::CliFlags;
use experiments::paper::METBENCH;
use experiments::report::{report, save_outputs};
use experiments::runner::run_modes;
use experiments::{ExperimentMode, WorkloadKind};

fn main() {
    let wl = WorkloadKind::MetBench(Default::default());
    let flags = CliFlags::from_env();
    let modes = flags.modes(&ExperimentMode::ALL);
    let results =
        run_modes(&wl, &modes, 2008, flags.faults.as_ref(), flags.topology.as_ref());
    print!("{}", report("Table III / Figure 3 — MetBench", METBENCH, &results, true));
    flags.epilogue(&results);
    let dir = std::path::Path::new("experiments_output");
    if let Err(e) = save_outputs(dir, &flags.output_slug("metbench"), &results) {
        eprintln!("warning: could not save outputs: {e}");
    } else {
        println!("machine-readable outputs in {}", dir.display());
    }
}
