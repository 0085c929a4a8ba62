//! Paper Table VI / Figure 6 — SIESTA.

use experiments::cli::CliFlags;
use experiments::paper::SIESTA;
use experiments::report::{report, save_outputs};
use experiments::runner::run_modes;
use experiments::{ExperimentMode, WorkloadKind};

fn main() {
    let wl = WorkloadKind::Siesta(Default::default());
    let flags = CliFlags::from_env();
    let modes =
        flags.modes(&[ExperimentMode::Baseline, ExperimentMode::Uniform, ExperimentMode::Adaptive]);
    let results =
        run_modes(&wl, &modes, 2008, flags.faults.as_ref(), flags.topology.as_ref());
    print!("{}", report("Table VI / Figure 6 — SIESTA", SIESTA, &results, true));
    flags.epilogue(&results);
    let dir = std::path::Path::new("experiments_output");
    if let Err(e) = save_outputs(dir, &flags.output_slug("siesta"), &results) {
        eprintln!("warning: could not save outputs: {e}");
    } else {
        println!("machine-readable outputs in {}", dir.display());
    }
}
