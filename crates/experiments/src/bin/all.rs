//! Run the full evaluation: every table and figure, with paper-vs-measured
//! summaries. Writes machine-readable outputs to `experiments_output/`.

use experiments::cli::CliFlags;
use experiments::paper::{BTMZ, METBENCH, METBENCHVAR, SIESTA};
use experiments::report::{report, save_outputs};
use experiments::runner::run_modes;
use experiments::{ExperimentMode, WorkloadKind};

fn main() {
    let flags = CliFlags::from_env();
    let dir = std::path::Path::new("experiments_output");
    let all = ExperimentMode::ALL;
    let no_static =
        [ExperimentMode::Baseline, ExperimentMode::Uniform, ExperimentMode::Adaptive];

    let cells: Vec<(&str, WorkloadKind, &[ExperimentMode], _)> = vec![
        ("metbench", WorkloadKind::MetBench(Default::default()), &all[..], METBENCH),
        ("metbenchvar", WorkloadKind::MetBenchVar(Default::default()), &all[..], METBENCHVAR),
        ("btmz", WorkloadKind::BtMz(Default::default()), &all[..], BTMZ),
        ("siesta", WorkloadKind::Siesta(Default::default()), &no_static[..], SIESTA),
    ];

    for (slug, wl, modes, paper) in cells {
        let results = run_modes(&wl, &flags.modes(modes), 2008, None, flags.topology.as_ref());
        let title = format!("{} (paper vs measured)", wl.name());
        print!("{}", report(&title, paper, &results, false));
        flags.epilogue(&results);
        if let Err(e) = save_outputs(dir, &flags.output_slug(slug), &results) {
            eprintln!("warning: could not save outputs for {slug}: {e}");
        }
    }
    println!("Done. Machine-readable outputs in {}.", dir.display());
    println!("Run the per-experiment binaries (metbench, btmz, ...) for the ASCII trace figures.");
}
