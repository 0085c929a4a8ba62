//! Evaluation of the Hybrid heuristic — this reproduction's implementation
//! of the paper's future-work item (§VI): "find an heuristic capable of
//! performing well (even if not optimal) for both constant and dynamic
//! applications".
//!
//! Runs all four applications under Uniform, Adaptive and Hybrid and
//! reports whether Hybrid stays competitive with the better of the two on
//! each.

use experiments::cli::CliFlags;
use experiments::runner::run_modes;
use experiments::{ExperimentMode, WorkloadKind};

fn main() {
    let flags = CliFlags::from_env();
    let modes = [
        ExperimentMode::Baseline,
        ExperimentMode::Uniform,
        ExperimentMode::Adaptive,
        ExperimentMode::Hybrid,
    ];
    let cells: Vec<WorkloadKind> = vec![
        WorkloadKind::MetBench(Default::default()),
        WorkloadKind::MetBenchVar(Default::default()),
        WorkloadKind::BtMz(Default::default()),
        WorkloadKind::Siesta(Default::default()),
    ];

    println!("Hybrid heuristic evaluation (paper \u{a7}VI future work)\n");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10}   verdict",
        "workload", "baseline", "uniform", "adaptive", "hybrid"
    );

    let mut hybrid_ok = true;
    for wl in &cells {
        let results = run_modes(wl, &modes, 2008, None, flags.topology.as_ref());
        flags.epilogue(&results);
        let secs: Vec<f64> = results.iter().map(|r| r.exec_secs).collect();
        let (base, unif, adapt, hybrid) = (secs[0], secs[1], secs[2], secs[3]);
        let best = unif.min(adapt);
        // "Performing well, even if not optimal": within 3% of the better
        // built-in heuristic.
        let ok = hybrid <= best * 1.03;
        hybrid_ok &= ok;
        println!(
            "{:<12} {:>9.2}s {:>9.2}s {:>9.2}s {:>9.2}s   {}",
            wl.name(),
            base,
            unif,
            adapt,
            hybrid,
            if ok { "within 3% of best" } else { "FALLS SHORT" }
        );
    }

    println!();
    if hybrid_ok {
        println!(
            "Hybrid is competitive everywhere: it anneals from last-iteration\n\
             judgement (young history, after behaviour changes) to global\n\
             judgement (mature history) — one knob, both application classes."
        );
    } else {
        println!("Hybrid fell short on at least one workload — see rows above.");
        std::process::exit(1);
    }
}
