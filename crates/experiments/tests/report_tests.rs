//! Tests for the experiment reporting/export pipeline.

use experiments::paper::{paper_improvement, METBENCH, SIESTA};
use experiments::report::{report, save_outputs};
use experiments::runner::run_modes;
use experiments::{ExperimentMode, WorkloadKind};
use workloads::metbench::MetBenchConfig;

fn tiny() -> WorkloadKind {
    WorkloadKind::MetBench(MetBenchConfig {
        loads: vec![0.02, 0.08, 0.02, 0.08],
        iterations: 3,
        ..Default::default()
    })
}

#[test]
fn report_contains_every_mode_and_paper_columns() {
    let results =
        run_modes(&tiny(), &[ExperimentMode::Baseline, ExperimentMode::Uniform], 1, None, None);
    let text = report("T", METBENCH, &results, false);
    assert!(text.contains("Baseline"));
    assert!(text.contains("Uniform"));
    assert!(text.contains("paper exec(s)"));
    assert!(text.contains("81.78"), "paper baseline number surfaced");
}

#[test]
fn report_with_figures_renders_traces() {
    let results = run_modes(&tiny(), &[ExperimentMode::Uniform], 1, None, None);
    let text = report("T", METBENCH, &results, true);
    assert!(text.contains("trace"), "figure section present");
    assert!(text.contains('#'), "compute cells rendered");
}

#[test]
fn hybrid_mode_reports_without_paper_row() {
    let results = run_modes(&tiny(), &[ExperimentMode::Hybrid], 1, None, None);
    let text = report("T", METBENCH, &results, false);
    assert!(text.contains("Hybrid"));
    // No paper row for Hybrid → dash in the paper column.
    assert!(text.lines().any(|l| l.starts_with("Hybrid") && l.contains('-')));
}

#[test]
fn save_outputs_writes_all_formats() {
    let dir = std::env::temp_dir().join(format!("hpcsched_test_{}", std::process::id()));
    let results = run_modes(&tiny(), &[ExperimentMode::Uniform], 1, None, None);
    save_outputs(&dir, "tiny", &results).expect("writes");
    for ext in ["stats.csv", "trace.csv", "prv", "pcf"] {
        let p = dir.join(format!("tiny_uniform.{ext}"));
        assert!(p.exists(), "{p:?} missing");
        assert!(std::fs::metadata(&p).unwrap().len() > 0, "{p:?} empty");
    }
    // The .prv parses back at least structurally: a header plus records.
    let prv = std::fs::read_to_string(dir.join("tiny_uniform.prv")).unwrap();
    assert!(prv.starts_with("#Paraver"));
    assert!(prv.lines().count() > 4);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_improvements_are_internally_consistent() {
    // The baseline's improvement over itself is zero for every table.
    for table in [METBENCH, SIESTA] {
        assert_eq!(paper_improvement(table, "Baseline"), Some(0.0));
    }
    assert!(paper_improvement(METBENCH, "Nonexistent").is_none());
}

#[test]
fn mean_latency_is_populated_for_noisy_runs() {
    let wl = WorkloadKind::Siesta(workloads::siesta::SiestaConfig {
        rank_work: vec![0.06, 0.03, 0.02, 0.012],
        iterations: 2,
        rounds: 8,
        ..Default::default()
    });
    let r = experiments::run(&wl, ExperimentMode::Baseline, 1);
    // Latency samples exist (ranks woke at least once) and are sane.
    assert!(r.mean_latency_us >= 0.0);
    assert!(r.mean_latency_us < 50_000.0, "latency {}us", r.mean_latency_us);
}
