//! The trace-hash lines pinned in `TRACE_baseline.txt`: the six MetBench
//! cells `verify` runs (every scheduler mode, plus Uniform under a steal
//! fault) and the 200-job batch study under each discipline, each as one
//! `trace-hash <cell> <fnv1a>` line. `verify` prints them and fails on a
//! difference; a tier-1 test (`tests/trace_baseline.rs`) diffs the same
//! lines against the same file.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use batchsim::{heavy_light_mix, run_batch, BatchConfig, Discipline, FnvWriter};
use faultsim::FaultPlan;
use workloads::metbench::MetBenchConfig;

use crate::runner::{run, try_run, ExperimentMode, WorkloadKind};

/// The seed every pinned line was captured with.
pub const SEED: u64 = 2008;

/// The scheduler modes of the MetBench cells, in the file's order.
pub const MODES: [ExperimentMode; 5] = [
    ExperimentMode::Baseline,
    ExperimentMode::Static,
    ExperimentMode::Uniform,
    ExperimentMode::Adaptive,
    ExperimentMode::Hybrid,
];

/// The steal-fault spec of the `metbench-steal/Uniform` cell.
pub const STEAL_SPEC: &str = "seed=7; steal:cpu=0,period=40ms,duration=5ms,count=6,jitter";

/// The small MetBench cell `verify` runs throughout: 4 ranks, 6
/// iterations.
pub fn small_metbench() -> WorkloadKind {
    WorkloadKind::MetBench(MetBenchConfig {
        loads: vec![0.05, 0.2, 0.05, 0.2],
        iterations: 6,
        ..Default::default()
    })
}

/// FNV-1a 64-bit fingerprint over the Debug rendering of a trace, one
/// record per line.
pub fn trace_fingerprint(records: &[schedsim::TraceRecord]) -> u64 {
    let mut hash = FnvWriter::new();
    for rec in records {
        let _ = writeln!(hash, "{rec:?}");
    }
    hash.finish()
}

/// The nine `trace-hash` lines, in the file's order.
///
/// # Panics
/// If [`STEAL_SPEC`] does not parse or its cell is invalid; both are
/// fixed here.
pub fn trace_hash_lines() -> Vec<String> {
    let wl = small_metbench();
    let mut lines = Vec::new();
    for mode in MODES {
        let r = run(&wl, mode, SEED);
        lines.push(format!(
            "trace-hash metbench/{} {:016x}",
            mode.label(),
            trace_fingerprint(&r.records)
        ));
    }
    let plan = FaultPlan::parse(STEAL_SPEC).expect("the steal spec is valid");
    let r = try_run(&wl, ExperimentMode::Uniform, SEED, Some(&plan), None).expect("valid cell");
    lines.push(format!(
        "trace-hash metbench-steal/Uniform {:016x}",
        trace_fingerprint(&r.records)
    ));
    // The 200-job batch study under every discipline: the byte-identity
    // gate that pins the engine refactors (reservation index, pending
    // queue) to the pre-refactor traces.
    let stream = heavy_light_mix(SEED, 200);
    for discipline in Discipline::ALL {
        let cfg = BatchConfig { discipline, ..Default::default() };
        let out = run_batch(&stream, &cfg, None);
        lines.push(format!("trace-hash batch/{} {:016x}", discipline.label(), out.trace_hash));
    }
    lines
}

/// Repository root for the trace baseline: the working directory when run
/// from a checkout, the workspace root otherwise.
pub fn repo_root() -> PathBuf {
    if Path::new("crates").is_dir() {
        PathBuf::from(".")
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    }
}

/// The trace-hash gate: the non-comment lines of the baseline file at
/// `path` must equal `got`, in order. A file that cannot be read is a
/// failure, never a skipped gate.
pub fn check_trace_baseline(path: &Path, got: &[String]) -> Result<(), String> {
    let baseline = std::fs::read_to_string(path)
        .map_err(|e| format!("TRACE_baseline.txt not read from {}: {e}", path.display()))?;
    let want: Vec<&str> =
        baseline.lines().filter(|l| !l.is_empty() && !l.starts_with('#')).collect();
    if want == got {
        Ok(())
    } else {
        Err(format!("TRACE HASH MISMATCH vs TRACE_baseline.txt\n  want: {want:?}\n  got:  {got:?}"))
    }
}
