//! CI verification harness: conformance-check a small seeded MetBench run
//! under every scheduler mode, then prove determinism by running the
//! dynamic heuristics twice with one seed and comparing traces
//! record-by-record. Exits nonzero on any violation or divergence.
//!
//! The fault sections exercise `faultsim` end to end: every fault class is
//! injected into every scheduler mode and must leave the trace
//! conformance-clean; a fail-stop crash must surface as a typed error, not
//! a panic; an *empty* fault plan must leave the trace byte-identical to a
//! run without faultsim wired in; a heavily faulted run must still be
//! deterministic; and a batch node failure must be absorbed or degrade
//! gracefully. The measured fault baseline lands in `BENCH_faults.json`.
//!
//! Every section runs fixed cells, so `--faults`, `--policy` and
//! `--topology` are usage errors (exit 2), as unknown arguments are.

use batchsim::{
    heavy_light_mix, resume_batch, run_batch, run_batch_until, BatchCheckpoint, BatchConfig,
    BatchFault, BatchJob, Discipline, FleetShape, JobSpec,
};
use experiments::baseline::{
    check_trace_baseline, repo_root, small_metbench, trace_fingerprint, trace_hash_lines, MODES,
    SEED, STEAL_SPEC,
};
use experiments::cli::CliFlags;
use experiments::json::Json;
use experiments::runner::{run, try_run, ExperimentMode, WorkloadKind};
use faultsim::{FaultError, FaultPlan, FaultSummary};
use workloads::metbench::MetBenchConfig;

/// One row of the `BENCH_faults.json` baseline.
struct BenchRow {
    class: &'static str,
    spec: &'static str,
    mode: &'static str,
    seed: u64,
    exec_secs: f64,
    summary: FaultSummary,
}

impl BenchRow {
    fn to_json(&self) -> Json {
        let s = &self.summary;
        let summary = Json::obj([
            ("steal_bursts_injected", s.steal_bursts_injected.into()),
            ("slowdowns_injected", s.slowdowns_injected.into()),
            ("mpi_delays_injected", s.mpi_delays_injected.into()),
            ("restarts_absorbed", s.restarts_absorbed.into()),
            ("degraded_samples", s.degraded_samples.into()),
            ("aborted", s.aborted.as_ref().map_or(Json::Null, fault_error_json)),
        ]);
        Json::obj([
            ("class", self.class.into()),
            ("spec", self.spec.into()),
            ("mode", self.mode.into()),
            ("seed", self.seed.into()),
            ("exec_secs", self.exec_secs.into()),
            ("summary", summary),
        ])
    }
}

/// A terminal fault as `{"Variant": {fields}}`.
fn fault_error_json(e: &FaultError) -> Json {
    let (variant, fields) = match *e {
        FaultError::RankFailStop { rank, iteration } => (
            "RankFailStop",
            Json::obj([("rank", rank.into()), ("iteration", iteration.into())]),
        ),
        FaultError::Deadline { secs } => ("Deadline", Json::obj([("secs", secs.into())])),
    };
    Json::obj([(variant, fields)])
}

/// One seeded spec per fault class (DESIGN.md §9).
const FAULT_MATRIX: [(&str, &str); 5] = [
    ("steal", STEAL_SPEC),
    ("slow", "seed=7; slow:rank=1,at=100ms,factor=0.5"),
    // MetBench only point-to-point-sends during init (a handful of
    // messages), so use prob=1 to make the spike count deterministic.
    ("mpidelay", "seed=7; mpidelay:prob=1.0,extra=200us"),
    ("crash-restart", "seed=7; crash:rank=1,iter=3,policy=restart,delay=50ms"),
    ("crash-failstop", "seed=7; crash:rank=1,iter=3,policy=failstop"),
];

fn main() {
    // The harness takes no flag that changes it: unknown arguments and
    // the run-shaping standard flags are usage errors.
    if let Err(e) = CliFlags::from_env().reject_run_flags("verify") {
        eprintln!("{e}");
        std::process::exit(2);
    }

    let wl = small_metbench();
    let mut failed = false;

    println!("== conformance: MetBench (4 ranks, 6 iterations, seed {SEED}) ==");
    let all_modes = MODES;
    for mode in all_modes {
        let r = run(&wl, mode, SEED);
        println!("{:<10} {}", mode.label(), r.conformance.render().trim_end());
        failed |= !r.conformance.is_clean();
    }

    println!("\n== trace hashes: HPCSched traces vs pre-refactor baseline ==");
    let hash_lines = trace_hash_lines();
    for line in &hash_lines {
        println!("{line}");
    }
    match check_trace_baseline(&repo_root().join("TRACE_baseline.txt"), &hash_lines) {
        Ok(()) => println!("trace hashes match TRACE_baseline.txt"),
        Err(e) => {
            println!("{e}");
            failed = true;
        }
    }

    println!("\n== determinism: identical (config, seed) => identical trace ==");
    for mode in [ExperimentMode::Uniform, ExperimentMode::Adaptive] {
        match simverify::determinism::check(|| run(&wl, mode, SEED).records) {
            Ok(n) => println!("{:<10} deterministic ({n} records)", mode.label()),
            Err(d) => {
                println!("{:<10} NONDETERMINISTIC\n{d}", mode.label());
                failed = true;
            }
        }
    }

    println!("\n== faults: every class x every mode stays conformance-clean ==");
    let mut bench = Vec::new();
    for (class, spec) in FAULT_MATRIX {
        let plan = FaultPlan::parse(spec).expect("matrix specs are valid");
        for mode in all_modes {
            let r = try_run(&wl, mode, SEED, Some(&plan), None).expect("valid cell");
            let summary = r.fault.expect("faulted run carries a summary");
            let clean = r.conformance.is_clean();
            println!(
                "{class:<14} {:<10} {} | {summary}",
                mode.label(),
                if clean { "clean" } else { "VIOLATIONS" },
            );
            failed |= !clean;
            // Each class must actually inject (or absorb) something — a
            // zero count means the hook is not wired, not that the stack
            // coped.
            let exercised = match class {
                "steal" => summary.steal_bursts_injected > 0,
                "slow" => summary.slowdowns_injected > 0,
                "mpidelay" => summary.mpi_delays_injected > 0,
                "crash-restart" => summary.restarts_absorbed > 0,
                "crash-failstop" => summary.aborted.is_some(),
                _ => unreachable!(),
            };
            if !exercised {
                println!("  fault class `{class}` injected nothing");
                failed = true;
            }
            match class {
                // A fail-stop crash must end in the typed error, with the
                // partial trace still collected.
                "crash-failstop" => {
                    let ok = matches!(
                        summary.aborted,
                        Some(FaultError::RankFailStop { rank: 1, .. })
                    ) && !r.records.is_empty();
                    if !ok {
                        println!("  expected typed RankFailStop abort, got {:?}", summary.aborted);
                        failed = true;
                    }
                }
                // Every other class must be absorbed: the run completes.
                _ => {
                    if let Some(e) = summary.aborted {
                        println!("  expected completion, got abort: {e}");
                        failed = true;
                    }
                }
            }
            if mode == ExperimentMode::Adaptive {
                bench.push(BenchRow {
                    class,
                    spec,
                    mode: mode.label(),
                    seed: SEED,
                    exec_secs: r.exec_secs,
                    summary,
                });
            }
        }
    }

    println!("\n== faults: empty plan is byte-identical to a plain run ==");
    for mode in [ExperimentMode::Uniform, ExperimentMode::Adaptive] {
        let plain = run(&wl, mode, SEED).records;
        let empty = try_run(&wl, mode, SEED, Some(&FaultPlan::default()), None)
            .expect("valid cell")
            .records;
        match simverify::determinism::first_divergence(&plain, &empty) {
            None => println!("{:<10} identical ({} records)", mode.label(), plain.len()),
            Some(d) => {
                println!("{:<10} DIVERGED\n{d}", mode.label());
                failed = true;
            }
        }
    }

    println!("\n== faults: a faulted run is itself deterministic ==");
    let stress = FaultPlan::parse(
        "seed=11; steal:cpu=1,period=30ms,duration=4ms,count=8,jitter; \
         slow:rank=0,at=80ms,factor=0.6; mpidelay:prob=0.3,extra=300us; \
         crash:rank=2,iter=2,policy=restart,delay=20ms",
    )
    .expect("stress spec is valid");
    match simverify::determinism::check(|| {
        try_run(&wl, ExperimentMode::Adaptive, SEED, Some(&stress), None)
            .expect("valid cell")
            .records
    }) {
        Ok(n) => println!("Adaptive   deterministic ({n} records)"),
        Err(d) => {
            println!("Adaptive   NONDETERMINISTIC\n{d}");
            failed = true;
        }
    }

    println!("\n== faults: batch node failure absorbs or degrades, never panics ==");
    let short = BatchJob::new(0, JobSpec::new("vfy-short", vec![0.05; 4], 1), 0.0);
    // 3 nodes: the 2-node job loses node 1 mid-run and restarts on the
    // survivors once the short job frees node 0.
    let stream = [short.clone(), BatchJob::new(1, JobSpec::new("vfy", vec![0.05; 6], 6), 0.0)];
    let fault = BatchFault { node: 1, after_completions: 1, max_retries: 2, restart_secs: 0.5 };
    let out = run_batch(&stream, &BatchConfig { num_nodes: 3, ..Default::default() }, Some(&fault));
    let job = &out.jobs[1].outcome;
    if job.failure.is_some_and(|f| f.absorbed) && !job.degraded {
        println!("3 nodes    absorbed (makespan {:.3}s)", job.result.makespan);
    } else {
        println!("3 nodes    expected absorbed outcome, got {job:?}");
        failed = true;
    }
    // 2 nodes: the 2-node job queues behind the short one, whose node then
    // dies; the survivor alone can never host it.
    let stream = [short, BatchJob::new(1, JobSpec::new("vfy", vec![0.05; 8], 6), 0.0)];
    let fault = BatchFault { node: 0, after_completions: 1, max_retries: 2, restart_secs: 0.5 };
    let out = run_batch(&stream, &BatchConfig { num_nodes: 2, ..Default::default() }, Some(&fault));
    let job = &out.jobs[1].outcome;
    if job.degraded && out.failed_nodes == [0] {
        println!("2 nodes    degraded gracefully (survivor cannot host the gang)");
    } else {
        println!("2 nodes    expected degraded outcome, got {job:?}");
        failed = true;
    }

    println!("\n== policy zoo: every --policy x {{plain + every fault class}} ==");
    for spec in schedsim::policies::registry() {
        let mode = ExperimentMode::Policy(spec.name);
        // Plain run: C001–C005 conformance plus a double-run determinism
        // check (identical seed => identical trace).
        let det = simverify::determinism::check(|| run(&wl, mode, SEED).records);
        let r = run(&wl, mode, SEED);
        let clean = r.conformance.is_clean();
        println!(
            "policy-hash {:<12} {:016x} {} {}",
            spec.name,
            trace_fingerprint(&r.records),
            if clean { "clean" } else { "VIOLATIONS" },
            match &det {
                Ok(n) => format!("deterministic ({n} records)"),
                Err(_) => "NONDETERMINISTIC".to_string(),
            }
        );
        if !clean {
            println!("{}", r.conformance.render().trim_end());
            failed = true;
        }
        if let Err(d) = det {
            println!("{d}");
            failed = true;
        }
        // The full fault matrix per policy. C001 staying clean under every
        // class is the do-no-harm floor, end to end: even while degraded,
        // no hardware priority leaves the [MEDIUM, HIGH] tunable band.
        let mut fault_cells = Vec::new();
        for (class, fspec) in FAULT_MATRIX {
            let plan = FaultPlan::parse(fspec).expect("matrix specs are valid");
            let fr = try_run(&wl, mode, SEED, Some(&plan), None).expect("valid cell");
            let summary = fr.fault.expect("faulted run carries a summary");
            let mut ok = fr.conformance.is_clean();
            if !ok {
                println!("  {class}: VIOLATIONS\n{}", fr.conformance.render().trim_end());
            }
            match class {
                "crash-failstop" => {
                    if !matches!(summary.aborted, Some(FaultError::RankFailStop { rank: 1, .. })) {
                        println!("  {class}: expected typed RankFailStop, got {:?}", summary.aborted);
                        ok = false;
                    }
                }
                _ => {
                    if let Some(e) = summary.aborted {
                        println!("  {class}: expected completion, got abort: {e}");
                        ok = false;
                    }
                }
            }
            failed |= !ok;
            fault_cells.push(format!("{class}:{}", if ok { "ok" } else { "FAIL" }));
        }
        println!("  faults      {}", fault_cells.join(" "));
    }

    // The heterogeneous-topology gate (DESIGN.md §16). The pinned trace
    // hashes above all run on the default OpenPower 710 tree; these
    // sections prove the topology axis is sound without touching them:
    // an explicit `openpower-710` must be byte-identical to the default,
    // and a 3-level NUMA tree must run the workload x mode matrix and the
    // whole policy zoo conformance-clean and deterministically.
    println!("\n== topology: explicit openpower-710 is byte-identical to the default ==");
    let p710 = power5::Topology::openpower_710();
    for mode in all_modes {
        let plain = run(&wl, mode, SEED).records;
        let explicit = try_run(&wl, mode, SEED, None, Some(&p710)).expect("valid cell").records;
        match simverify::determinism::first_divergence(&plain, &explicit) {
            None => println!("{:<10} identical ({} records)", mode.label(), plain.len()),
            Some(d) => {
                println!("{:<10} DIVERGED\n{d}", mode.label());
                failed = true;
            }
        }
    }

    println!("\n== topology: workload x mode matrix on a 3-level NUMA tree (2n2c2t) ==");
    let numa = power5::Topology::parse("2n2c2t").expect("spec grammar");
    let topo_cells: Vec<WorkloadKind> = vec![
        small_metbench(),
        WorkloadKind::MetBenchVar(workloads::metbenchvar::MetBenchVarConfig {
            base: MetBenchConfig {
                loads: vec![0.05, 0.2, 0.05, 0.2],
                iterations: 9,
                ..Default::default()
            },
            k: 3,
        }),
        WorkloadKind::BtMz(workloads::btmz::BtMzConfig {
            iterations: 6,
            ..Default::default()
        }),
        WorkloadKind::Siesta(workloads::siesta::SiestaConfig {
            iterations: 3,
            rounds: 10,
            ..Default::default()
        }),
    ];
    for cell in &topo_cells {
        for mode in all_modes {
            let r = try_run(cell, mode, SEED, None, Some(&numa)).expect("valid cell");
            let clean = r.conformance.is_clean();
            println!(
                "{:<12} {:<10} {}",
                cell.name(),
                mode.label(),
                if clean { "clean" } else { "VIOLATIONS" }
            );
            if !clean {
                println!("{}", r.conformance.render().trim_end());
                failed = true;
            }
        }
    }

    println!("\n== topology: policy zoo on the NUMA tree stays clean and deterministic ==");
    for spec in schedsim::policies::registry() {
        let mode = ExperimentMode::Policy(spec.name);
        let det = simverify::determinism::check(|| {
            try_run(&wl, mode, SEED, None, Some(&numa)).expect("valid cell").records
        });
        let r = try_run(&wl, mode, SEED, None, Some(&numa)).expect("valid cell");
        let clean = r.conformance.is_clean();
        println!(
            "{:<12} {} {}",
            spec.name,
            if clean { "clean" } else { "VIOLATIONS" },
            match &det {
                Ok(n) => format!("deterministic ({n} records)"),
                Err(_) => "NONDETERMINISTIC".to_string(),
            }
        );
        if !clean {
            println!("{}", r.conformance.render().trim_end());
            failed = true;
        }
        if let Err(d) = det {
            println!("{d}");
            failed = true;
        }
    }

    println!("\n== topology: mixed-fleet checkpoint resumes byte-identically ==");
    {
        let hetero_stream = heavy_light_mix(SEED, 24);
        let cfg = BatchConfig {
            discipline: Discipline::Easy,
            shape: FleetShape::Mixed,
            ..Default::default()
        };
        let full = run_batch(&hetero_stream, &cfg, None);
        match run_batch_until(&hetero_stream, &cfg, None, 12) {
            Some(ckpt) => {
                let ckpt =
                    BatchCheckpoint::decode(&ckpt.encode()).expect("shape survives the wire");
                let resumed = resume_batch(&ckpt);
                if resumed.render_trace() == full.render_trace()
                    && resumed.metrics == full.metrics
                {
                    println!("easy       resume identical ({} jobs)", full.jobs.len());
                } else {
                    println!("easy       CHECKPOINT RESUME DIVERGED from the full run");
                    failed = true;
                }
            }
            None => {
                println!("easy       checkpoint cut not found");
                failed = true;
            }
        }
    }

    let bench_json = Json::Arr(bench.iter().map(BenchRow::to_json).collect()).to_pretty();
    match std::fs::write("BENCH_faults.json", bench_json) {
        Ok(()) => println!("\nfault baseline written to BENCH_faults.json"),
        Err(e) => println!("\nwarning: could not write BENCH_faults.json: {e}"),
    }

    if failed {
        eprintln!("verify: FAILED");
        std::process::exit(1);
    }
    println!("\nverify: OK");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn a_missing_baseline_fails_the_gate() {
        let path = std::env::temp_dir().join("verify-no-such-dir/TRACE_baseline.txt");
        let err = check_trace_baseline(&path, &lines(&["trace-hash a 01"])).unwrap_err();
        assert!(err.contains("not read"), "{err}");
        assert!(check_trace_baseline(&path, &[]).is_err(), "nothing to compare is no pass");
    }

    #[test]
    fn the_baseline_compares_non_comment_lines_in_order() {
        let dir = std::env::temp_dir().join(format!("verify-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TRACE_baseline.txt");
        std::fs::write(&path, "# pinned\ntrace-hash a 01\n\ntrace-hash b 02\n").unwrap();
        let check = |got: &[&str]| check_trace_baseline(&path, &lines(got));
        assert!(check(&["trace-hash a 01", "trace-hash b 02"]).is_ok());
        assert!(check(&["trace-hash b 02", "trace-hash a 01"]).is_err());
        assert!(check(&["trace-hash a 01"]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_committed_baseline_is_found_from_any_directory() {
        assert!(repo_root().join("TRACE_baseline.txt").is_file());
    }
}
