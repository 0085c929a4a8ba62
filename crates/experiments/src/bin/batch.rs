//! Two-level batch scheduling study: a seeded job stream through the
//! `batchsim` queue (FCFS / SJF / EASY backfill), each admitted gang
//! placed on the fleet and run by one simulated HPCSched kernel per node.
//!
//! The default run drives a 200-job heavy/light mix under all three
//! disciplines, proves determinism (byte-identical event traces across two
//! runs), requires EASY to strictly beat FCFS on mean wait, and writes the
//! throughput baseline to `BENCH_batch.json`.
//!
//! Flags:
//! * `--jobs N` / `--seed N` — stream length and seed (default 200 / 2008);
//! * `--smoke` — short stream under 3 disciplines x 3 local scheduler
//!   modes with per-job kernel conformance (C001–C005) checked;
//! * `--faults <spec>` — inject a fault plan into the queued system:
//!   `nodefail:` kills a fleet node, `taskabort:` panics node kernels for
//!   the supervisor's retry/quarantine path to absorb, `ckptcorrupt:`
//!   tears a checkpoint save so recovery exercises the fallback;
//! * `--watchdog-ms N` — per-attempt wall-clock watchdog on node kernels;
//! * `--checkpoint <dir>` — run one EASY stream with periodic checkpoints
//!   rotated into `<dir>` (cadence `--ckpt-events N` / `--ckpt-jobs N`);
//! * `--resume <path>` — continue a saved checkpoint (a file, or a
//!   `--checkpoint` dir to pick the newest usable generation) and print
//!   the completed run's trace hash;
//! * `--ckpt-smoke` — crash/resume self-test: checkpoint every discipline
//!   at several cuts, reload through the store (honoring `ckptcorrupt:`),
//!   and require the resumed traces to be byte-identical (`--policy`
//!   runs it on that zoo policy instead of HPCSched);
//! * `--fleet-shape <spec>` — run the fleet on non-reference hardware:
//!   `uniform` (default; the reference OpenPower 710 node), a topology
//!   preset (`2-socket`, `numa`, `wide-smt`), or `mixed` (a heterogeneous
//!   fleet cycling NUMA / wide-SMT-fast / narrow-slow nodes). Applies to
//!   every mode, including `--smoke` and `--ckpt-smoke`;
//! * `--telemetry` / `--verify` — standard parity with the other binaries.

use std::path::{Path, PathBuf};

use batchsim::{
    heavy_light_mix, resume_batch, run_batch, run_batch_checkpointed, run_batch_until,
    BatchConfig, BatchFault, BatchOutcome, CheckpointPolicy, CheckpointStore, Discipline,
    FleetShape, FleetStats, LocalSched,
};
use experiments::benchfile;
use experiments::cli::{BinFlag, CliFlags};
use faultsim::{CkptCorruptSpec, TaskAbortSpec};

/// One per-discipline row of the `BENCH_batch.json` baseline.
#[derive(serde::Serialize)]
struct BenchRow {
    discipline: &'static str,
    seed: u64,
    jobs: usize,
    completed: usize,
    mean_wait_secs: f64,
    makespan_secs: f64,
    /// Jobs completed per simulated second — the tracked figure.
    throughput_per_sim_sec: f64,
    /// Node kernels the engine ran (`exec.pool.tasks`): one per distinct
    /// node content.
    node_runs: u64,
}

/// One per-policy row: the 30-job FCFS stream under each registered
/// balancing policy, so the baseline tracks the whole zoo, not just the
/// paper's policy.
#[derive(serde::Serialize)]
struct PolicyRow {
    policy: &'static str,
    completed: usize,
    mean_wait_secs: f64,
    makespan_secs: f64,
    throughput_per_sim_sec: f64,
}

/// One per-topology row: the 30-job EASY stream on each fleet hardware
/// shape (reference uniform, 2-socket, heterogeneous mix), so the baseline
/// tracks the heterogeneous engine alongside the disciplines and policies.
#[derive(serde::Serialize)]
struct TopologyRow {
    fleet_shape: &'static str,
    completed: usize,
    mean_wait_secs: f64,
    makespan_secs: f64,
    throughput_per_sim_sec: f64,
    /// FNV-1a fingerprint of the rendered event trace — deterministic, so
    /// CI diffs it like the scalar columns.
    trace_hash: String,
}

/// The per-topology section of the baseline: one short EASY stream per
/// fleet shape.
fn topology_rows(seed: u64, failed: &mut bool) -> Vec<TopologyRow> {
    let jobs = heavy_light_mix(seed, 30);
    let shapes = [
        FleetShape::Uniform,
        FleetShape::Preset(batchsim::TopoPreset::TwoSocket),
        FleetShape::Mixed,
    ];
    let mut rows = Vec::new();
    for shape in shapes {
        let cfg = BatchConfig { discipline: Discipline::Easy, shape, ..Default::default() };
        let out = run_batch(&jobs, &cfg, None);
        let stats = FleetStats::from_outcome(&out);
        println!("{}", stats.render_row(&format!("topology/{}", shape.label())));
        if stats.completed != jobs.len() {
            println!(
                "topology/{}: only {}/{} jobs completed",
                shape.label(),
                stats.completed,
                jobs.len()
            );
            *failed = true;
        }
        rows.push(TopologyRow {
            fleet_shape: shape.label(),
            completed: stats.completed,
            mean_wait_secs: stats.mean_wait,
            makespan_secs: stats.makespan,
            throughput_per_sim_sec: stats.throughput,
            trace_hash: format!("{:016x}", out.trace_hash),
        });
    }
    rows
}

/// The policy-zoo section of the baseline: one short FCFS stream per
/// registered `--policy` name, every node-local kernel driven by that
/// balancer. Deterministic, so CI diffs these rows like the rest.
fn policy_rows(seed: u64, failed: &mut bool) -> Vec<PolicyRow> {
    let jobs = heavy_light_mix(seed, 30);
    let mut rows = Vec::new();
    for spec in schedsim::policies::registry() {
        let cfg = BatchConfig {
            discipline: Discipline::Fcfs,
            sched: LocalSched::Policy(spec.name),
            ..Default::default()
        };
        let out = run_batch(&jobs, &cfg, None);
        let stats = FleetStats::from_outcome(&out);
        println!("{}", stats.render_row(&format!("policy/{}", spec.name)));
        if stats.completed != jobs.len() {
            println!("policy/{}: only {}/{} jobs completed", spec.name, stats.completed, jobs.len());
            *failed = true;
        }
        rows.push(PolicyRow {
            policy: spec.name,
            completed: stats.completed,
            mean_wait_secs: stats.mean_wait,
            makespan_secs: stats.makespan,
            throughput_per_sim_sec: stats.throughput,
        });
    }
    rows
}

/// Supervision knobs shared by every mode: the injected `taskabort:`
/// fault (if any), the `--watchdog-ms` wall-clock limit, and the
/// `--fleet-shape` hardware selection.
#[derive(Clone, Copy, Default)]
struct Supervision {
    abort: Option<TaskAbortSpec>,
    watchdog_secs: Option<f64>,
    shape: FleetShape,
}

impl Supervision {
    fn from_flags(flags: &CliFlags) -> Supervision {
        let watchdog_secs = flags.int::<u64>("--watchdog-ms").map(|ms| ms as f64 / 1000.0);
        let shape = flags.value("--fleet-shape").map_or(FleetShape::Uniform, |v| {
            FleetShape::parse(v).unwrap_or_else(|| {
                eprintln!(
                    "--fleet-shape: unknown shape `{v}`; expected uniform, mixed, or a \
                     topology preset (openpower-710, 2-socket, numa, wide-smt)"
                );
                std::process::exit(2);
            })
        });
        Supervision {
            abort: flags.faults.as_ref().and_then(|p| p.task_abort),
            watchdog_secs,
            shape,
        }
    }

    fn apply(&self, cfg: BatchConfig) -> BatchConfig {
        BatchConfig {
            abort: self.abort,
            watchdog_secs: self.watchdog_secs,
            shape: self.shape,
            ..cfg
        }
    }
}

/// The full study: every discipline over one stream, determinism proved by
/// a double-run that must match byte-for-byte.
fn study(
    jobs: &[batchsim::BatchJob],
    fault: Option<&BatchFault>,
    verify: bool,
    sched: LocalSched,
    sup: Supervision,
    failed: &mut bool,
) -> Vec<(Discipline, BatchOutcome)> {
    let mut outs = Vec::new();
    for discipline in Discipline::ALL {
        let cfg =
            sup.apply(BatchConfig { discipline, sched, verify_jobs: verify, ..Default::default() });
        let a = run_batch(jobs, &cfg, fault);
        let b = run_batch(jobs, &cfg, fault);
        if a.render_trace() != b.render_trace() {
            println!("{}: NONDETERMINISTIC (traces differ across reruns)", discipline.label());
            *failed = true;
        }
        outs.push((discipline, a));
    }
    outs
}

fn smoke(flags: &CliFlags, seed: u64, sup: Supervision) -> bool {
    println!("== smoke: 3 disciplines x 3 local schedulers, per-job conformance ==");
    let jobs = heavy_light_mix(seed, 30);
    let fault = flags.faults.as_ref().and_then(|p| p.node_failure.as_ref()).map(BatchFault::from_spec);
    let mut failed = false;
    // `--policy` narrows the smoke to CFS vs. that one zoo policy; the
    // default covers the three builtin regimes.
    let scheds: Vec<LocalSched> = match flags.policy {
        None => LocalSched::ALL.to_vec(),
        Some(p) => vec![LocalSched::Cfs, LocalSched::Policy(p)],
    };
    for sched in scheds {
        for discipline in Discipline::ALL {
            let cfg = sup.apply(BatchConfig {
                discipline,
                sched,
                verify_jobs: true,
                ..Default::default()
            });
            let out = run_batch(&jobs, &cfg, fault.as_ref());
            let clean = out.conformance_clean();
            let stats = FleetStats::from_outcome(&out);
            println!(
                "{}",
                stats.render_row(&format!(
                    "{}/{} {}",
                    discipline.label(),
                    sched.label(),
                    if clean { "clean" } else { "VIOLATIONS" }
                ))
            );
            // Deterministic fingerprint: CI diffs these lines between the
            // clean and the taskabort-absorbed smoke runs.
            println!(
                "trace-hash {}/{} {:016x}",
                discipline.label(),
                sched.label(),
                out.trace_hash
            );
            if !clean {
                for (id, rep) in &out.conformance {
                    if !rep.is_clean() {
                        println!("  job {id}:\n{}", rep.render());
                    }
                }
                failed = true;
            }
        }
    }
    failed
}

/// Crash/resume self-test: checkpoint every discipline's run at several
/// event cuts, rotate the images through an on-disk store (honoring an
/// injected `ckptcorrupt:`), reload the newest usable generation, and
/// require the resumed trace and metrics to match the uninterrupted run
/// byte-for-byte. Returns true on any divergence.
fn ckpt_smoke(
    flags: &CliFlags,
    seed: u64,
    sup: Supervision,
    corrupt: Option<CkptCorruptSpec>,
    dir: &Path,
) -> bool {
    // `--policy` runs every node-local kernel on the named balancer, as in
    // the full study.
    let sched = flags.policy.map_or(LocalSched::Hpc, LocalSched::Policy);
    println!(
        "== ckpt-smoke: crash/resume byte-identity, 3 disciplines, {} nodes, store {} ==",
        sched.label(),
        dir.display()
    );
    let jobs = heavy_light_mix(seed, 30);
    let fault = flags.faults.as_ref().and_then(|p| p.node_failure.as_ref()).map(BatchFault::from_spec);
    let mut failed = false;
    for discipline in Discipline::ALL {
        let cfg = sup.apply(BatchConfig { discipline, sched, ..Default::default() });
        let full = run_batch(&jobs, &cfg, fault.as_ref());
        let subdir = dir.join(discipline.label());
        let mut store = CheckpointStore::new(&subdir);
        if let Some(c) = corrupt {
            store = store.corrupt_nth_save(c.nth);
        }
        let mut saves = 0u32;
        for cut in [5usize, 25, 75] {
            if let Some(ckpt) = run_batch_until(&jobs, &cfg, fault.as_ref(), cut) {
                match store.save(&ckpt) {
                    Ok(_) => saves += 1,
                    Err(e) => {
                        println!("{}: SAVE FAILED at cut {cut}: {e}", discipline.label());
                        failed = true;
                    }
                }
            }
        }
        if saves == 0 {
            println!("{}: stream drained before the first cut; nothing to resume", discipline.label());
            continue;
        }
        let (ckpt, fell_back) = match CheckpointStore::load_latest(&subdir) {
            Ok(v) => v,
            Err(e) => {
                println!("{}: RECOVERY FAILED: {e}", discipline.label());
                failed = true;
                continue;
            }
        };
        let resumed = resume_batch(&ckpt);
        let identical =
            resumed.render_trace() == full.render_trace() && resumed.metrics == full.metrics;
        println!(
            "{}: {saves} checkpoint(s), resumed from {} events{}: trace-hash {:016x} {}",
            discipline.label(),
            ckpt.events_len(),
            if fell_back { " (fell back to .prev)" } else { "" },
            resumed.trace_hash,
            if identical { "byte-identical" } else { "DIVERGED" }
        );
        failed |= !identical;
        // A torn save that was later rotated out is invisible to recovery;
        // only a corrupt *latest* generation must force the fallback.
        let must_fall_back = corrupt.is_some_and(|c| c.nth == saves);
        if fell_back != must_fall_back {
            println!(
                "{}: fallback mismatch (ckptcorrupt expected fallback={must_fall_back}, got {fell_back})",
                discipline.label()
            );
            failed = true;
        }
    }
    failed
}

/// `--checkpoint <dir>`: one EASY stream with periodic checkpoints rotated
/// into the store, leaving `<dir>/batch.ckpt` for a later `--resume`.
fn checkpointed_run(flags: &CliFlags, seed: u64, njobs: usize, sup: Supervision, dir: &Path) {
    let every_events = flags.int("--ckpt-events");
    let every_jobs = flags.int("--ckpt-jobs");
    let policy = CheckpointPolicy {
        // Default cadence: a checkpoint every 10 completed jobs.
        every_jobs: every_jobs.or(if every_events.is_none() { Some(10) } else { None }),
        every_events,
    };
    let corrupt = flags.faults.as_ref().and_then(|p| p.ckpt_corrupt);
    let jobs = heavy_light_mix(seed, njobs);
    let fault = flags.faults.as_ref().and_then(|p| p.node_failure.as_ref()).map(BatchFault::from_spec);
    let cfg = sup.apply(BatchConfig { discipline: Discipline::Easy, ..Default::default() });
    let mut store = CheckpointStore::new(dir);
    if let Some(c) = corrupt {
        store = store.corrupt_nth_save(c.nth);
    }
    let mut saves = 0u32;
    let out = run_batch_checkpointed(&jobs, &cfg, fault.as_ref(), &policy, |ckpt| {
        match store.save(ckpt) {
            Ok(path) => {
                saves += 1;
                println!(
                    "checkpoint {saves}: {} events, t={:.3}s -> {}",
                    ckpt.events_len(),
                    ckpt.captured_at().as_secs_f64(),
                    path.display()
                );
            }
            Err(e) => println!("warning: checkpoint save failed: {e}"),
        }
    });
    let stats = FleetStats::from_outcome(&out);
    println!("{}", stats.render_row("easy/checkpointed"));
    println!("trace-hash easy {:016x}", out.trace_hash);
    println!("\nbatch checkpoint run: OK ({saves} checkpoint(s) in {})", dir.display());
}

/// `--resume <path>`: continue a saved checkpoint to completion. A
/// directory picks the newest usable generation (with `.prev` fallback);
/// a file loads exactly that image.
fn resume_run(path: &Path) -> bool {
    let loaded = if path.is_dir() {
        CheckpointStore::load_latest(path)
    } else {
        CheckpointStore::load_file(path).map(|c| (c, false))
    };
    let (ckpt, fell_back) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("--resume: {e}");
            return true;
        }
    };
    println!(
        "== resume: {} events already traced, t={:.3}s{} ==",
        ckpt.events_len(),
        ckpt.captured_at().as_secs_f64(),
        if fell_back { " (latest corrupt; using .prev)" } else { "" }
    );
    let out = resume_batch(&ckpt);
    let stats = FleetStats::from_outcome(&out);
    println!("{}", stats.render_row("resumed"));
    println!("trace-hash resumed {:016x}", out.trace_hash);
    println!("\nbatch resume: OK");
    false
}

/// The flags `batch` reads besides the standard ones.
const FLAGS: [BinFlag; 10] = [
    BinFlag::Value("--seed"),
    BinFlag::Value("--jobs"),
    BinFlag::Value("--resume"),
    BinFlag::Value("--checkpoint"),
    BinFlag::Value("--ckpt-events"),
    BinFlag::Value("--ckpt-jobs"),
    BinFlag::Value("--watchdog-ms"),
    BinFlag::Value("--fleet-shape"),
    BinFlag::Switch("--smoke"),
    BinFlag::Switch("--ckpt-smoke"),
];

fn main() {
    let flags = CliFlags::from_env_with(&FLAGS);
    let seed = flags.int("--seed").unwrap_or(2008);
    let sup = Supervision::from_flags(&flags);

    if let Some(path) = flags.value("--resume") {
        if resume_run(Path::new(path)) {
            std::process::exit(1);
        }
        return;
    }

    if flags.switch("--ckpt-smoke") {
        let corrupt = flags.faults.as_ref().and_then(|p| p.ckpt_corrupt);
        let dir = flags.value("--checkpoint").map_or_else(
            || std::env::temp_dir().join(format!("batch-ckpt-{}", std::process::id())),
            PathBuf::from,
        );
        if ckpt_smoke(&flags, seed, sup, corrupt, &dir) {
            eprintln!("batch ckpt-smoke: FAILED");
            std::process::exit(1);
        }
        println!("\nbatch ckpt-smoke: OK");
        return;
    }

    if flags.switch("--smoke") {
        if smoke(&flags, seed, sup) {
            eprintln!("batch smoke: FAILED");
            std::process::exit(1);
        }
        println!("\nbatch smoke: OK");
        return;
    }

    let njobs = flags.int("--jobs").unwrap_or(200);

    if let Some(dir) = flags.value("--checkpoint") {
        checkpointed_run(&flags, seed, njobs, sup, Path::new(dir));
        return;
    }

    let jobs = heavy_light_mix(seed, njobs);
    let fault = flags.faults.as_ref().and_then(|p| p.node_failure.as_ref()).map(BatchFault::from_spec);
    let mut failed = false;

    // `--policy` swaps every node-local kernel onto the named balancer;
    // the default full study runs the paper's HPCSched policy.
    let sched = flags.policy.map_or(LocalSched::Hpc, LocalSched::Policy);
    println!(
        "== batch: {njobs}-job heavy/light mix, seed {seed}, 4-node fleet, {} nodes ==",
        sched.label()
    );
    let outs = study(&jobs, fault.as_ref(), flags.verify, sched, sup, &mut failed);

    let mut rows = Vec::new();
    let mut wait_of = std::collections::BTreeMap::new();
    for (discipline, out) in &outs {
        let stats = FleetStats::from_outcome(out);
        println!("{}", stats.render_row(discipline.label()));
        wait_of.insert(discipline.label(), stats.mean_wait);
        rows.push(BenchRow {
            discipline: discipline.label(),
            seed,
            jobs: njobs,
            completed: stats.completed,
            mean_wait_secs: stats.mean_wait,
            makespan_secs: stats.makespan,
            throughput_per_sim_sec: stats.throughput,
            node_runs: out.pool_metrics.counter("exec.pool.tasks"),
        });
        if !out.failed_nodes.is_empty() {
            println!(
                "  node failures: {:?}; degraded jobs: {}",
                out.failed_nodes,
                stats.degraded
            );
        }
    }
    if !failed {
        println!("\ndeterminism: every discipline byte-identical across reruns");
    }

    // The headline backfill claim, asserted on every run.
    let (fcfs, easy) = (wait_of["fcfs"], wait_of["easy"]);
    if fault.is_none() {
        if easy < fcfs {
            println!("EASY mean wait {easy:.3}s < FCFS {fcfs:.3}s (backfill pays off)");
        } else {
            println!("EASY mean wait {easy:.3}s did NOT beat FCFS {fcfs:.3}s");
            failed = true;
        }
    }

    if flags.telemetry {
        for (discipline, out) in &outs {
            println!("--- telemetry: batch / {} ---", discipline.label());
            println!("{}", telemetry::export::snapshot_summary(&out.metrics));
            println!("--- node-run telemetry: batch / {} ---", discipline.label());
            println!("{}", telemetry::export::snapshot_summary(&out.pool_metrics));
        }
    }
    if flags.verify {
        for (discipline, out) in &outs {
            let clean = out.conformance_clean();
            println!(
                "--- verify: batch / {} --- {} ({} per-job kernel traces)",
                discipline.label(),
                if clean { "clean" } else { "VIOLATIONS" },
                out.conformance.len()
            );
            failed |= !clean;
        }
    }

    // The baseline only tracks the clean configuration; a faulted,
    // resized, or policy-overridden run would churn the committed file.
    if fault.is_none()
        && sup.abort.is_none()
        && njobs == 200
        && seed == 2008
        && flags.policy.is_none()
        && sup.shape == FleetShape::Uniform
    {
        println!("\n== policy zoo: 30-job FCFS stream per registered --policy ==");
        let policies = policy_rows(seed, &mut failed);
        println!("\n== topologies: 30-job EASY stream per fleet shape ==");
        let topologies = topology_rows(seed, &mut failed);
        // Upsert section by section so the `fleet` binary's rows in the
        // same file survive a baseline regeneration (and vice versa).
        let file = "BENCH_batch.json";
        let write = benchfile::upsert_section(file, "disciplines", &rows)
            .and_then(|()| benchfile::upsert_section(file, "policies", &policies))
            .and_then(|()| benchfile::upsert_section(file, "topologies", &topologies));
        match write {
            Ok(()) => println!("throughput baseline written to BENCH_batch.json"),
            Err(e) => println!("warning: could not write BENCH_batch.json: {e}"),
        }
    }

    if failed {
        eprintln!("batch: FAILED");
        std::process::exit(1);
    }
    println!("\nbatch: OK");
}
