//! Fleet-scale batch study: the million-job trajectory of batchsim's
//! fleet entry points (DESIGN.md §15).
//!
//! Where the `batch` binary materialises a 200-job stream, this one
//! streams 10^4–10^6 jobs over a ≥1000-node fleet in O(1) memory per job:
//! lazy seeded arrivals, an interval-indexed EASY backfill pass, and
//! statistics folded into scalars/histograms as jobs retire. The tracked
//! figures — jobs per simulated second and honest peak RSS per scale —
//! land in the `fleet` section of `BENCH_batch.json`.
//!
//! Flags:
//! * default — one quick 10k-job fleet over 1000 nodes, serial, with the
//!   stats row and a resume self-check;
//! * `--smoke` — the CI scale gate: a 100k-job stream run serially and at
//!   8 worker threads, requiring byte-identical trace fingerprints;
//! * `--scale` — the full trajectory: 10k/100k/1M jobs, each measured in
//!   a fresh child process (so `VmHWM` is that run's own high-water mark,
//!   not an earlier row's) at 1 and 8 threads, hashes cross-checked, rows
//!   upserted into `BENCH_batch.json`;
//! * `--scale-row` — internal: run one row in this process and print it
//!   as a single JSON line (spawned by `--scale`);
//! * `--check-bench` — validate the committed `fleet` section: rows at
//!   every scale, positive throughput and RSS figures, thread-count pairs
//!   with identical hashes;
//! * `--jobs N` / `--nodes N` / `--seed N` / `--threads N` — overrides.

use std::time::Instant;

use batchsim::{resume_batch, run_fleet, run_fleet_until, scaled_config, BatchOutcome, FleetStats};
use experiments::benchfile;
use experiments::cli::{self, CliFlags};

/// The scale trajectory `--scale` measures and `--check-bench` requires.
const SCALES: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Thread counts every scale is cross-checked at.
const THREAD_PAIR: [usize; 2] = [1, 8];

/// One row of the `fleet` section of `BENCH_batch.json`. Deterministic
/// fields (`completed` … `trace_hash`) are identical at every thread
/// count; `wall_secs`, `jobs_per_wall_sec` and `peak_rss_bytes` are host
/// measurements and excluded from CI baseline diffs.
#[derive(Clone, serde::Serialize, serde::Deserialize)]
struct FleetBenchRow {
    jobs: u64,
    nodes: u64,
    discipline: String,
    seed: u64,
    threads: u64,
    completed: u64,
    degraded: u64,
    makespan_sim_secs: f64,
    /// Jobs completed per simulated second — the deterministic figure.
    jobs_per_sim_sec: f64,
    wall_secs: f64,
    jobs_per_wall_sec: f64,
    /// `VmHWM` of the process that ran this row, bytes.
    peak_rss_bytes: u64,
    /// FNV-1a fingerprint of the rendered event trace, 16 hex digits.
    trace_hash: String,
}

/// This process's peak resident set (`VmHWM` from `/proc/self/status`),
/// in bytes; 0 where the proc interface is unavailable.
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn run_row(jobs: u64, nodes: usize, seed: u64, threads: usize) -> (FleetBenchRow, BatchOutcome) {
    let mut cfg = scaled_config(jobs, nodes, seed);
    cfg.batch.threads = threads;
    let t0 = Instant::now();
    let out = run_fleet(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let row = FleetBenchRow {
        jobs,
        nodes: nodes as u64,
        discipline: cfg.batch.discipline.label().to_string(),
        seed,
        threads: threads as u64,
        completed: out.accum.completed,
        degraded: out.accum.degraded,
        makespan_sim_secs: out.makespan,
        jobs_per_sim_sec: if out.makespan > 0.0 {
            out.accum.completed as f64 / out.makespan
        } else {
            0.0
        },
        wall_secs: wall,
        jobs_per_wall_sec: if wall > 0.0 { out.accum.jobs as f64 / wall } else { 0.0 },
        peak_rss_bytes: peak_rss_bytes(),
        trace_hash: format!("{:016x}", out.trace_hash),
    };
    (row, out)
}

fn render_row(r: &FleetBenchRow) {
    println!(
        "fleet {:>9} jobs x {:>4} nodes t{} | done {:>9} degr {:>3} | {:>10.1} jobs/sim-s \
         {:>9.0} jobs/wall-s | rss {:>7.1} MiB | hash {}",
        r.jobs,
        r.nodes,
        r.threads,
        r.completed,
        r.degraded,
        r.jobs_per_sim_sec,
        r.jobs_per_wall_sec,
        r.peak_rss_bytes as f64 / (1024.0 * 1024.0),
        r.trace_hash,
    );
}

/// Spawn this binary again for one `--scale-row`, so the child's `VmHWM`
/// measures exactly that run.
fn spawn_row(jobs: u64, nodes: usize, seed: u64, threads: usize) -> Result<FleetBenchRow, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--scale-row",
            "--jobs",
            &jobs.to_string(),
            "--nodes",
            &nodes.to_string(),
            "--seed",
            &seed.to_string(),
            "--threads",
            &threads.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawn --scale-row: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "--scale-row jobs={jobs} threads={threads} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("--scale-row jobs={jobs}: no JSON row on stdout"))?;
    serde_json::from_str::<FleetBenchRow>(line)
        .map_err(|e| format!("--scale-row jobs={jobs}: bad row: {e}"))
}

/// Schema/consistency check over the committed `fleet` rows — the CI
/// guard that the baseline actually records the trajectory.
fn check_bench() -> Result<(), String> {
    let rows: Vec<FleetBenchRow> = benchfile::read_section("BENCH_batch.json", "fleet")
        .ok_or("BENCH_batch.json has no fleet section")?;
    for &jobs in &SCALES {
        let at: Vec<&FleetBenchRow> = rows.iter().filter(|r| r.jobs == jobs).collect();
        if at.is_empty() {
            return Err(format!("no fleet row at {jobs} jobs"));
        }
        for r in &at {
            if r.jobs_per_sim_sec <= 0.0 {
                return Err(format!("{jobs} jobs t{}: jobs_per_sim_sec not positive", r.threads));
            }
            if r.peak_rss_bytes == 0 {
                return Err(format!("{jobs} jobs t{}: peak_rss_bytes missing", r.threads));
            }
            if r.nodes < 1000 {
                return Err(format!("{jobs} jobs t{}: fewer than 1000 nodes", r.threads));
            }
            if r.trace_hash.len() != 16 || !r.trace_hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{jobs} jobs t{}: malformed trace_hash", r.threads));
            }
        }
        if at.iter().any(|r| r.trace_hash != at[0].trace_hash) {
            return Err(format!("{jobs} jobs: trace_hash differs across thread counts"));
        }
        if at.iter().any(|r| r.completed != at[0].completed) {
            return Err(format!("{jobs} jobs: completed differs across thread counts"));
        }
    }
    println!(
        "check-bench: {} fleet rows, scales {:?}, thread-pair hashes identical",
        rows.len(),
        SCALES
    );
    Ok(())
}

/// Checkpoint/resume self-check: cut a fleet run mid-stream, resume it,
/// and require the finished fingerprint and accumulator to match the
/// uninterrupted run exactly.
fn resume_self_check(jobs: u64, nodes: usize, seed: u64) -> Result<(), String> {
    let cfg = scaled_config(jobs, nodes, seed);
    let whole = run_fleet(&cfg);
    let cut = (whole.trace_events / 2).max(1);
    let ckpt = run_fleet_until(&cfg, cut).ok_or("run finished before the checkpoint cut")?;
    let resumed = resume_batch(&ckpt);
    if resumed.trace_hash != whole.trace_hash {
        return Err(format!(
            "resume diverged: {:016x} vs {:016x}",
            resumed.trace_hash, whole.trace_hash
        ));
    }
    if resumed.accum != whole.accum {
        return Err("resume accumulator differs from uninterrupted run".into());
    }
    println!(
        "resume: cut at event {cut}, resumed to identical hash {:016x} ({} jobs)",
        whole.trace_hash, whole.accum.jobs
    );
    Ok(())
}

fn main() {
    let flags = CliFlags::from_env();
    flags.note_no_kernel();
    let seed = cli::int_value_of("--seed").unwrap_or(2008);
    let nodes = cli::int_value_of("--nodes").unwrap_or(1000);
    let jobs = cli::int_value_of::<u64>("--jobs");

    if cli::flag("--scale-row") {
        let jobs = jobs.unwrap_or(10_000);
        let (row, _) = run_row(jobs, nodes, seed, flags.threads);
        println!("{}", serde_json::to_string(&row).expect("row serializes"));
        return;
    }

    if cli::flag("--check-bench") {
        if let Err(e) = check_bench() {
            eprintln!("fleet: check-bench FAILED: {e}");
            std::process::exit(1);
        }
        println!("\nfleet: OK");
        return;
    }

    if cli::flag("--smoke") {
        let jobs = jobs.unwrap_or(100_000);
        println!("== fleet smoke: {jobs} jobs x {nodes} nodes, serial vs 8 threads ==");
        let mut hashes = Vec::new();
        for threads in THREAD_PAIR {
            let (row, _) = run_row(jobs, nodes, seed, threads);
            render_row(&row);
            hashes.push(row.trace_hash.clone());
        }
        if hashes[0] != hashes[1] {
            eprintln!("fleet: smoke FAILED: serial {} != parallel {}", hashes[0], hashes[1]);
            std::process::exit(1);
        }
        println!("serial and 8-thread fingerprints identical: {}", hashes[0]);
        println!("\nfleet: OK");
        return;
    }

    if cli::flag("--scale") {
        println!("== fleet scale trajectory: {SCALES:?} jobs x {nodes} nodes ==");
        let mut rows = Vec::new();
        let mut failed = false;
        for jobs in SCALES {
            let mut pair = Vec::new();
            for threads in THREAD_PAIR {
                match spawn_row(jobs, nodes, seed, threads) {
                    Ok(row) => {
                        render_row(&row);
                        pair.push(row);
                    }
                    Err(e) => {
                        eprintln!("fleet: {e}");
                        failed = true;
                    }
                }
            }
            if pair.len() == 2 && pair[0].trace_hash != pair[1].trace_hash {
                eprintln!(
                    "fleet: {jobs} jobs: serial {} != parallel {}",
                    pair[0].trace_hash, pair[1].trace_hash
                );
                failed = true;
            }
            rows.extend(pair);
        }
        if failed {
            eprintln!("fleet: FAILED");
            std::process::exit(1);
        }
        match benchfile::upsert_section("BENCH_batch.json", "fleet", &rows) {
            Ok(()) => println!("fleet trajectory written to BENCH_batch.json"),
            Err(e) => println!("warning: could not write BENCH_batch.json: {e}"),
        }
        println!("\nfleet: OK");
        return;
    }

    // Default: one quick fleet plus the checkpoint/resume self-check.
    let (row, out) = run_row(jobs.unwrap_or(10_000), nodes, seed, flags.threads);
    render_row(&row);
    println!("{}", FleetStats::from_outcome(&out).render_row("fleet/easy"));
    println!(
        "trace events {} | reservations {} | queue peak {}",
        out.trace_events,
        out.metrics.counter("batch.reservations"),
        out.metrics.gauge("batch.queue_depth_peak")
    );
    if flags.telemetry {
        println!("--- telemetry: fleet ---");
        println!("{}", telemetry::export::snapshot_summary(&out.metrics));
    }
    if let Err(e) = resume_self_check(2_000, nodes, seed) {
        eprintln!("fleet: resume self-check FAILED: {e}");
        std::process::exit(1);
    }
    println!("\nfleet: OK");
}
