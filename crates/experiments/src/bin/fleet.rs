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
//! * `--smoke` — the CI scale gate: a 100k-job stream run twice,
//!   requiring byte-identical trace fingerprints;
//! * `--scale` — the full trajectory: 10k/100k/1M jobs, each run three
//!   times in a fresh child process (so `VmHWM` is that run's own
//!   high-water mark, not an earlier row's); the run with the median wall
//!   time becomes the scale's row, upserted into `BENCH_batch.json`;
//! * `--scale-row` — internal: run one row in this process and print it
//!   as a single JSON line (spawned by `--scale`);
//! * `--check-bench` — validate the committed `fleet` section: exactly one
//!   row per scale, with positive throughput and RSS figures;
//! * `--jobs N` / `--nodes N` / `--seed N` — overrides.
//!
//! A fleet runs EASY over uniform nodes without faults, so `--faults`,
//! `--policy` and `--topology`, which would change nothing, are usage
//! errors (exit 2).

use std::time::Instant;

use batchsim::{resume_batch, run_fleet, run_fleet_until, scaled_config, BatchOutcome, FleetStats};
use experiments::benchfile;
use experiments::cli::{BinFlag, CliFlags};
use experiments::json::Json;

/// The scale trajectory `--scale` measures and `--check-bench` requires.
const SCALES: [u64; 3] = [10_000, 100_000, 1_000_000];

/// Child runs `--scale` makes per row; the row is the run with the
/// median wall time.
const RUNS_PER_ROW: usize = 3;

/// One row of the `fleet` section of `BENCH_batch.json`. `wall_secs`,
/// `jobs_per_wall_sec` and `peak_rss_bytes` are host measurements; every
/// other field is deterministic.
struct FleetBenchRow {
    jobs: u64,
    nodes: u64,
    discipline: String,
    seed: u64,
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

impl FleetBenchRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", self.jobs.into()),
            ("nodes", self.nodes.into()),
            ("discipline", self.discipline.as_str().into()),
            ("seed", self.seed.into()),
            ("completed", self.completed.into()),
            ("degraded", self.degraded.into()),
            ("makespan_sim_secs", self.makespan_sim_secs.into()),
            ("jobs_per_sim_sec", self.jobs_per_sim_sec.into()),
            ("wall_secs", self.wall_secs.into()),
            ("jobs_per_wall_sec", self.jobs_per_wall_sec.into()),
            ("peak_rss_bytes", self.peak_rss_bytes.into()),
            ("trace_hash", self.trace_hash.as_str().into()),
        ])
    }

    fn from_json(v: &Json) -> Result<FleetBenchRow, String> {
        fn num<T: std::str::FromStr>(v: &Json, key: &str) -> Result<T, String> {
            v.get(key).and_then(Json::num).ok_or_else(|| format!("row has no number `{key}`"))
        }
        let text = |key: &str| {
            let s = v.get(key).and_then(Json::as_str);
            s.map(str::to_string).ok_or_else(|| format!("row has no string `{key}`"))
        };
        Ok(FleetBenchRow {
            jobs: num(v, "jobs")?,
            nodes: num(v, "nodes")?,
            discipline: text("discipline")?,
            seed: num(v, "seed")?,
            completed: num(v, "completed")?,
            degraded: num(v, "degraded")?,
            makespan_sim_secs: num(v, "makespan_sim_secs")?,
            jobs_per_sim_sec: num(v, "jobs_per_sim_sec")?,
            wall_secs: num(v, "wall_secs")?,
            jobs_per_wall_sec: num(v, "jobs_per_wall_sec")?,
            peak_rss_bytes: num(v, "peak_rss_bytes")?,
            trace_hash: text("trace_hash")?,
        })
    }
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

fn run_row(jobs: u64, nodes: usize, seed: u64) -> (FleetBenchRow, BatchOutcome) {
    let cfg = scaled_config(jobs, nodes, seed);
    let t0 = Instant::now();
    let out = run_fleet(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let row = FleetBenchRow {
        jobs,
        nodes: nodes as u64,
        discipline: cfg.batch.discipline.label().to_string(),
        seed,
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
        "fleet {:>9} jobs x {:>4} nodes | done {:>9} degr {:>3} | {:>10.1} jobs/sim-s \
         {:>9.0} jobs/wall-s | rss {:>7.1} MiB | hash {}",
        r.jobs,
        r.nodes,
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
fn spawn_row(jobs: u64, nodes: usize, seed: u64) -> Result<FleetBenchRow, String> {
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
        ])
        .output()
        .map_err(|e| format!("spawn --scale-row: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "--scale-row jobs={jobs} exited {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("--scale-row jobs={jobs}: no JSON row on stdout"))?;
    Json::parse(line.as_bytes())
        .map_err(|e| e.to_string())
        .and_then(|v| FleetBenchRow::from_json(&v))
        .map_err(|e| format!("--scale-row jobs={jobs}: bad row: {e}"))
}

/// One `--scale` row: [`RUNS_PER_ROW`] child runs, which must agree on
/// the trace fingerprint; the row is the run with the median wall time,
/// with that run's own throughput and peak RSS.
fn median_row(jobs: u64, nodes: usize, seed: u64) -> Result<FleetBenchRow, String> {
    let mut runs = (0..RUNS_PER_ROW)
        .map(|_| spawn_row(jobs, nodes, seed))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(r) = runs.iter().find(|r| r.trace_hash != runs[0].trace_hash) {
        return Err(format!(
            "--scale-row jobs={jobs}: reruns disagree, trace hash {} vs {}",
            r.trace_hash, runs[0].trace_hash
        ));
    }
    runs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    Ok(runs.swap_remove(RUNS_PER_ROW / 2))
}

/// Schema/consistency check over the committed `fleet` rows — the CI
/// guard that the baseline actually records the trajectory.
fn check_bench() -> Result<(), String> {
    let section = benchfile::read_section("BENCH_batch.json", "fleet")
        .map_err(|e| e.to_string())?
        .ok_or("BENCH_batch.json has no fleet section")?;
    let rows = section
        .as_arr()
        .ok_or("the fleet section is not an array")?
        .iter()
        .map(FleetBenchRow::from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let scales: Vec<u64> = rows.iter().map(|r| r.jobs).collect();
    if scales != SCALES {
        return Err(format!("fleet rows at {scales:?} jobs; want one row per scale {SCALES:?}"));
    }
    for r in &rows {
        let jobs = r.jobs;
        if r.jobs_per_sim_sec <= 0.0 {
            return Err(format!("{jobs} jobs: jobs_per_sim_sec not positive"));
        }
        if r.peak_rss_bytes == 0 {
            return Err(format!("{jobs} jobs: peak_rss_bytes missing"));
        }
        if r.nodes < 1000 {
            return Err(format!("{jobs} jobs: fewer than 1000 nodes"));
        }
        if r.trace_hash.len() != 16 || !r.trace_hash.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("{jobs} jobs: malformed trace_hash"));
        }
    }
    println!("check-bench: {} fleet rows, scales {:?}", rows.len(), SCALES);
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

/// The flags `fleet` reads besides the standard ones.
const FLAGS: [BinFlag; 7] = [
    BinFlag::Value("--seed"),
    BinFlag::Value("--nodes"),
    BinFlag::Value("--jobs"),
    BinFlag::Switch("--scale-row"),
    BinFlag::Switch("--check-bench"),
    BinFlag::Switch("--smoke"),
    BinFlag::Switch("--scale"),
];

fn main() {
    let flags = CliFlags::from_env_with(&FLAGS);
    if let Err(e) = flags.reject_run_flags("fleet") {
        eprintln!("{e}");
        std::process::exit(2);
    }
    flags.note_no_kernel();
    let seed = flags.int("--seed").unwrap_or(2008);
    let nodes = flags.int("--nodes").unwrap_or(1000);
    let jobs = flags.int::<u64>("--jobs");

    if flags.switch("--scale-row") {
        let jobs = jobs.unwrap_or(10_000);
        let (row, _) = run_row(jobs, nodes, seed);
        println!("{}", row.to_json().to_compact());
        return;
    }

    if flags.switch("--check-bench") {
        if let Err(e) = check_bench() {
            eprintln!("fleet: check-bench FAILED: {e}");
            std::process::exit(1);
        }
        println!("\nfleet: OK");
        return;
    }

    if flags.switch("--smoke") {
        let jobs = jobs.unwrap_or(100_000);
        println!("== fleet smoke: {jobs} jobs x {nodes} nodes, run twice ==");
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let (row, _) = run_row(jobs, nodes, seed);
            render_row(&row);
            hashes.push(row.trace_hash);
        }
        if hashes[0] != hashes[1] {
            eprintln!("fleet: smoke FAILED: rerun {} != first run {}", hashes[1], hashes[0]);
            std::process::exit(1);
        }
        println!("both runs' fingerprints identical: {}", hashes[0]);
        println!("\nfleet: OK");
        return;
    }

    if flags.switch("--scale") {
        println!("== fleet scale trajectory: {SCALES:?} jobs x {nodes} nodes ==");
        let mut rows = Vec::new();
        for jobs in SCALES {
            match median_row(jobs, nodes, seed) {
                Ok(row) => {
                    render_row(&row);
                    rows.push(row);
                }
                Err(e) => {
                    eprintln!("fleet: {e}");
                    eprintln!("fleet: FAILED");
                    std::process::exit(1);
                }
            }
        }
        let section = Json::Arr(rows.iter().map(FleetBenchRow::to_json).collect());
        if let Err(e) = benchfile::upsert("BENCH_batch.json", vec![("fleet", section)]) {
            eprintln!("fleet: could not write the baseline: {e}");
            eprintln!("fleet: FAILED");
            std::process::exit(1);
        }
        println!("fleet trajectory written to BENCH_batch.json");
        println!("\nfleet: OK");
        return;
    }

    // Default: one quick fleet plus the checkpoint/resume self-check.
    let (row, out) = run_row(jobs.unwrap_or(10_000), nodes, seed);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CliFlags {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        CliFlags::parse_with(&args, &FLAGS).expect("known flags")
    }

    #[test]
    fn the_run_flags_a_fleet_ignores_are_rejected() {
        let plain = parse(&["--seed", "7", "--jobs", "500", "--telemetry"]);
        assert_eq!(plain.reject_run_flags("fleet"), Ok(()));
        for (args, flag) in [
            (&["--policy", "gss", "--jobs", "500"][..], "--policy"),
            (&["--topology", "numa"], "--topology"),
            (&["--faults", "seed=7; slow:rank=1,at=100ms,factor=0.5"], "--faults"),
        ] {
            let err = parse(args).reject_run_flags("fleet").unwrap_err();
            assert!(err.starts_with("fleet: ") && err.contains(flag), "{args:?}: {err}");
        }
    }
}
