//! The repository benchmark: two workloads over the HPCSched stack,
//! end-to-end metrics from untraced passes and per-layer metrics from
//! traced ones. See `README.md` beside this crate for the metric
//! definitions and how to run it.

pub mod batch;
pub mod paper;
pub mod span;
mod wrap;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use span::Span;

/// The seed every pinned fingerprint was captured with.
pub const DEFAULT_SEED: u64 = 2008;

/// End-to-end metrics (untraced runs), with units, in print order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_s_per_s", "s/s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs), with units, in print order. Every
/// value is per workload pass unless its name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("schedsim.kernel.run_s", "s"),
    ("schedsim.kernel.events", "count"),
    ("schedsim.kernel.ticks", "count"),
    ("schedsim.kernel.ns_per_event", "ns"),
    ("schedsim.kernel.context_switches", "count"),
    ("schedsim.kernel.allocs_per_event", "count"),
    ("schedsim.kernel.build_s", "s"),
    ("schedsim.balancer.calls", "count"),
    ("schedsim.balancer.s", "s"),
    ("schedsim.balancer.migrate_calls", "count"),
    ("schedsim.balancer.migrate_s", "s"),
    ("schedsim.observer.events", "count"),
    ("schedsim.observer.s", "s"),
    ("mpisim.messages", "count"),
    ("mpisim.bytes", "bytes"),
    ("workloads.spawn_s", "s"),
    ("tracefmt.stats_s", "s"),
    ("simverify.conformance_s", "s"),
    ("batchsim.arrivals_s", "s"),
    ("batchsim.engine_s", "s"),
    ("batchsim.trace_events", "count"),
    ("batchsim.engine.ns_per_event", "ns"),
    ("batchsim.engine.allocs_per_event", "count"),
    ("batchsim.reservations", "count"),
    ("batchsim.backfilled", "count"),
    ("batchsim.queue_peak", "count"),
    ("batchsim.render_s", "s"),
    ("batchsim.checkpoint.captures", "count"),
    ("batchsim.checkpoint.bytes", "bytes"),
    ("batchsim.checkpoint.encode_s", "s"),
    ("batchsim.checkpoint.decode_s", "s"),
    ("batchsim.checkpoint.resume_s", "s"),
    ("exec.pool.tasks", "count"),
    ("exec.pool.busy_s", "s"),
    ("exec.pool.efficiency", "ratio"),
    ("cluster.node_run_s", "s"),
    ("bench.traced_wall_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("experiments.paper_err_pp", "pp"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Paper,
    Batch,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Paper, Workload::Batch];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::Batch => "batch",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `Full` is the benchmark; `Smoke` shrinks every input for self-checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub size: Size,
    pub threads: usize,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, size: Size) -> Config {
        Config {
            workload,
            seed,
            size,
            // One simulator thread for every workload: on a host of few
            // shared cores a second worker makes each pass wait for
            // whichever core is contended, and the spread between runs
            // follows the neighbours rather than the program.
            threads: 1,
        }
    }

    /// Outputs are compared with pinned fingerprints only at the default
    /// seed and full size; elsewhere they are checked for completion and
    /// conformance.
    pub fn pinned(&self) -> bool {
        self.seed == DEFAULT_SEED && self.size == Size::Full
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// glibc's `cpu_set_t`: a bit mask over `MASK_CPUS` CPUs.
type CpuMask = [u64; MASK_CPUS / 64];
const MASK_CPUS: usize = 1024;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending; empty where unknown.
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; MASK_CPUS / 64];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } == 0;
    (0..MASK_CPUS)
        .filter(|&c| ok && mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Let the calling thread run only on `cpus`; whether that took effect.
fn set_affinity(cpus: &[usize]) -> bool {
    let mut mask: CpuMask = [0; MASK_CPUS / 64];
    for &c in cpus.iter().filter(|&&c| c < MASK_CPUS) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, and pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Per-layer figures read from a pass's outputs.
#[derive(Clone, Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub(crate) fn add(&mut self, key: &'static str, v: f64) {
        *self.0.entry(key).or_default() += v;
    }

    pub(crate) fn max(&mut self, key: &'static str, v: f64) {
        let e = self.0.entry(key).or_default();
        *e = e.max(v);
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    fn merge(&mut self, other: &Layers) {
        for (k, v) in &other.0 {
            self.add(k, *v);
        }
    }
}

/// What one pass over a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host seconds of each op, set-up excluded, in the same op order on
    /// every pass.
    pub op_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated seconds the pass advanced.
    pub sim_s: f64,
    /// Jobs completed (`paper`: application runs).
    pub jobs: u64,
    pub layers: Layers,
    /// Mean |measured − published| improvement over Baseline (`paper`).
    pub err_pp: Option<f64>,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.op_s.iter().sum()
    }
}

/// Run `f`, turning a panic into `None`.
pub(crate) fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Time `f` in host seconds; a panic yields `None`.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (f64, Option<T>) {
    let t = Instant::now();
    let out = guarded(f);
    (t.elapsed().as_secs_f64(), out)
}

/// One pass of `cfg`'s workload, calling `between` after each op.
pub fn run_pass(cfg: &Config, traced: bool, between: &mut dyn FnMut()) -> Pass {
    match cfg.workload {
        Workload::Paper => paper::pass(cfg, traced, between),
        Workload::Batch => batch::pass(cfg, between),
    }
}

fn setup_once(cfg: &Config) {
    match cfg.workload {
        Workload::Paper => paper::setup_once(cfg),
        Workload::Batch => batch::setup_once(cfg),
    }
}

fn verify(cfg: &Config) -> bool {
    match cfg.workload {
        Workload::Paper => true, // every cell is conformance-checked in its op
        Workload::Batch => batch::verify(cfg),
    }
}

/// How long set-up is sampled after each op of an untraced pass.
const SETUP_SLICE: Duration = Duration::from_millis(25);
/// Shortest stretch of repeated set-ups timed as one sample.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);

/// Set-up samples (seconds per set-up), taken back to back for `block`,
/// at least one. Each sample repeats set-up often enough to last
/// [`SETUP_SAMPLE`].
fn setup_samples(cfg: &Config, block: Duration) -> Vec<f64> {
    let t = Instant::now();
    setup_once(cfg);
    let once = t.elapsed().max(Duration::from_nanos(1));
    let reps = (SETUP_SAMPLE.as_nanos() / once.as_nanos()).clamp(1, 10_000) as u32;
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || started.elapsed() < block {
        let t = Instant::now();
        for _ in 0..reps {
            setup_once(cfg);
        }
        samples.push(t.elapsed().as_secs_f64() / f64::from(reps));
    }
    samples
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

fn minimum(v: &[f64]) -> f64 {
    v.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The highest quantile of `n` samples with at least ten samples beyond
/// it; the median when there are too few.
fn tail_quantile(n: usize) -> f64 {
    if n < 21 {
        0.5
    } else {
        (n - 11) as f64 / (n - 1) as f64
    }
}

/// The sum over ops of each op's fastest time across `passes`.
fn fastest_ops_s(passes: &[Pass]) -> f64 {
    let ops = passes.iter().map(|p| p.op_s.len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| minimum(&passes.iter().map(|p| p.op_s[i]).collect::<Vec<_>>()))
        .sum()
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// The commit of the checkout, read from `.git` in the working directory
/// (never above it); `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.into();
    };
    read(name)
        .map(|c| c.trim().to_owned())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A measured run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed beside the result.
    pub info: Vec<(&'static str, String)>,
}

/// Measure `cfg` for `seconds` on the calling thread. Untraced: passes
/// until the time is spent (at least one), with a slice of set-up samples
/// after every op. Traced: pairs of one untraced and one traced pass, as
/// many as fit in the time (at least one).
///
/// Each untraced op runs pinned to one of the thread's CPUs, the next CPU
/// for the next op and one further on each pass, so every op meets every
/// CPU. On a VM, a CPU slows for seconds at a time while its host core is
/// shared, and rarely both at once; an op's fastest pass then comes from
/// an uncontended CPU.
pub fn measure(cfg: &Config, seconds: f64, trace: bool) -> Outcome {
    let host = host_cpus();
    let cpus = allowed_cpus();
    let pin = |slot: usize| !cpus.is_empty() && set_affinity(&[cpus[slot % cpus.len()]]);
    let mut rotated = true;
    span::set_tracing(false);
    span::reset();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut setup = Vec::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    loop {
        let round = Instant::now();
        let mut slot = plain.len();
        rotated &= pin(slot);
        // Set-up is sampled in slices spread over the whole run, so that
        // its fastest sample, like each op's fastest pass, comes from a
        // quiet stretch of the host.
        let mut between = || {
            if !trace {
                setup.extend(setup_samples(cfg, SETUP_SLICE));
            }
            slot += 1;
            rotated &= pin(slot);
        };
        plain.push(run_pass(cfg, false, &mut between));
        if trace {
            span::set_tracing(true);
            traced.push(run_pass(cfg, true, &mut || {}));
            span::set_tracing(false);
            // Stop unless another pair fits in the budget.
            if started.elapsed() + round.elapsed() >= budget {
                break;
            }
        } else if started.elapsed() >= budget {
            break;
        }
    }
    set_affinity(&cpus);
    let verified = verify(cfg);

    let all: Vec<&Pass> = plain.iter().chain(&traced).collect();
    let attempted = all.iter().map(|p| p.attempted).sum::<u64>() + 1;
    let failed = all.iter().map(|p| p.failed).sum::<u64>() + u64::from(!verified);
    let ops: Vec<f64> = plain.iter().flat_map(|p| p.op_s.iter().copied()).collect();
    let tail_q = tail_quantile(ops.len());

    let mut info = vec![
        ("workload", format!("\"{}\"", cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("threads", cfg.threads.to_string()),
        ("host_cpus", host.to_string()),
        ("cpus", format!("{cpus:?}")),
        ("ops_rotated_over_cpus", rotated.to_string()),
        ("commit", format!("\"{}\"", git_commit())),
        ("traced", trace.to_string()),
        ("passes", plain.len().to_string()),
        ("op_samples", ops.len().to_string()),
        ("op_s_p50", median(&ops).to_string()),
        ("op_s_tail", quantile(&ops, tail_q).to_string()),
        ("op_tail_percentile", format!("{:.1}", 100.0 * tail_q)),
        ("setup_samples", setup.len().to_string()),
        ("conformance_verified", verified.to_string()),
        ("fail_ratio", (failed as f64 / attempted as f64).to_string()),
    ];
    if let Some(err) = plain.first().and_then(|p| p.err_pp) {
        info.push(("paper_err_pp", err.to_string()));
    }

    let metrics = if trace {
        let (metrics, extra) = per_layer(cfg, &plain, &traced);
        info.extend(extra);
        metrics
    } else {
        // Every pass runs the same ops on the same inputs, and the host's
        // interference only ever adds time, so each op counts with its
        // fastest pass, as does set-up with its fastest sample.
        let wall = fastest_ops_s(&plain);
        let per_pass = |f: fn(&Pass) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        info.push(("pass_wall_s_median", per_pass(Pass::wall_s).to_string()));
        vec![
            wall,
            per_pass(|p| p.sim_s) / wall,
            per_pass(|p| p.jobs as f64) / wall,
            peak_rss_mb(),
            minimum(&setup),
        ]
    };
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics = defs
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        info,
    }
}

/// Per-layer values in [`PER_LAYER`] order, each the mean over traced
/// passes, plus the sizing shares for the info line.
fn per_layer(
    cfg: &Config,
    plain: &[Pass],
    traced: &[Pass],
) -> (Vec<f64>, Vec<(&'static str, String)>) {
    let n = traced.len().max(1) as f64;
    let mut l = Layers::default();
    for p in traced {
        l.merge(&p.layers);
    }
    let s = span::stat;
    let per = |v: f64| v / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let threads = cfg.threads as f64;

    let kernel = s(Span::KernelRun);
    let events = l.get("schedsim.kernel.events");
    let engine = s(Span::Engine);
    let engine_s = (engine.self_s - l.get("engine.pool_busy_s") / threads).max(0.0);
    let trace_events = l.get("batchsim.trace_events");
    let busy = l.get("exec.pool.busy_s");
    let tasks = l.get("exec.pool.tasks");
    let traced_wall: f64 = traced.iter().map(Pass::wall_s).sum();
    let plain_wall = median(&plain.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let traced_median = median(&traced.iter().map(Pass::wall_s).collect::<Vec<_>>());
    let balancer = s(Span::Balancer);
    let migrate = s(Span::Migrate);
    let observer = s(Span::Observer);
    let values = vec![
        per(kernel.self_s),
        per(events),
        per(l.get("schedsim.kernel.ticks")),
        ratio(kernel.self_s * 1e9, events),
        per(l.get("schedsim.kernel.context_switches")),
        ratio(kernel.allocs as f64, events),
        per(s(Span::KernelBuild).total_s),
        per(balancer.calls as f64),
        per(balancer.total_s),
        per(migrate.calls as f64),
        per(migrate.total_s),
        per(observer.calls as f64),
        per(observer.total_s),
        per(l.get("mpisim.messages")),
        per(l.get("mpisim.bytes")),
        per(s(Span::Spawn).total_s),
        per(s(Span::Stats).total_s),
        per(s(Span::Conformance).total_s),
        per(s(Span::Arrivals).total_s),
        per(engine_s),
        per(trace_events),
        ratio(engine_s * 1e9, trace_events),
        ratio(engine.allocs as f64, trace_events),
        per(l.get("batchsim.reservations")),
        per(l.get("batchsim.backfilled")),
        per(l.get("batchsim.queue_peak")),
        per(s(Span::Render).total_s),
        per(l.get("batchsim.checkpoint.captures")),
        per(l.get("batchsim.checkpoint.bytes")),
        per(s(Span::Encode).total_s),
        per(s(Span::Decode).total_s),
        per(s(Span::Resume).total_s),
        per(tasks),
        per(busy),
        ratio(busy, traced_wall * threads),
        ratio(busy, tasks),
        per(traced_wall),
        traced_median - plain_wall,
        traced.first().and_then(|p| p.err_pp).unwrap_or(0.0),
    ];
    let share = |part: f64| format!("{:.4}", ratio(part, traced_wall));
    let extra = vec![
        ("traced_passes", traced.len().to_string()),
        ("trace_overhead_s", (traced_median - plain_wall).to_string()),
        ("kernel_self_share_of_traced_wall", share(kernel.self_s)),
        ("engine_share_of_traced_wall", share(engine_s)),
        ("pool_busy_share_of_traced_wall", share(busy)),
    ];
    (values, extra)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The context line printed before the result.
pub fn info_json(o: &Outcome) -> String {
    let fields: Vec<String> = o
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{\"info\": {{{}}}}}", fields.join(", "))
}
