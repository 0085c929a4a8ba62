//! The `paper` workload: the four applications of the paper's evaluation
//! (MetBench, MetBenchVar, BT-MZ, SIESTA) at full size, in every mode the
//! paper tabulates — 15 cells, run one at a time on one thread.
//!
//! A cell is built and driven through the same public calls as
//! `experiments::runner::run`. Under tracing, the registry policy is built
//! inside a [`TimedBalancer`] and the trace sink sits behind a
//! [`TimedObserver`]; both forward every call unchanged.

use std::hint::black_box;

use batchsim::sim::{FNV_BASIS, FNV_PRIME};
use experiments::paper::{self as published, PaperRow};
use experiments::{ExperimentMode, WorkloadKind};
use mpisim::Mpi;
use power5::HwPriority;
use schedsim::{Kernel, KernelBuilder, SchedError, SharedSink, TaskId, TraceRecord};
use simcore::SimDuration;
use simverify::conformance::{self, CheckConfig};
use tracefmt::{AppStats, Timeline};
use workloads::btmz::BtMzConfig;
use workloads::metbench::MetBenchConfig;
use workloads::metbenchvar::MetBenchVarConfig;
use workloads::siesta::SiestaConfig;
use workloads::SchedulerSetup;

use crate::span::{self, Span};
use crate::wrap::{TimedBalancer, TimedObserver};
use crate::{guarded, timed, Config, Pass, Size};

const ALL_MODES: &[ExperimentMode] = &ExperimentMode::ALL;
const NO_STATIC: &[ExperimentMode] = &[
    ExperimentMode::Baseline,
    ExperimentMode::Uniform,
    ExperimentMode::Adaptive,
];

/// Trace fingerprints of every cell at the default seed and full size
/// ([`trace_fingerprint`]).
const PINS: &[(&str, &str, u64)] = &[
    ("metbench", "Baseline", 0x3615_e02b_f022_a83e),
    ("metbench", "Static", 0x0ad2_bf9a_6d9b_bf66),
    ("metbench", "Uniform", 0x109b_51cf_a6c6_7543),
    ("metbench", "Adaptive", 0x199c_ccc8_a9b8_1286),
    ("metbenchvar", "Baseline", 0x189d_7e39_1e3f_d441),
    ("metbenchvar", "Static", 0xf723_1c3a_71ef_8cb9),
    ("metbenchvar", "Uniform", 0x2cd3_3f59_cf09_11f0),
    ("metbenchvar", "Adaptive", 0xda91_df63_4420_85ba),
    ("btmz", "Baseline", 0xcb11_7ab0_0d58_44ef),
    ("btmz", "Static", 0xa012_409b_2c86_b482),
    ("btmz", "Uniform", 0x288d_3d2b_ccf5_ad02),
    ("btmz", "Adaptive", 0x288d_3d2b_ccf5_ad02),
    ("siesta", "Baseline", 0x7cbc_e1a9_0c70_6ff2),
    ("siesta", "Uniform", 0xe54a_ce18_7e0e_8556),
    ("siesta", "Adaptive", 0xcd09_41cf_eaa4_25eb),
];

/// One application with the modes the paper tabulates for it.
pub struct App {
    pub slug: &'static str,
    pub kind: WorkloadKind,
    pub modes: &'static [ExperimentMode],
    pub table: &'static [PaperRow],
}

/// The four applications; `Smoke` shortens every run to a few iterations.
pub fn apps(size: Size) -> Vec<App> {
    let mut metbench = MetBenchConfig::default();
    let mut metbenchvar = MetBenchVarConfig::default();
    let mut btmz = BtMzConfig::default();
    let mut siesta = SiestaConfig::default();
    if size == Size::Smoke {
        metbench.iterations = 3;
        metbenchvar.base.iterations = 3;
        btmz.iterations = 10;
        siesta.iterations = 2;
    }
    vec![
        App {
            slug: "metbench",
            kind: WorkloadKind::MetBench(metbench),
            modes: ALL_MODES,
            table: published::METBENCH,
        },
        App {
            slug: "metbenchvar",
            kind: WorkloadKind::MetBenchVar(metbenchvar),
            modes: ALL_MODES,
            table: published::METBENCHVAR,
        },
        App {
            slug: "btmz",
            kind: WorkloadKind::BtMz(btmz),
            modes: ALL_MODES,
            table: published::BTMZ,
        },
        App {
            slug: "siesta",
            kind: WorkloadKind::Siesta(siesta),
            modes: NO_STATIC,
            table: published::SIESTA,
        },
    ]
}

fn pin(slug: &str, mode: ExperimentMode) -> Option<u64> {
    PINS.iter()
        .find(|(s, m, _)| *s == slug && *m == mode.label())
        .map(|p| p.2)
}

/// A kernel with the cell's application spawned, ready to run.
struct Cell {
    kernel: Kernel,
    sink: SharedSink,
    ranks: Vec<TaskId>,
    all: Vec<TaskId>,
    mpi: Mpi,
}

/// What a finished cell hands back for checking and accounting.
pub struct CellRun {
    pub exec_secs: Option<f64>,
    pub records: Vec<TraceRecord>,
    pub conformance_clean: bool,
    pub events: u64,
    pub ticks: u64,
    pub context_switches: u64,
    pub messages: u64,
    pub bytes: u64,
}

fn setup_for(kind: &WorkloadKind, mode: ExperimentMode) -> SchedulerSetup {
    match mode {
        ExperimentMode::Baseline => SchedulerSetup::Baseline,
        ExperimentMode::Static => SchedulerSetup::Static(match kind {
            WorkloadKind::MetBench(c) => c.static_priorities(),
            WorkloadKind::MetBenchVar(c) => c.base.static_priorities(),
            WorkloadKind::BtMz(c) => c.static_priorities(),
            WorkloadKind::Siesta(c) => vec![HwPriority::MEDIUM; c.ranks()],
        }),
        _ => SchedulerSetup::Hpc,
    }
}

/// Set-up: build the kernel and spawn the application.
fn build(
    kind: &WorkloadKind,
    mode: ExperimentMode,
    seed: u64,
    traced: bool,
) -> Result<Cell, SchedError> {
    let builder = KernelBuilder::new().noise(kind.noise()).seed(seed);
    let mut kernel = span::time(Span::KernelBuild, || match mode.policy_name() {
        None => builder.without_hpc_class().try_build(),
        Some(name) if traced => {
            let balancer = TimedBalancer::for_builder(&builder, name)?;
            builder.balancer(Box::new(balancer)).try_build()
        }
        Some(name) => builder.policy(name).try_build(),
    })?;
    let sink = SharedSink::new();
    if traced {
        kernel.observe(Box::new(TimedObserver {
            inner: sink.clone(),
        }));
    } else {
        kernel.observe(Box::new(sink.clone()));
    }
    let setup = setup_for(kind, mode);
    let (ranks, all, mpi) = span::time(Span::Spawn, || match kind {
        WorkloadKind::MetBench(c) => {
            let (workers, master, mpi) =
                workloads::metbench::spawn_faulted(&mut kernel, c, &setup, None);
            let mut all = workers.clone();
            all.push(master);
            (workers, all, mpi)
        }
        WorkloadKind::MetBenchVar(c) => {
            let (workers, master, mpi) =
                workloads::metbenchvar::spawn_faulted(&mut kernel, c, &setup, None);
            let mut all = workers.clone();
            all.push(master);
            (workers, all, mpi)
        }
        WorkloadKind::BtMz(c) => {
            let (ranks, mpi) = workloads::btmz::spawn_faulted(&mut kernel, c, &setup, None);
            (ranks.clone(), ranks, mpi)
        }
        WorkloadKind::Siesta(c) => {
            let (ranks, mpi) = workloads::siesta::spawn_faulted(&mut kernel, c, &setup, None);
            (ranks.clone(), ranks, mpi)
        }
    });
    Ok(Cell {
        kernel,
        sink,
        ranks,
        all,
        mpi,
    })
}

impl Cell {
    /// The measured op: simulate to completion, then derive the paper's
    /// per-rank statistics and the conformance verdict, as the runner does.
    pub fn run(mut self) -> CellRun {
        let deadline = SimDuration::from_secs(3_600);
        let end = span::time(Span::KernelRun, || {
            self.kernel.run_until_exited(&self.all, deadline)
        });
        let records = self.sink.snapshot();
        let stats = span::time(Span::Stats, || {
            let timeline = Timeline::from_records(&records).filter_tasks(&self.ranks);
            AppStats::for_tasks(&timeline, &self.ranks)
        });
        black_box(&stats);
        let metrics = self.kernel.metrics_registry().snapshot();
        let report = span::time(Span::Conformance, || {
            conformance::check_with_metrics(&records, &metrics, &CheckConfig::default())
        });
        CellRun {
            exec_secs: end.map(|t| t.as_secs_f64()),
            conformance_clean: report.is_clean(),
            events: metrics.counter("sim.events.processed"),
            ticks: metrics.counter("kernel.ticks"),
            context_switches: metrics.counter("kernel.context_switches"),
            messages: self.mpi.messages_sent(),
            bytes: self.mpi.bytes_sent(),
            records,
        }
    }
}

/// FNV-1a over the Debug rendering of every record, one per line: what
/// `text_fnv1a` gives for the whole rendering, folded line by line so the
/// rendering is never held at once.
pub fn trace_fingerprint(records: &[TraceRecord]) -> u64 {
    let mut text = String::new();
    let mut hash = FNV_BASIS;
    for rec in records {
        use std::fmt::Write;
        text.clear();
        let _ = writeln!(text, "{rec:?}");
        for b in text.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

/// Run one cell end to end (set-up, then the op) outside any timing; the
/// self-checks compare traced and untraced cells with it.
pub fn run_cell(kind: &WorkloadKind, mode: ExperimentMode, seed: u64, traced: bool) -> CellRun {
    build(kind, mode, seed, traced)
        .expect("paper cells are valid configurations")
        .run()
}

/// Set up every cell once and drop it: one `setup_s` sample.
pub(crate) fn setup_once(cfg: &Config) {
    for app in apps(cfg.size) {
        for &mode in app.modes {
            black_box(build(&app.kind, mode, cfg.seed, false).ok());
        }
    }
}

/// One pass over the 15 cells, calling `between` after each.
pub(crate) fn pass(cfg: &Config, traced: bool, between: &mut dyn FnMut()) -> Pass {
    let mut p = Pass::default();
    let mut errs = Vec::new();
    for app in apps(cfg.size) {
        let mut baseline = None;
        for &mode in app.modes {
            let cell = match guarded(|| build(&app.kind, mode, cfg.seed, traced)) {
                Some(Ok(cell)) => cell,
                _ => {
                    eprintln!("paper {}/{}: set-up failed", app.slug, mode.label());
                    p.attempted += 1;
                    p.failed += 1;
                    continue;
                }
            };
            let (secs, out) = timed(|| cell.run());
            between();
            p.attempted += 1;
            p.op_s.push(secs);
            let Some(out) = out else {
                p.failed += 1;
                continue;
            };
            let hash = trace_fingerprint(&out.records);
            let pinned = cfg.pinned().then(|| pin(app.slug, mode)).flatten();
            let ok = out.exec_secs.is_some()
                && out.conformance_clean
                && pinned.is_none_or(|want| want == hash);
            if !ok {
                eprintln!(
                    "paper {}/{}: check failed (finished {}, conformance clean {}, \
                     fingerprint {hash:016x}, pinned {pinned:016x?})",
                    app.slug,
                    mode.label(),
                    out.exec_secs.is_some(),
                    out.conformance_clean,
                );
                p.failed += 1;
            }
            let exec = out.exec_secs.unwrap_or(0.0);
            p.sim_s += exec;
            p.jobs += u64::from(out.exec_secs.is_some());
            p.layers.add("schedsim.kernel.events", out.events as f64);
            p.layers.add("schedsim.kernel.ticks", out.ticks as f64);
            p.layers.add(
                "schedsim.kernel.context_switches",
                out.context_switches as f64,
            );
            p.layers.add("mpisim.messages", out.messages as f64);
            p.layers.add("mpisim.bytes", out.bytes as f64);
            if mode == ExperimentMode::Baseline {
                baseline = Some(exec);
            } else if let (Some(base), Some(want)) = (
                baseline,
                published::paper_improvement(app.table, mode.label()),
            ) {
                errs.push((100.0 * (base - exec) / base - want).abs());
            }
        }
    }
    if !errs.is_empty() {
        p.err_pp = Some(errs.iter().sum::<f64>() / errs.len() as f64);
    }
    p
}
