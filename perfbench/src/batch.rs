//! The `batch` workload: the 200-job heavy/light study on the default
//! 4-node HPC fleet under FCFS, SJF and EASY, plus one EASY run
//! checkpointed at a fixed event cadence whose middle image is encoded,
//! decoded and resumed.
//!
//! Each discipline is one op (`run_batch` + `render_trace`); the
//! checkpoint cycle is a fourth op. The resumed trace must equal the
//! uninterrupted EASY trace of the same pass.

use batchsim::{
    heavy_light_mix, resume_batch, run_batch, run_batch_checkpointed, text_fnv1a, BatchCheckpoint,
    BatchConfig, BatchJob, BatchOutcome, CheckpointPolicy, Discipline,
};

use crate::span::{self, Span};
use crate::{guarded, timed, Config, Pass, Size, DEFAULT_SEED};

/// `batch/{fcfs,sjf,easy}` in `TRACE_baseline.txt`: rendered-trace
/// FNV-1a at the default seed and full size.
const PINS: [(Discipline, u64); 3] = [
    (Discipline::Fcfs, 0xd8c3_d705_e41f_7756),
    (Discipline::Sjf, 0xc30a_8c64_7c4d_f502),
    (Discipline::Easy, 0xf5fa_b4e2_c846_f5ad),
];

fn jobs(size: Size) -> usize {
    match size {
        Size::Full => 200,
        Size::Smoke => 30,
    }
}

/// Set-up: generate the arrival stream. The job population is always the
/// default seed's heavy/light mix; the seed draws the arrival times (the
/// mix's own Poisson process under that seed), stretched so the last job
/// arrives when the default seed's does. Node-kernel work and offered load
/// are then the same for every seed, while queueing, backfill and the
/// traces differ. At the default seed this is exactly
/// `heavy_light_mix(2008)`.
pub fn stream(cfg: &Config) -> Vec<BatchJob> {
    let n = jobs(cfg.size);
    let mut population = heavy_light_mix(DEFAULT_SEED, n);
    let timing = heavy_light_mix(cfg.seed, n);
    let last = |jobs: &[BatchJob]| jobs.last().map_or(1.0, |j| j.arrival);
    let stretch = last(&population) / last(&timing);
    for (job, t) in population.iter_mut().zip(&timing) {
        job.arrival = t.arrival * stretch;
    }
    population
}

fn batch_config(cfg: &Config, discipline: Discipline) -> BatchConfig {
    BatchConfig {
        discipline,
        seed: cfg.seed,
        threads: cfg.threads,
        ..BatchConfig::default()
    }
}

fn completed(out: &BatchOutcome) -> u64 {
    out.metrics.counter("batch.jobs.completed")
}

fn all_completed(out: &BatchOutcome) -> bool {
    let m = &out.metrics;
    completed(out) == m.counter("batch.jobs.submitted") && m.counter("batch.jobs.degraded") == 0
}

/// Fold an engine run's counts into the pass's layer figures.
fn account(p: &mut Pass, out: &BatchOutcome, engine: bool) {
    let l = &mut p.layers;
    let busy = out.pool_metrics.counter("exec.pool.busy_ns") as f64 / 1e9;
    l.add(
        "exec.pool.tasks",
        out.pool_metrics.counter("exec.pool.tasks") as f64,
    );
    l.add("exec.pool.busy_s", busy);
    if engine {
        l.add("engine.pool_busy_s", busy);
        l.add("batchsim.trace_events", out.events.len() as f64);
        l.add("batchsim.reservations", out.reservations.len() as f64);
        l.add(
            "batchsim.backfilled",
            out.metrics.counter("batch.jobs.backfilled") as f64,
        );
        l.max(
            "batchsim.queue_peak",
            out.metrics.gauge("batch.queue_depth_peak") as f64,
        );
    }
}

/// The checkpoint op's products.
struct Cycle {
    out: BatchOutcome,
    captures: usize,
    bytes: usize,
    resumed_hash: Option<u64>,
    resumed: Option<BatchOutcome>,
}

/// Checkpoint cadence of the checkpointed EASY run: one image every
/// `jobs / 2` trace events (every 100 at full size, about six images).
fn checkpoint_cycle(jobs: &[BatchJob], cfg: &BatchConfig) -> Cycle {
    let policy = CheckpointPolicy {
        every_events: Some(jobs.len() / 2),
        every_jobs: None,
    };
    let mut images = Vec::new();
    let mut bytes = 0;
    let out = span::time(Span::Engine, || {
        run_batch_checkpointed(jobs, cfg, None, &policy, |ckpt| {
            let encoded = span::time(Span::Encode, || ckpt.encode());
            bytes += encoded.len();
            images.push(span::time(Span::Decode, || {
                BatchCheckpoint::decode(&encoded)
            }));
        })
    });
    let captures = images.len();
    // Any image that fails to decode fails the op: nothing is resumed.
    let middle = images
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .ok()
        .and_then(|images| images.into_iter().nth(captures / 2));
    let resumed = middle.map(|image| span::time(Span::Resume, || resume_batch(&image)));
    let resumed_hash = resumed
        .as_ref()
        .map(|r| text_fnv1a(&span::time(Span::Render, || r.render_trace())));
    Cycle {
        out,
        captures,
        bytes,
        resumed_hash,
        resumed,
    }
}

/// One set-up sample.
pub(crate) fn setup_once(cfg: &Config) {
    std::hint::black_box(stream(cfg));
}

/// One pass: three discipline studies and the checkpoint cycle, calling
/// `between` after each.
pub(crate) fn pass(cfg: &Config, between: &mut dyn FnMut()) -> Pass {
    let mut p = Pass::default();
    let Some(jobs) = guarded(|| span::time(Span::Arrivals, || stream(cfg))) else {
        p.attempted += 1;
        p.failed += 1;
        return p;
    };
    let mut easy_hash = None;
    for (discipline, pin) in PINS {
        let bc = batch_config(cfg, discipline);
        let (secs, run) = timed(|| {
            let out = span::time(Span::Engine, || run_batch(&jobs, &bc, None));
            let text = span::time(Span::Render, || out.render_trace());
            (text_fnv1a(&text), out)
        });
        between();
        p.attempted += 1;
        p.op_s.push(secs);
        let Some((hash, out)) = run else {
            p.failed += 1;
            continue;
        };
        let ok = all_completed(&out) && (!cfg.pinned() || hash == pin);
        if !ok {
            eprintln!(
                "batch/{}: check failed (trace hash {hash:016x})",
                discipline.label()
            );
            p.failed += 1;
        }
        if discipline == Discipline::Easy {
            easy_hash = Some(hash);
        }
        p.sim_s += out.makespan;
        p.jobs += completed(&out);
        account(&mut p, &out, true);
    }

    let bc = batch_config(cfg, Discipline::Easy);
    let (secs, cycle) = timed(|| checkpoint_cycle(&jobs, &bc));
    between();
    p.attempted += 1;
    p.op_s.push(secs);
    match cycle {
        Some(c) if c.resumed_hash.is_some() && c.resumed_hash == easy_hash => {
            if !all_completed(&c.out) {
                eprintln!("batch/checkpoint: jobs lost in the checkpointed run");
                p.failed += 1;
            }
            p.sim_s += c.out.makespan;
            p.jobs += completed(&c.out);
            account(&mut p, &c.out, true);
            if let Some(r) = &c.resumed {
                account(&mut p, r, false);
            }
            p.layers
                .add("batchsim.checkpoint.captures", c.captures as f64);
            p.layers.add("batchsim.checkpoint.bytes", c.bytes as f64);
        }
        other => {
            eprintln!(
                "batch/checkpoint: resumed trace {:016x?} != uninterrupted {easy_hash:016x?}",
                other.and_then(|c| c.resumed_hash)
            );
            p.failed += 1;
        }
    }
    p
}

/// Conformance of every node kernel of the EASY study (`verify_jobs`),
/// checked once per run outside the timed passes.
pub(crate) fn verify(cfg: &Config) -> bool {
    let bc = BatchConfig {
        verify_jobs: true,
        ..batch_config(cfg, Discipline::Easy)
    };
    guarded(|| {
        let out = run_batch(&stream(cfg), &bc, None);
        out.conformance_clean() && !out.conformance.is_empty() && all_completed(&out)
    })
    .unwrap_or(false)
}
