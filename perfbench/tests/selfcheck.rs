//! Self-checks of the benchmark: its printed metrics match
//! `BENCHMARK.json`, every workload runs at smoke size, the seed changes
//! the generated inputs, tracing is byte-transparent, and allocation
//! counts repeat exactly.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use experiments::ExperimentMode;
use perfbench::span::{self, CountingAlloc, Span};
use perfbench::{
    batch, measure, paper, result_json, Config, Size, Workload, DEFAULT_SEED, END_TO_END, PER_LAYER,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Span accumulators and the tracing switch are process-wide, so every
/// test that runs simulated work takes this lock: no test's spans or
/// allocations land in another's counts.
static MEASURING: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(|p| p.into_inner())
}

fn smoke(workload: Workload, seed: u64) -> Config {
    Config::new(workload, seed, Size::Smoke)
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{list}\""))
        .expect("metric list present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("list closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("field present");
        entry[at..]
            .split('"')
            .nth(3)
            .expect("string value")
            .to_owned()
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn metric_lists_match_benchmark_json() {
    assert_eq!(pairs(END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(PER_LAYER), declared("per_layer"));
}

#[test]
fn every_workload_runs_at_smoke_size_and_prints_the_declared_metrics() {
    let _guard = lock();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let started = Instant::now();
            let out = measure(&smoke(workload, DEFAULT_SEED), 0.0, trace);
            let took = started.elapsed();
            assert!(out.correct, "{workload:?} trace={trace}: {out:?}");
            assert!(out.attempted >= 2 && out.failed == 0);
            assert!(
                took < Duration::from_secs(60),
                "{workload:?} smoke took {took:?}"
            );
            let printed: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|(n, _, u)| (n.to_string(), u.to_string()))
                .collect();
            let want = if trace {
                declared("per_layer")
            } else {
                declared("end_to_end")
            };
            assert_eq!(printed, want, "{workload:?} trace={trace}");
            let line = result_json(&out);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            for (name, _) in &want {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name} in {line}"
                );
            }
            if !trace {
                for (name, value, _) in &out.metrics {
                    assert!(*value > 0.0, "{workload:?}: end-to-end {name} is {value}");
                }
            }
        }
    }
}

#[test]
fn the_seed_changes_the_generated_inputs() {
    let _guard = lock();
    let (a, b) = (
        smoke(Workload::Batch, DEFAULT_SEED),
        smoke(Workload::Batch, 7),
    );
    let arrivals = |c: &Config| {
        batch::stream(c)
            .iter()
            .map(|j| j.arrival)
            .collect::<Vec<_>>()
    };
    assert_ne!(arrivals(&a), arrivals(&b));
    assert_eq!(
        arrivals(&b),
        arrivals(&smoke(Workload::Batch, 7)),
        "same seed, same inputs"
    );

    // Paper cells take the seed as the kernel seed, which drives SIESTA's
    // OS noise.
    let app = paper::apps(Size::Smoke)
        .pop()
        .expect("SIESTA is the last app");
    let mode = ExperimentMode::Baseline;
    let run =
        |seed| paper::trace_fingerprint(&paper::run_cell(&app.kind, mode, seed, false).records);
    assert_ne!(run(DEFAULT_SEED), run(7));
}

#[test]
fn default_seed_inputs_are_the_pinned_ones() {
    let _guard = lock();
    let full = Config::new(Workload::Batch, DEFAULT_SEED, Size::Full);
    let render = |jobs: Vec<batchsim::BatchJob>| format!("{jobs:?}");
    assert_eq!(
        render(batch::stream(&full)),
        render(batchsim::heavy_light_mix(2008, 200))
    );
}

#[test]
fn traced_cells_are_byte_identical_to_untraced_and_to_the_runner() {
    let _guard = lock();
    span::set_tracing(true);
    let mut apps = paper::apps(Size::Smoke);
    // One full-size cell too: MetBench under the dynamic balancer.
    apps.extend(paper::apps(Size::Full).into_iter().take(1).map(|mut a| {
        a.modes = &[ExperimentMode::Uniform];
        a
    }));
    for app in &apps {
        for &mode in app.modes {
            let traced = paper::run_cell(&app.kind, mode, DEFAULT_SEED, true);
            let plain = paper::run_cell(&app.kind, mode, DEFAULT_SEED, false);
            let runner = experiments::runner::run(&app.kind, mode, DEFAULT_SEED);
            let fp = paper::trace_fingerprint;
            assert_eq!(
                fp(&traced.records),
                fp(&plain.records),
                "{} {mode:?}",
                app.slug
            );
            assert_eq!(
                fp(&plain.records),
                fp(&runner.records),
                "{} {mode:?}",
                app.slug
            );
            assert_eq!(plain.exec_secs, Some(runner.exec_secs));
        }
    }
    span::set_tracing(false);
    assert!(
        span::stat(Span::Observer).calls > 0,
        "the timed observer saw events"
    );
    assert!(
        span::stat(Span::Balancer).calls > 0,
        "the timed balancer was called"
    );
}

/// Allocations and bytes attributed to `span` over one traced pass.
fn counted(cfg: &Config, span: Span) -> (u64, u64) {
    counted_pass(cfg, span).0
}

/// [`counted`], plus the node runs the pass made.
fn counted_pass(cfg: &Config, span: Span) -> ((u64, u64), u64) {
    span::reset();
    span::set_tracing(true);
    let out = perfbench::run_pass(cfg, true, &mut || {});
    span::set_tracing(false);
    assert_eq!(out.failed, 0);
    let runs = out.layers.get("exec.pool.tasks") as u64;
    ((span::stat(span).allocs, span::stat(span).bytes), runs)
}

#[test]
fn kernel_allocation_counts_repeat_exactly_on_one_thread() {
    let _guard = lock();
    let cfg = smoke(Workload::Paper, DEFAULT_SEED);
    let first = counted(&cfg, Span::KernelRun);
    assert!(first.0 > 0);
    assert_eq!(first, counted(&cfg, Span::KernelRun));
    assert_eq!(counted(&cfg, Span::Observer), counted(&cfg, Span::Observer));
}

#[test]
fn engine_allocation_counts_repeat_up_to_metric_snapshots() {
    // A metrics snapshot lists only the occupied buckets of each log2
    // histogram, and the kernel's `kernel.pick_wall_ns` histogram records
    // host wall-clock time: how many of its buckets are occupied, and so
    // how often the snapshot's bucket list grows, varies from run to run.
    // Every node run in the engine takes such a snapshot.
    let _guard = lock();
    let cfg = Config {
        threads: 1,
        ..smoke(Workload::Batch, DEFAULT_SEED)
    };
    let (first, runs) = counted_pass(&cfg, Span::Engine);
    assert!(first.0 > 0 && runs > 0);
    for _ in 0..3 {
        let again = counted(&cfg, Span::Engine);
        assert!(first.0.abs_diff(again.0) <= runs, "{first:?} vs {again:?}");
    }
}
