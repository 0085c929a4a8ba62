//! Dynamic-behaviour integration: MetBenchVar's load reversal and the
//! scheduler's re-balancing (paper §V-B).

use schedsim::policies::HeuristicKind;
use schedsim::KernelBuilder;
use simcore::SimDuration;
use workloads::metbench::MetBenchConfig;
use workloads::metbenchvar::{self, MetBenchVarConfig};
use workloads::SchedulerSetup;

fn cfg() -> MetBenchVarConfig {
    MetBenchVarConfig {
        base: MetBenchConfig {
            loads: vec![0.05, 0.2, 0.05, 0.2],
            iterations: 18,
            ..Default::default()
        },
        k: 6,
    }
}

fn run(mode: &str) -> (f64, Vec<u8>) {
    let c = cfg();
    let (mut kernel, setup) = match mode {
        "baseline" => {
            (KernelBuilder::new().without_hpc_class().build(), SchedulerSetup::Baseline)
        }
        "static" => (
            KernelBuilder::new().without_hpc_class().build(),
            SchedulerSetup::Static(c.base.static_priorities()),
        ),
        "uniform" => (
            KernelBuilder::new().heuristic(HeuristicKind::Uniform).build(),
            SchedulerSetup::Hpc,
        ),
        "adaptive" => (
            KernelBuilder::new().heuristic(HeuristicKind::Adaptive).build(),
            SchedulerSetup::Hpc,
        ),
        _ => unreachable!(),
    };
    let (workers, master, _) = metbenchvar::spawn_faulted(&mut kernel, &c, &setup, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");
    let prios = workers.iter().map(|&w| kernel.task(w).hw_prio.value()).collect();
    (end.as_secs_f64(), prios)
}

#[test]
fn dynamic_heuristics_beat_baseline_despite_reversals() {
    let (base, _) = run("baseline");
    for mode in ["uniform", "adaptive"] {
        let (secs, _) = run(mode);
        let imp = 100.0 * (base - secs) / base;
        assert!(imp > 4.0, "{mode} improvement {imp}% (paper: ~11%)");
        assert!(imp < 20.0, "{mode} improvement {imp}% above the paper's range");
    }
}

#[test]
fn dynamic_beats_static_under_behaviour_change() {
    // Paper §V-B: the static assignment is reversed-wrong for the middle
    // period; the dynamic scheduler re-balances within a few iterations.
    let (stat, _) = run("static");
    let (unif, _) = run("uniform");
    let (adapt, _) = run("adaptive");
    assert!(unif <= stat * 1.01, "uniform {unif} vs static {stat}");
    assert!(adapt <= stat * 1.01, "adaptive {adapt} vs static {stat}");
}

#[test]
fn final_priorities_follow_final_period() {
    // 18 iterations, k = 6 → periods: initial, swapped, initial. The run
    // ends in an *initial-assignment* period, so the initially-large
    // workers (ranks 1 and 3) must be the boosted ones again.
    let (_, prios) = run("adaptive");
    assert_eq!(prios[1], 6, "adaptive final prios {prios:?}");
    assert_eq!(prios[3], 6, "adaptive final prios {prios:?}");
    assert!(prios[0] <= 5 && prios[2] <= 5, "small-load workers below max {prios:?}");
}

#[test]
fn priority_changes_track_each_reversal() {
    // The scheduler must issue a burst of priority changes after every
    // swap: count hw-priority trace events per period.
    let c = cfg();
    let mut kernel =
        KernelBuilder::new().heuristic(HeuristicKind::Adaptive).build();
    let sink = schedsim::SharedSink::new();
    kernel.observe(Box::new(sink.clone()));
    let (workers, master, _) =
        metbenchvar::spawn_faulted(&mut kernel, &c, &SchedulerSetup::Hpc, None);
    let mut all = workers.clone();
    all.push(master);
    let end = kernel.run_until_exited(&all, SimDuration::from_secs(600)).expect("finishes");

    let records = sink.snapshot();
    let period = end.as_nanos() / 3;
    let mut per_period = [0u32; 3];
    for r in &records {
        if matches!(r.event, schedsim::TraceEvent::HwPrio { .. }) {
            let idx = ((r.time.as_nanos() / period.max(1)) as usize).min(2);
            per_period[idx] += 1;
        }
    }
    assert!(per_period[0] > 0, "initial balancing: {per_period:?}");
    assert!(per_period[1] > 0, "re-balancing after first swap: {per_period:?}");
    assert!(per_period[2] > 0, "re-balancing after second swap: {per_period:?}");
}
