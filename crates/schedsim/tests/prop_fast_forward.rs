//! Differential test of the kernel's quiet-tick fast-forward.
//!
//! `run_until_exited` and `run_for` replay quiet tick rounds without the
//! event queue, runs of uniform rounds in one batch (DESIGN §5 note 7);
//! `step` never does, so a `step` loop is the reference. Random scenarios
//! run both ways must agree on the whole observer stream (the trace),
//! every task's accounting bit for bit, the whole metrics snapshot, and the
//! clock. A scenario is observed by nobody or by a recorder of the trace.
//!
//! Three more properties pin the class contracts the replay relies on:
//! once [`SchedClass::tick_quiet`] holds, `task_tick` stays `false` and
//! changes nothing under any further charges;
//! [`SchedClass::charge_rounds`]`(n, d)` equals `n` calls of `charge(d)`;
//! and with nothing queued, or only tasks pinned to the CPU they are
//! queued on, a [`SchedClass::load_balance`], periodic or idle, returns
//! nothing and changes nothing, so a stretch may run across balance ticks
//! and a CPU that runs dry may skip its idle pull.

#![allow(clippy::disallowed_types, reason = "test recorders share a Mutex-guarded buffer")]

use std::sync::{Arc, Mutex};

use power5::{CpuId, Topology};
use proptest::prelude::*;
use schedsim::class::EnqueueKind;
use schedsim::classes::{FairClass, IdleClass, RtClass};
use schedsim::policies::{
    registry, HeuristicKind, HpcTunables, PolicyCtx, Power5Mechanism, Table1Balancer,
    UniformHeuristic,
};
use schedsim::program::{FnProgram, ScriptedProgram};
use schedsim::{
    Action, BalancedClass, ClassCtx, FaultEvent, HpcPolicyKind, HpcSchedConfig, Kernel, KernelApi,
    KernelBuilder, KernelConfig, KernelEvent, NoiseConfig, Observer, SchedClass, SchedPolicy,
    SpawnOptions, Task, TaskId, TaskState, TraceEvent, TraceRecord,
};
use simcore::snapshot::SnapshotWriter;
use simcore::{SimDuration, SimTime};
use telemetry::MetricValue;

#[derive(Clone, Copy, Debug)]
enum Pol {
    Normal,
    Batch,
    Idle,
    Fifo,
    Rr,
    Hpc,
}

/// One compute segment, then a sleep (or a yield when `sleep_us` is 0).
#[derive(Clone, Debug)]
struct Cycle {
    work: f64,
    sleep_us: u64,
    /// Round the wakeup up to the next tick boundary.
    on_tick: bool,
}

#[derive(Clone, Debug)]
struct TaskSpec {
    pol: Pol,
    /// Allowed CPUs (modulo the CPU count); `None` allows all.
    affinity: Option<Vec<usize>>,
    nice: i32,
    rt_priority: u8,
    cycles: Vec<Cycle>,
}

/// Who observes the kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Observe {
    Nobody,
    /// [`Recorder`]: the whole stream.
    Trace,
}

const OBSERVERS: [Observe; 2] = [Observe::Nobody, Observe::Trace];

#[derive(Clone, Debug)]
enum FaultSpec {
    Steal { cpu: usize, us: u64 },
    Slow { task: usize, factor: f64 },
}

#[derive(Clone, Debug)]
struct Scenario {
    /// 0: OpenPower 710, 1: one single-threaded core, 2: one 4-way SMT core.
    topology: u8,
    tick_ms: u64,
    balance: u32,
    noise: bool,
    free_switch: bool,
    /// The HPC class's intra-class policy, or no HPC class at all.
    hpc: Option<HpcPolicyKind>,
    /// The HPC class's balancing policy, by registry name.
    balancer: &'static str,
    short_slices: bool,
    observe: Observe,
    seed: u64,
    tasks: Vec<TaskSpec>,
    /// `(tick, offset in µs after it, fault)`; offset 0 lands on the tick.
    faults: Vec<(u64, u64, FaultSpec)>,
    deadline_ms: u64,
}

/// Records the observer stream.
struct Recorder(Arc<Mutex<Vec<KernelEvent>>>);

impl Observer for Recorder {
    fn on_event(&mut self, event: &KernelEvent) {
        // INVARIANT: the lock is only held for this push and for the final
        // read, neither of which panics, so it is never poisoned.
        self.0.lock().expect("recorder lock").push(event.clone());
    }
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

fn program(
    cycles: Vec<Cycle>,
    tick: SimDuration,
) -> FnProgram<impl FnMut(&mut KernelApi<'_>) -> Action + Send> {
    let mut next = 0;
    let mut computing = true;
    FnProgram(move |api: &mut KernelApi<'_>| {
        let Some(c) = cycles.get(next) else { return Action::Exit };
        if computing {
            computing = false;
            return Action::Compute(c.work);
        }
        computing = true;
        next += 1;
        if c.sleep_us == 0 {
            return Action::Yield;
        }
        let mut at = (api.now() + SimDuration::from_micros(c.sleep_us)).as_nanos();
        if c.on_tick {
            at = at.div_ceil(tick.as_nanos()) * tick.as_nanos();
        }
        let tok = api.new_token();
        api.signal_at(SimTime(at), tok);
        Action::Block(tok)
    })
}

/// Build the scenario's kernel with its tasks spawned and faults injected.
fn setup(s: &Scenario) -> (Kernel, Vec<TaskId>, Arc<Mutex<Vec<KernelEvent>>>) {
    let topology = match s.topology {
        0 => Topology::openpower_710(),
        1 => Topology::single_core_st(),
        _ => Topology::new(1, 1, 4),
    };
    let ncpus = topology.num_cpus();
    let tick = ms(s.tick_ms);
    let defaults = KernelConfig::default();
    let config = KernelConfig {
        tick,
        rt_rr_slice: if s.short_slices { ms(6) } else { defaults.rt_rr_slice },
        ctx_switch_cost: if s.free_switch { SimDuration::ZERO } else { defaults.ctx_switch_cost },
        noise: if s.noise { NoiseConfig::heavy() } else { NoiseConfig::off() },
        seed: s.seed,
        balance_interval_ticks: s.balance,
        ..defaults
    };
    let builder = KernelBuilder::new().topology(topology).kernel_config(config);
    let mut k = match s.hpc {
        Some(policy) => builder
            .hpc_config(HpcSchedConfig {
                policy,
                balancer: s.balancer,
                slice: if s.short_slices { ms(8) } else { ms(100) },
                ..HpcSchedConfig::default()
            })
            .build(),
        None => builder.without_hpc_class().build(),
    };
    let stream = Arc::new(Mutex::new(Vec::new()));
    match s.observe {
        Observe::Nobody => {}
        Observe::Trace => k.observe(Box::new(Recorder(stream.clone()))),
    }
    let ids: Vec<TaskId> = s
        .tasks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let policy = match t.pol {
                Pol::Normal => SchedPolicy::Normal,
                Pol::Batch => SchedPolicy::Batch,
                Pol::Idle => SchedPolicy::Idle,
                Pol::Fifo => SchedPolicy::Fifo,
                Pol::Rr => SchedPolicy::Rr,
                Pol::Hpc if s.hpc.is_some() => SchedPolicy::Hpc,
                Pol::Hpc => SchedPolicy::Normal,
            };
            let opts = SpawnOptions {
                nice: t.nice,
                rt_priority: t.rt_priority,
                affinity: t.affinity.as_ref().map(|a| a.iter().map(|c| CpuId(c % ncpus)).collect()),
                ..SpawnOptions::default()
            };
            k.spawn(format!("t{i}"), policy, Box::new(program(t.cycles.clone(), tick)), opts)
        })
        .collect();
    for (at_tick, offset_us, fault) in &s.faults {
        let at = SimTime::ZERO + tick * *at_tick + SimDuration::from_micros(*offset_us);
        let fault = match *fault {
            FaultSpec::Steal { cpu, us } => FaultEvent::StealBurst {
                cpu: CpuId(cpu % (ncpus + 1)),
                duration: SimDuration::from_micros(us),
            },
            FaultSpec::Slow { task, factor } => {
                FaultEvent::SlowTask { task: ids[task % ids.len()], factor }
            }
        };
        k.inject_fault(at, fault);
    }
    (k, ids, stream)
}

/// Everything the two paths must agree on.
struct Outcome {
    now: SimTime,
    ended: Option<SimTime>,
    tasks: Vec<TaskView>,
    metrics: Vec<(String, MetricValue)>,
    stream: Vec<KernelEvent>,
    /// Events popped off the queue's heap: what the run cost, the one
    /// thing the two paths need not agree on.
    pops: u64,
}

#[derive(Debug, PartialEq)]
struct TaskView {
    state: TaskState,
    cpu: Option<CpuId>,
    remaining_work: u64,
    exec_total: SimDuration,
    wait_rq_total: SimDuration,
    sleep_total: SimDuration,
    vruntime: u64,
    slice_left: SimDuration,
    nr_switches: u64,
    iterations: u64,
}

fn outcome(k: &Kernel, ended: Option<SimTime>, stream: &Mutex<Vec<KernelEvent>>) -> Outcome {
    let tasks = k
        .tasks()
        .iter()
        .map(|t: &Task| TaskView {
            state: t.state,
            cpu: t.cpu,
            remaining_work: t.remaining_work().to_bits(),
            exec_total: t.exec_total,
            wait_rq_total: t.wait_rq_total,
            sleep_total: t.sleep_total,
            vruntime: t.vruntime,
            slice_left: t.slice_left,
            nr_switches: t.nr_switches,
            iterations: t.iter.iterations,
        })
        .collect();
    let metrics = k.metrics_registry().snapshot().metrics;
    // INVARIANT: the recorder never panics while holding the lock, so the
    // lock is never poisoned.
    let stream = std::mem::take(&mut *stream.lock().expect("recorder lock"));
    Outcome { now: k.now(), ended, tasks, metrics, stream, pops: k.queue_pops() }
}

fn all_exited(k: &Kernel, ids: &[TaskId]) -> Option<SimTime> {
    ids.iter()
        .all(|&t| k.task(t).state == TaskState::Exited)
        .then(|| ids.iter().filter_map(|&t| k.task(t).exited_at).max().unwrap_or(k.now()))
}

/// `run_until_exited`, one event at a time.
fn step_until_exited(k: &mut Kernel, ids: &[TaskId], deadline: SimDuration) -> Option<SimTime> {
    let deadline = k.now().saturating_add(deadline);
    loop {
        if let Some(end) = all_exited(k, ids) {
            return Some(end);
        }
        if k.now() >= deadline || !k.step() {
            return None;
        }
    }
}

/// Run the scenario through `run_until_exited` and through a `step` loop.
fn both_ways(s: &Scenario) -> (Outcome, Outcome) {
    let deadline = ms(s.deadline_ms);
    let (mut fast, ids, fast_stream) = setup(s);
    let ended = fast.run_until_exited(&ids, deadline);
    let fast = outcome(&fast, ended, &fast_stream);
    let (mut slow, ids, slow_stream) = setup(s);
    let ended = step_until_exited(&mut slow, &ids, deadline);
    (fast, outcome(&slow, ended, &slow_stream))
}

/// Run `spans` of `run_for`, then `run_until_exited`, both ways. The step
/// loop mirrors `run_for` exactly with a no-op fault at each span's end,
/// injected into both kernels: a `step` never passes it.
fn both_ways_run_for(s: &Scenario, spans: &[u64]) -> Vec<(Outcome, Outcome)> {
    let deadline = ms(s.deadline_ms);
    let (mut fast, ids, fast_stream) = setup(s);
    let (mut slow, _, slow_stream) = setup(s);
    let no_op = FaultEvent::SlowTask { task: TaskId(usize::MAX), factor: 1.0 };
    let mut out = Vec::new();
    for &span_us in spans {
        let end = fast.now() + SimDuration::from_micros(span_us);
        fast.inject_fault(end, no_op);
        slow.inject_fault(end, no_op);
        fast.run_for(SimDuration::from_micros(span_us));
        while slow.now() < end {
            slow.step();
        }
        out.push((outcome(&fast, None, &fast_stream), outcome(&slow, None, &slow_stream)));
    }
    let ended = fast.run_until_exited(&ids, deadline);
    let fast = outcome(&fast, ended, &fast_stream);
    let ended = step_until_exited(&mut slow, &ids, deadline);
    out.push((fast, outcome(&slow, ended, &slow_stream)));
    out
}

fn cycle() -> impl Strategy<Value = Cycle> {
    (
        // Whole ticks of work let completions land on tick boundaries.
        prop_oneof![(1u64..40).prop_map(|m| m as f64 * 1e-3), 1e-5f64..0.04],
        prop_oneof![Just(0u64), 1u64..40_000],
        any::<bool>(),
    )
        .prop_map(|(work, sleep_us, on_tick)| Cycle { work, sleep_us, on_tick })
}

fn task() -> impl Strategy<Value = TaskSpec> {
    (
        (0u8..14).prop_map(|p| match p {
            0..=3 => Pol::Normal,
            4 => Pol::Batch,
            5 => Pol::Idle,
            6 | 7 => Pol::Fifo,
            8 | 9 => Pol::Rr,
            _ => Pol::Hpc,
        }),
        prop_oneof![Just(None), (0usize..4).prop_map(|c| Some(vec![c]))],
        -5i32..5,
        1u8..4,
        proptest::collection::vec(cycle(), 1..5),
    )
        .prop_map(|(pol, affinity, nice, rt_priority, cycles)| TaskSpec {
            pol,
            affinity,
            nice,
            rt_priority,
            cycles,
        })
}

fn fault() -> impl Strategy<Value = (u64, u64, FaultSpec)> {
    (
        0u64..300,
        prop_oneof![Just(0u64), 1u64..4_000],
        prop_oneof![
            (0usize..5, 1u64..20_000).prop_map(|(cpu, us)| FaultSpec::Steal { cpu, us }),
            (0usize..8, 0.2f64..2.0).prop_map(|(task, factor)| FaultSpec::Slow { task, factor }),
        ],
    )
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            0u8..3,
            prop_oneof![Just(1u64), Just(4)],
            // Short intervals put many balance ticks inside one stretch.
            prop_oneof![Just(0u32), Just(1), 2u32..=8, Just(64)],
        ),
        (any::<bool>(), any::<bool>(), any::<bool>(), (0usize..2).prop_map(|i| OBSERVERS[i])),
        (
            prop_oneof![Just(None), Just(Some(HpcPolicyKind::Fifo)), Just(Some(HpcPolicyKind::Rr))],
            (0..registry().len()).prop_map(|i| registry()[i].name),
        ),
        (any::<u64>(), 20u64..1_200),
        (proptest::collection::vec(task(), 1..7), proptest::collection::vec(fault(), 0..4)),
    )
        .prop_map(
            |(
                (topology, tick_ms, balance),
                (noise, free_switch, short_slices, observe),
                (hpc, balancer),
                (seed, deadline_ms),
                (tasks, faults),
            )| Scenario {
                topology,
                tick_ms,
                balance,
                // Noise keeps ticks busy; run it in a quarter of the cases.
                noise: noise && seed % 2 == 0,
                free_switch,
                hpc,
                balancer,
                short_slices,
                observe,
                seed,
                tasks,
                faults,
                deadline_ms,
            },
        )
}

/// Compare part by part, so that a failure names what diverged first.
fn assert_same(s: &Scenario, fast: &Outcome, slow: &Outcome) {
    if let Some(i) =
        (0..fast.stream.len().min(slow.stream.len())).find(|&i| fast.stream[i] != slow.stream[i])
    {
        panic!("streams diverge at {i}: {:?} vs {:?}\n{s:?}", fast.stream[i], slow.stream[i]);
    }
    assert_eq!(fast.stream.len(), slow.stream.len(), "stream lengths\n{s:?}");
    assert_eq!(fast.tasks, slow.tasks, "tasks\n{s:?}");
    assert_eq!(fast.metrics, slow.metrics, "metrics\n{s:?}");
    assert_eq!((fast.now, fast.ended), (slow.now, slow.ended), "clock\n{s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn run_until_exited_matches_a_step_loop(s in scenario()) {
        let (fast, slow) = both_ways(&s);
        assert_same(&s, &fast, &slow);
    }

    #[test]
    fn run_for_matches_a_step_loop(
        s in scenario(),
        spans in proptest::collection::vec(prop_oneof![(1u64..300).prop_map(|m| m * 1_000), 1u64..300_000], 1..4),
    ) {
        for (fast, slow) in both_ways_run_for(&s, &spans) {
            assert_same(&s, &fast, &slow);
        }
    }
}

fn quiet_scenario(tasks: Vec<TaskSpec>) -> Scenario {
    Scenario {
        topology: 0,
        tick_ms: 1,
        balance: 64,
        noise: false,
        free_switch: false,
        hpc: Some(HpcPolicyKind::Rr),
        balancer: "hpc",
        short_slices: false,
        observe: Observe::Trace,
        seed: 1,
        tasks,
        faults: Vec::new(),
        deadline_ms: 2_000,
    }
}

fn spec(pol: Pol, cpus: &[usize], cycles: Vec<Cycle>) -> TaskSpec {
    TaskSpec { pol, affinity: Some(cpus.to_vec()), nice: 0, rt_priority: 1, cycles }
}

fn compute(work: f64) -> Cycle {
    Cycle { work, sleep_us: 0, on_tick: false }
}

#[test]
fn periodic_balance_inside_a_quiet_stretch_is_not_skipped() {
    // CPU 0 runs an RT FIFO task (quiet) with two CFS tasks queued under
    // it; CPU 2 runs one CFS task alone (quiet) and homes a long sleeper,
    // which steers the two CFS tasks, allowed on CPUs 0 and 2, onto CPU 0
    // at spawn. Only CPU 2's periodic balance can pull one of them over,
    // and it falls on a tick inside a quiet stretch.
    let nap = Cycle { work: 1e-4, sleep_us: 1_500_000, on_tick: false };
    let s = quiet_scenario(vec![
        spec(Pol::Fifo, &[0], vec![compute(0.5)]),
        spec(Pol::Normal, &[2], vec![compute(0.3)]),
        spec(Pol::Normal, &[2], vec![nap]),
        spec(Pol::Normal, &[0, 2], vec![compute(0.05)]),
        spec(Pol::Normal, &[0, 2], vec![compute(0.05)]),
    ]);
    let (fast, slow) = both_ways(&s);
    assert_same(&s, &fast, &slow);
    assert!(slow.tasks[3..5].iter().any(|t| t.cpu == Some(CpuId(2))), "a CFS task moved to CPU 2");
}

#[test]
fn completions_and_wakeups_on_tick_boundaries() {
    // One core at speed 1 with free switches: whole-tick work ends exactly
    // on a tick, and every wakeup is rounded onto one.
    let cycles = vec![
        Cycle { work: 0.003, sleep_us: 2_000, on_tick: true },
        Cycle { work: 0.010, sleep_us: 5_000, on_tick: true },
        compute(0.004),
    ];
    let mut s = quiet_scenario(vec![spec(Pol::Normal, &[0], cycles)]);
    s.topology = 1;
    s.free_switch = true;
    s.faults = vec![(7, 0, FaultSpec::Slow { task: 0, factor: 1.0 })];
    let (fast, slow) = both_ways(&s);
    assert_same(&s, &fast, &slow);
    // INVARIANT: 27 ms of work and sleep against a 2 s deadline.
    let ended = fast.ended.expect("finishes");
    assert_eq!(ended.as_nanos() % 1_000_000, 0, "exit at {ended} lands on a tick");
}

/// Run `s` both ways with and without an observer and compare. Observing
/// must not change the accounting or the metrics. Returns the observed
/// fast run.
fn assert_same_for_every_observer(s: &Scenario) -> Outcome {
    let [nobody, traced] = OBSERVERS.map(|observe| {
        let s = Scenario { observe, ..s.clone() };
        let (fast, slow) = both_ways(&s);
        assert_same(&s, &fast, &slow);
        fast
    });
    assert!(nobody.stream.is_empty());
    assert!(!traced.stream.is_empty());
    assert_eq!(nobody.tasks, traced.tasks, "observed tasks\n{s:?}");
    assert_eq!(nobody.metrics, traced.metrics, "observed metrics\n{s:?}");
    traced
}

fn tick_count(o: &Outcome) -> u64 {
    o.metrics
        .iter()
        .find_map(|(name, v)| match v {
            MetricValue::Counter(c) if name == "kernel.ticks" => Some(*c),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn unbounded_stretch_stops_at_a_completion_between_ticks() {
    // No periodic balancing, so only completions and the wakeup bound a
    // stretch. CPU 2's task ends 43.7 ms in, inside a stretch that CPUs 0
    // and 1 would otherwise replay to their own ends; CPU 3 wakes from a
    // sleep off the tick grid.
    let mut s = quiet_scenario(vec![
        spec(Pol::Normal, &[0], vec![compute(0.3)]),
        spec(Pol::Fifo, &[1], vec![compute(0.25)]),
        spec(Pol::Hpc, &[2], vec![compute(0.0437)]),
        spec(
            Pol::Normal,
            &[3],
            vec![Cycle { work: 0.02, sleep_us: 40_300, on_tick: false }, compute(0.1)],
        ),
    ]);
    s.balance = 0;
    let traced = assert_same_for_every_observer(&s);
    let exits: Vec<SimTime> = traced
        .stream
        .iter()
        .filter_map(|e| match e {
            KernelEvent::Trace(TraceRecord { time, event: TraceEvent::Exit, .. }) => Some(*time),
            _ => None,
        })
        .collect();
    assert_eq!(exits.len(), 4);
    let between_ticks = exits.iter().any(|t| t.as_nanos() % 1_000_000 != 0);
    assert!(between_ticks, "an exit between ticks: {exits:?}");
    assert!(tick_count(&traced) > 4 * 250, "the run spans the long computations");
}

#[test]
fn steal_bursts_of_several_ticks_inside_a_stretch() {
    // Every CPU busy and quiet; bursts of 3.5, 5 and 12.25 ms, on and off
    // the tick grid, make the rounds they cover non-uniform mid-stretch.
    let mut s = quiet_scenario(vec![
        spec(Pol::Normal, &[0], vec![compute(0.2)]),
        spec(Pol::Hpc, &[1], vec![compute(0.2)]),
        spec(Pol::Fifo, &[2], vec![compute(0.2)]),
        spec(Pol::Normal, &[3], vec![compute(0.2)]),
    ]);
    s.balance = 0;
    s.faults = vec![
        (40, 300, FaultSpec::Steal { cpu: 1, us: 3_500 }),
        (90, 0, FaultSpec::Steal { cpu: 2, us: 5_000 }),
        (120, 700, FaultSpec::Steal { cpu: 3, us: 12_250 }),
        (122, 0, FaultSpec::Steal { cpu: 0, us: 4_000 }),
    ];
    assert_same_for_every_observer(&s);
}

#[test]
fn completion_a_hair_either_side_of_a_tick_from_the_last_round() {
    // One core at speed 1 with free switches: after the round at 9 ms the
    // work left is 1 ms plus `delta`, so the re-derived completion time
    // lands a hair before, on or after the round at 10 ms. Only the exact
    // completion arithmetic, not the two-tick prefilter, can tell.
    for delta in [-1e-9, -6e-10, -4e-10, 0.0, 4e-10, 6e-10, 1e-9, 1e-6] {
        let work = 0.010 + delta;
        let mut s = quiet_scenario(vec![spec(
            Pol::Normal,
            &[0],
            vec![
                Cycle { work, sleep_us: 0, on_tick: false },
                compute(0.002 + delta),
                compute(0.005),
            ],
        )]);
        s.topology = 1;
        s.free_switch = true;
        s.balance = 0;
        assert_same_for_every_observer(&s);
    }
}

/// How many tasks the trace shows on more than one CPU.
fn migrated(stream: &[KernelEvent]) -> usize {
    let mut seen: Vec<(usize, usize)> = stream
        .iter()
        .filter_map(|e| match e {
            KernelEvent::Trace(TraceRecord {
                task,
                event: TraceEvent::State { cpu: Some(cpu), .. },
                ..
            }) => Some((task.0, cpu.0)),
            _ => None,
        })
        .collect();
    seen.sort_unstable();
    seen.dedup();
    let mut tasks: Vec<usize> = seen.iter().map(|&(task, _)| task).collect();
    let placed = tasks.len();
    tasks.dedup();
    placed - tasks.len()
}

fn unpinned(pol: Pol, cycles: Vec<Cycle>) -> TaskSpec {
    TaskSpec { pol, affinity: None, nice: 0, rt_priority: 1, cycles }
}

fn naps(work: f64, sleep_us: u64, times: usize) -> Vec<Cycle> {
    vec![Cycle { work, sleep_us, on_tick: false }; times]
}

/// A scenario shaped like a batch node run: one HPC rank pinned to each
/// CPU, each computing `works[i]` and then sleeping, `iterations` times,
/// under the default kernel and HPC configuration and the 36,000 s
/// deadline of a node run. Nothing is ever movable, so every quiet stretch
/// starts unbounded, out to the deadline, and only the cap at the earliest
/// armed completion bounds it.
fn node_run(works: &[f64], sleeps_us: &[u64], iterations: usize) -> Scenario {
    let ranks = works.iter().zip(sleeps_us).enumerate();
    let rank = |(cpu, (&work, &sleep))| spec(Pol::Hpc, &[cpu], naps(work, sleep, iterations));
    let tasks = ranks.map(rank);
    Scenario {
        balance: KernelConfig::default().balance_interval_ticks,
        hpc: Some(HpcSchedConfig::default().policy),
        deadline_ms: 36_000_000,
        ..quiet_scenario(tasks.collect())
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// The fast path equals the step loop on node-run-shaped scenarios.
    #[test]
    fn node_run_shaped_stretches_match_a_step_loop(
        works in proptest::collection::vec(1e-4f64..0.05, 4),
        sleeps_us in proptest::collection::vec(1u64..20_000, 4),
        iterations in 1usize..5,
    ) {
        assert_same_for_every_observer(&node_run(&works, &sleeps_us, iterations));
    }
}

#[test]
fn stretches_run_across_balance_ticks_with_nothing_queued() {
    // One task per CPU, nothing ever queued, a balance every third tick:
    // every stretch runs from one completion or wakeup to the next, across
    // dozens of balance ticks, and the heap sees only those events.
    let mut s = quiet_scenario(vec![
        spec(Pol::Normal, &[0], vec![compute(0.3)]),
        spec(Pol::Hpc, &[1], naps(0.07, 9_500, 4)),
        spec(Pol::Fifo, &[2], vec![compute(0.25)]),
        spec(Pol::Hpc, &[3], vec![compute(0.2)]),
    ]);
    s.balance = 3;
    let traced = assert_same_for_every_observer(&s);
    let ticks = tick_count(&traced);
    assert!(ticks > 4 * 250, "the run spans the long computations");
    assert!(traced.pops < 60, "{} queue pops for {ticks} ticks", traced.pops);
}

#[test]
fn stretches_run_across_balance_ticks_with_only_pinned_tasks_queued() {
    // An HPC rank on every CPU, and under three of them CFS tasks pinned
    // there, queued until their rank is done: queued work that no balance
    // can move, so stretches run across the balance ticks as if nothing
    // were queued, and stop only where a rank computes, sleeps or exits.
    let mut s = quiet_scenario(vec![
        spec(Pol::Hpc, &[0], vec![compute(0.3)]),
        spec(Pol::Hpc, &[1], naps(0.07, 9_500, 4)),
        spec(Pol::Hpc, &[2], vec![compute(0.25)]),
        spec(Pol::Hpc, &[3], vec![compute(0.2)]),
        spec(Pol::Normal, &[0], vec![compute(0.01)]),
        spec(Pol::Normal, &[2], vec![compute(0.02)]),
        spec(Pol::Normal, &[2], vec![compute(0.01)]),
        spec(Pol::Normal, &[3], naps(0.005, 2_000, 2)),
    ]);
    s.balance = 3;
    let traced = assert_same_for_every_observer(&s);
    let ticks = tick_count(&traced);
    assert!(ticks > 4 * 250, "the run spans the long computations");
    // While a balance tick ended every stretch with a task queued, this
    // run popped 610 events.
    assert!(traced.pops < 200, "{} queue pops for {ticks} ticks", traced.pops);
}

#[test]
fn oversubscribed_cfs_migrates_across_short_balance_intervals() {
    // Seven CFS tasks of uneven length on four CPUs, no HPC class: while
    // two share a CPU nothing there is quiet, and once the queues drain
    // (idle pulls, periodic balances) stretches cross balance ticks.
    let lengths = [0.05, 0.3, 0.1, 0.25, 0.02, 0.4, 0.15];
    let tasks: Vec<TaskSpec> =
        lengths.iter().map(|&w| unpinned(Pol::Normal, naps(w, 3_000, 2))).collect();
    for balance in [2, 5] {
        let mut s = quiet_scenario(tasks.clone());
        s.hpc = None;
        s.balance = balance;
        let traced = assert_same_for_every_observer(&s);
        assert!(migrated(&traced.stream) > 0, "balance every {balance} ticks moved a task");
    }
}

#[test]
fn periodic_pulls_of_queued_fifo_ranks_inside_quiet_stretches() {
    // Six unpinned HPC FIFO ranks on four CPUs: FIFO ticks are quiet
    // with ranks queued behind them, so the stretch must stop at the
    // periodic balance that pulls one of them to the other core.
    let lengths = [0.2, 0.25, 0.3, 0.15, 0.1, 0.05];
    let tasks: Vec<TaskSpec> =
        lengths.iter().map(|&w| unpinned(Pol::Hpc, vec![compute(w)])).collect();
    for balance in [2, 3, 8] {
        let mut s = quiet_scenario(tasks.clone());
        s.hpc = Some(HpcPolicyKind::Fifo);
        s.balance = balance;
        let traced = assert_same_for_every_observer(&s);
        assert!(migrated(&traced.stream) > 0, "balance every {balance} ticks pulled a rank");
    }
}

#[test]
fn noise_daemons_under_short_balance_intervals() {
    // Heavy noise wakes a CFS daemon on every CPU now and then, queued
    // behind the HPC rank there until the rank sleeps.
    let tasks: Vec<TaskSpec> = (0..4).map(|i| spec(Pol::Hpc, &[i], naps(0.03, 4_000, 5))).collect();
    for balance in [4, 8] {
        let mut s = quiet_scenario(tasks.clone());
        s.noise = true;
        s.hpc = Some(HpcPolicyKind::Fifo);
        s.balance = balance;
        assert_same_for_every_observer(&s);
    }
}

#[test]
fn worksteal_idle_pulls_between_quiet_stretches() {
    // Seven unpinned HPC tasks on four CPUs under `worksteal`: a CPU that
    // runs dry steals a queued task, and stretches in between cross many
    // balance ticks.
    let lengths = [0.06, 0.2, 0.02, 0.15, 0.09, 0.3, 0.04];
    let tasks = lengths.iter().map(|&w| unpinned(Pol::Hpc, vec![compute(w)])).collect();
    let mut s = quiet_scenario(tasks);
    s.balancer = "worksteal";
    s.balance = 5;
    let traced = assert_same_for_every_observer(&s);
    assert!(migrated(&traced.stream) > 0, "an idle CPU stole a task");
}

/// The class under test for the `tick_quiet` contract.
#[derive(Clone, Copy, Debug)]
enum ClassKind {
    Fair,
    Idle,
    RtFifo,
    RtRr,
    HpcFifo,
    HpcRr,
}

fn class(kind: ClassKind) -> (Box<dyn SchedClass>, SchedPolicy) {
    let hpc = |policy| {
        let balancer = Table1Balancer::new(
            Box::new(UniformHeuristic),
            Box::new(Power5Mechanism),
            Arc::new(Mutex::new(HpcTunables::default())),
        );
        Box::new(BalancedClass::new(policy, ms(8), Box::new(balancer))) as Box<dyn SchedClass>
    };
    match kind {
        ClassKind::Fair => (Box::new(FairClass::new(Default::default())), SchedPolicy::Normal),
        ClassKind::Idle => (Box::new(IdleClass::new()), SchedPolicy::Idle),
        ClassKind::RtFifo => (Box::new(RtClass::new(ms(6))), SchedPolicy::Fifo),
        ClassKind::RtRr => (Box::new(RtClass::new(ms(6))), SchedPolicy::Rr),
        ClassKind::HpcFifo => (hpc(HpcPolicyKind::Fifo), SchedPolicy::Hpc),
        ClassKind::HpcRr => (hpc(HpcPolicyKind::Rr), SchedPolicy::Hpc),
    }
}

/// `kind`'s class on the OpenPower 710: task 0 runs on CPU 1 with `slice`
/// left and tasks `1..=queued` are queued behind it. One task more than
/// `nices` lists entries for is never queued: a late arrival.
struct ClassRig {
    class: Box<dyn SchedClass>,
    tasks: Vec<Task>,
    running: Vec<Option<TaskId>>,
    topology: Topology,
    cpu: CpuId,
    curr: TaskId,
}

impl ClassRig {
    fn new(kind: ClassKind, nices: &[i32], queued: usize, slice: SimDuration) -> ClassRig {
        let topology = Topology::openpower_710();
        let (mut class, policy) = class(kind);
        class.init_cpus(topology.num_cpus());
        let tasks = (0..=nices.len())
            .map(|i| {
                let mut t = Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    policy,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                );
                t.nice = nices.get(i).copied().unwrap_or(0);
                t
            })
            .collect();
        let running = vec![None; topology.num_cpus()];
        let mut rig = ClassRig { class, tasks, running, topology, cpu: CpuId(1), curr: TaskId(0) };
        let cpu = rig.cpu;
        let curr = rig.with(|class, ctx| {
            class.enqueue(ctx, cpu, TaskId(0), EnqueueKind::New);
            // INVARIANT: the queue holds exactly the task enqueued above.
            let curr = class.pick_next(ctx, cpu).expect("the task just queued");
            ctx.task_mut(curr).slice_left = slice;
            for i in 1..=queued {
                class.enqueue(ctx, cpu, TaskId(i), EnqueueKind::New);
            }
            curr
        });
        rig.running[cpu.0] = Some(curr);
        rig.curr = curr;
        rig
    }

    fn with<R>(&mut self, f: impl FnOnce(&mut dyn SchedClass, &mut ClassCtx<'_>) -> R) -> R {
        let mut ctx = ClassCtx {
            now: SimTime::ZERO,
            tasks: &mut self.tasks,
            topology: &self.topology,
            running: &self.running,
        };
        f(self.class.as_mut(), &mut ctx)
    }

    /// The running task's `vruntime` and `slice_left`, and the class's
    /// queue length and `tick_quiet` on its CPU.
    fn view(&mut self) -> (u64, SimDuration, usize, bool) {
        let (cpu, curr) = (self.cpu, self.curr);
        self.with(|class, ctx| {
            let t = ctx.task(curr);
            (t.vruntime, t.slice_left, class.nr_runnable(cpu), class.tick_quiet(ctx, cpu, curr))
        })
    }
}

fn any_class() -> impl Strategy<Value = ClassKind> {
    prop_oneof![
        Just(ClassKind::Fair),
        Just(ClassKind::Idle),
        Just(ClassKind::RtFifo),
        Just(ClassKind::RtRr),
        Just(ClassKind::HpcFifo),
        Just(ClassKind::HpcRr),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// `tick_quiet ⇒ task_tick == false`, with no side effect, after any
    /// charges, for every class.
    #[test]
    fn tick_quiet_means_task_tick_stays_false(
        kind in any_class(),
        queued in 0usize..3,
        nices in proptest::collection::vec(-10i32..10, 3),
        slice_us in 0u64..10_000,
        charges in proptest::collection::vec(0u64..30_000_000, 0..24),
    ) {
        let mut rig = ClassRig::new(kind, &nices, queued, SimDuration::from_micros(slice_us));
        let (cpu, curr) = (rig.cpu, rig.curr);
        if rig.view().3 {
            for ns in charges {
                rig.with(|class, ctx| class.charge(ctx, cpu, curr, SimDuration::from_nanos(ns)));
                let before = rig.view();
                let ticked = rig.with(|class, ctx| class.task_tick(ctx, cpu, curr));
                prop_assert!(!ticked, "{kind:?} ticked after {ns} ns");
                prop_assert_eq!(rig.view(), before);
                prop_assert!(before.3, "{:?} stopped being quiet under charges", kind);
            }
        } else {
            // Only a class with someone to rotate to, or an RR slice, may
            // decline.
            prop_assert!(queued > 0 || matches!(kind, ClassKind::RtRr), "{kind:?} alone is not quiet");
        }
    }

    /// `charge_rounds(n, d)` leaves the running task and the class as `n`
    /// calls of `charge(d)` do, slices that run out included: the same
    /// `vruntime`, `slice_left`, queue length, `tick_quiet` and next
    /// `task_tick`, and the same placement of a late arrival, which reads
    /// the class's per-CPU state (CFS's `min_vruntime`).
    #[test]
    fn charge_rounds_equals_repeated_charges(
        kind in any_class(),
        queued in 0usize..3,
        nices in proptest::collection::vec(-10i32..10, 3),
        slice_us in 0u64..10_000,
        ns in prop_oneof![Just(0u64), 1u64..3_000_000],
        n in prop_oneof![Just(0u64), Just(1), 0u64..=10_000],
    ) {
        let run = |batched: bool| {
            let mut rig = ClassRig::new(kind, &nices, queued, SimDuration::from_micros(slice_us));
            let (cpu, curr, d) = (rig.cpu, rig.curr, SimDuration::from_nanos(ns));
            rig.with(|class, ctx| match batched {
                true => class.charge_rounds(ctx, cpu, curr, d, n),
                false => (0..n).for_each(|_| class.charge(ctx, cpu, curr, d)),
            });
            let view = rig.view();
            let ticked = rig.with(|class, ctx| class.task_tick(ctx, cpu, curr));
            let late = TaskId(nices.len());
            let placed = rig.with(|class, ctx| {
                class.enqueue(ctx, cpu, late, EnqueueKind::Wakeup);
                ctx.task(late).vruntime
            });
            (view, ticked, placed)
        };
        prop_assert_eq!(run(true), run(false), "{:?}: {} rounds of {} ns", kind, n, ns);
    }
}

/// A builtin class under the balance contract: CFS, idle, RT, or the HPC
/// class driven by one registry policy.
enum Balancing {
    Fair(FairClass),
    Idle(IdleClass),
    Rt(RtClass),
    Hpc(BalancedClass),
}

impl Balancing {
    /// Class `which` of the `3 + registry().len()`, and its tasks' policy.
    fn new(which: usize, round_robin: bool) -> (Balancing, SchedPolicy) {
        match which {
            0 => (Balancing::Fair(FairClass::new(Default::default())), SchedPolicy::Normal),
            1 => (Balancing::Idle(IdleClass::new()), SchedPolicy::Idle),
            2 => (
                Balancing::Rt(RtClass::new(ms(6))),
                if round_robin { SchedPolicy::Rr } else { SchedPolicy::Fifo },
            ),
            _ => {
                let ctx = PolicyCtx {
                    tunables: Arc::new(Mutex::new(HpcTunables::default())),
                    heuristic: HeuristicKind::Uniform,
                    power5_mechanism: true,
                    policy_only: false,
                };
                let balancer = (registry()[which - 3].make)(&ctx);
                let kind = if round_robin { HpcPolicyKind::Rr } else { HpcPolicyKind::Fifo };
                (Balancing::Hpc(BalancedClass::new(kind, ms(8), balancer)), SchedPolicy::Hpc)
            }
        }
    }

    fn class(&mut self) -> &mut dyn SchedClass {
        match self {
            Balancing::Fair(c) => c,
            Balancing::Idle(c) => c,
            Balancing::Rt(c) => c,
            Balancing::Hpc(c) => c,
        }
    }

    /// Everything of the class a balance could change: queue lengths,
    /// CFS's `min_vruntime`s, the HPC class's priority-change count and
    /// its balancer's snapshot.
    fn state(&mut self, ncpus: usize) -> Vec<u64> {
        let cpus = (0..ncpus).map(CpuId);
        let mut state: Vec<u64> =
            cpus.clone().map(|c| self.class().nr_runnable(c) as u64).collect();
        match self {
            Balancing::Fair(c) => state.extend(cpus.map(|cpu| c.min_vruntime(cpu))),
            Balancing::Hpc(c) => {
                let mut w = SnapshotWriter::new();
                c.balancer().snapshot(&mut w);
                state.push(c.priority_changes());
                state.extend(w.payload().iter().map(|&b| u64::from(b)));
            }
            Balancing::Idle(_) | Balancing::Rt(_) => {}
        }
        state
    }
}

/// Set up every builtin class and the HPC class under every registry
/// policy with a task running on each CPU in `running`, the history
/// `samples` and `charges` leave, and one task queued on each CPU of
/// `pinned`, allowed on that CPU alone; then check that a `load_balance`
/// on every CPU, periodic or (with `idle`) idle, returns nothing and
/// changes neither the class nor any task.
fn balance_is_a_no_op(
    running: &[bool],
    round_robin: bool,
    samples: &[(usize, u64, u64)],
    charges: &[(usize, u64)],
    pinned: &[usize],
    idle: bool,
) {
    let topology = Topology::openpower_710();
    let ncpus = topology.num_cpus();
    for which in 0..3 + registry().len() {
        let (mut balancing, policy) = Balancing::new(which, round_robin);
        balancing.class().init_cpus(ncpus);
        // Tasks 0..4 may run, one on each CPU; 4 and 5 only sleep; the
        // rest are the pinned ones.
        let mut tasks: Vec<Task> = (0..6 + pinned.len())
            .map(|i| {
                let program = Box::new(ScriptedProgram::compute_once(1.0));
                Task::new(TaskId(i), format!("t{i}"), policy, program, SimTime::ZERO)
            })
            .collect();
        let on_cpu: Vec<Option<TaskId>> =
            (0..ncpus).map(|c| running[c].then_some(TaskId(c))).collect();
        let mut ctx = ClassCtx {
            now: SimTime::ZERO,
            tasks: &mut tasks,
            topology: &topology,
            running: &on_cpu,
        };
        let class = balancing.class();
        for &(task, run_us, wall_us) in samples {
            let run = SimDuration::from_micros(run_us);
            let wall = SimDuration::from_micros(wall_us).max(run);
            class.task_woken(&mut ctx, TaskId(task), run, wall);
        }
        for cpu in (0..ncpus).filter(|&c| running[c]) {
            let (cpu, task) = (CpuId(cpu), TaskId(cpu));
            class.enqueue(&mut ctx, cpu, task, EnqueueKind::New);
            prop_assert_eq!(class.pick_next(&mut ctx, cpu), Some(task));
            ctx.task_mut(task).state = TaskState::Running;
            ctx.task_mut(task).cpu = Some(cpu);
        }
        for (i, &cpu) in pinned.iter().enumerate() {
            let (cpu, task) = (CpuId(cpu), TaskId(6 + i));
            ctx.task_mut(task).affinity = Some(vec![cpu]);
            ctx.task_mut(task).cpu = Some(cpu);
            class.enqueue(&mut ctx, cpu, task, EnqueueKind::New);
        }
        ctx.now = SimTime::ZERO + ms(1);
        for &(cpu, ns) in charges.iter().filter(|&&(cpu, _)| running[cpu]) {
            let delta = SimDuration::from_nanos(ns);
            balancing.class().charge(&mut ctx, CpuId(cpu), TaskId(cpu), delta);
        }
        let view = |tasks: &[Task]| -> Vec<_> {
            let fields = |t: &Task| (t.vruntime, t.slice_left, t.hw_prio, t.cpu, t.state);
            tasks.iter().map(fields).collect()
        };
        let before = (balancing.state(ncpus), view(ctx.tasks));
        for cpu in 0..ncpus {
            let queued = pinned.iter().filter(|&&c| c == cpu).count() as u64;
            prop_assert_eq!(before.0[cpu], queued, "queued on CPU {}", cpu);
        }
        for cpu in (0..ncpus).map(CpuId) {
            let migration = balancing.class().load_balance(&mut ctx, cpu, idle);
            prop_assert!(migration.is_none(), "class {} moved {:?}", which, migration);
            prop_assert_eq!(&(balancing.state(ncpus), view(ctx.tasks)), &before);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// With no task queued on any CPU, a periodic `load_balance` returns
    /// nothing and changes neither the class nor any task, for the four
    /// builtin classes and the HPC class under every registry policy,
    /// whatever runs where and whatever history the balancer has.
    #[test]
    fn periodic_balance_with_nothing_queued_is_a_no_op(
        running in proptest::collection::vec(any::<bool>(), 4),
        round_robin in any::<bool>(),
        samples in proptest::collection::vec((0usize..6, 0u64..50_000, 1u64..50_000), 0..12),
        charges in proptest::collection::vec((0usize..4, 0u64..5_000_000), 0..8),
    ) {
        balance_is_a_no_op(&running, round_robin, &samples, &charges, &[], false);
    }

    /// The same with tasks queued that may run only on the CPU they are
    /// queued on, like the noise daemons: no balance can move one.
    #[test]
    fn periodic_balance_with_only_pinned_tasks_queued_is_a_no_op(
        running in proptest::collection::vec(any::<bool>(), 4),
        round_robin in any::<bool>(),
        samples in proptest::collection::vec((0usize..6, 0u64..50_000, 1u64..50_000), 0..12),
        charges in proptest::collection::vec((0usize..4, 0u64..5_000_000), 0..8),
        pinned in proptest::collection::vec(0usize..4, 1..6),
    ) {
        balance_is_a_no_op(&running, round_robin, &samples, &charges, &pinned, false);
    }

    /// An idle `load_balance` keeps the same contract, with nothing
    /// queued or only pinned tasks: a CPU that runs dry then has nothing
    /// to pull, and the kernel skips the call.
    #[test]
    fn idle_balance_with_nothing_movable_queued_is_a_no_op(
        running in proptest::collection::vec(any::<bool>(), 4),
        round_robin in any::<bool>(),
        samples in proptest::collection::vec((0usize..6, 0u64..50_000, 1u64..50_000), 0..12),
        charges in proptest::collection::vec((0usize..4, 0u64..5_000_000), 0..8),
        pinned in proptest::collection::vec(0usize..4, 0..6),
    ) {
        balance_is_a_no_op(&running, round_robin, &samples, &charges, &pinned, true);
    }
}

/// The no-op checks above are not vacuous: every class but the idle class
/// pulls on an idle call when the same kind of queue holds movable tasks.
#[test]
fn an_idle_balance_pulls_movable_tasks() {
    let topology = Topology::openpower_710();
    for which in 0..3 + registry().len() {
        let (mut balancing, policy) = Balancing::new(which, false);
        let class = balancing.class();
        class.init_cpus(topology.num_cpus());
        let mut tasks: Vec<Task> = (0..3)
            .map(|i| {
                let program = Box::new(ScriptedProgram::compute_once(1.0));
                let mut task =
                    Task::new(TaskId(i), format!("t{i}"), policy, program, SimTime::ZERO);
                task.cpu = Some(CpuId(0));
                task
            })
            .collect();
        let running = [None; 4];
        let mut ctx = ClassCtx {
            now: SimTime::ZERO,
            tasks: &mut tasks,
            topology: &topology,
            running: &running,
        };
        for i in 0..3 {
            class.enqueue(&mut ctx, CpuId(0), TaskId(i), EnqueueKind::New);
        }
        let migration = class.load_balance(&mut ctx, CpuId(3), true);
        assert_eq!(migration.is_some(), which != 1, "class {which} planned {migration:?}");
    }
}
