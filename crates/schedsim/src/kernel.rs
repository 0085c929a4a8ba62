//! The Scheduler Core (paper §III): per-CPU state, the class chain walk,
//! dispatch, wakeups, ticks, load balancing — driven by a discrete-event
//! loop over simulated time, with task speeds supplied by the POWER5 chip
//! model.

use crate::class::{ClassCtx, EnqueueKind, Migration, SchedClass};
use crate::classes::{FairClass, IdleClass, RtClass};
use crate::config::KernelConfig;
use crate::error::SchedError;
use crate::fault::FaultEvent;
use crate::policy::SchedPolicy;
use crate::program::{Action, KernelApi, Program, TokenTable, WaitToken};
use crate::task::{Task, TaskId, TaskState};
use crate::trace::{KernelEvent, Observer, TraceEvent, TraceRecord};
use power5::{Chip, CpuId, HwPriority, PrivilegeLevel, TaskPerfTraits, Topology};
use simcore::{EventQueue, EventQueueCounters, SimDuration, SimRng, SimTime};
use telemetry::{Counter, HistogramHandle, MetricsRegistry};

/// Kernel events.
#[derive(Clone, Copy, Debug)]
enum KEvent {
    /// Periodic scheduler tick on a CPU.
    Tick(CpuId),
    /// The running task on a CPU finished its current compute segment.
    WorkDone(CpuId),
    /// A timed token signal fired (timer, message delivery).
    Signal(WaitToken),
    /// An injected fault fired (see [`crate::fault::FaultEvent`]).
    Fault(FaultEvent),
}

struct CpuState {
    /// Cached speed factor of the running task (from the chip model).
    speed: f64,
    /// Accounting synced up to this instant.
    last_sync: SimTime,
    /// Context-switch penalty: no work accrues before this instant.
    switch_until: SimTime,
    /// Injected steal burst: no work accrues before this instant either.
    /// Kept separate from `switch_until` so dispatch (which overwrites the
    /// switch penalty) cannot shorten an in-flight burst.
    steal_until: SimTime,
    need_resched: bool,
    ticks: u64,
}

impl CpuState {
    fn new() -> Self {
        CpuState {
            speed: 0.0,
            last_sync: SimTime::ZERO,
            switch_until: SimTime::ZERO,
            steal_until: SimTime::ZERO,
            need_resched: false,
            ticks: 0,
        }
    }
}

/// Options for [`Kernel::spawn`].
#[derive(Default)]
pub struct SpawnOptions {
    pub nice: i32,
    pub rt_priority: u8,
    pub affinity: Option<Vec<CpuId>>,
    pub perf: Option<TaskPerfTraits>,
    /// Fixed hardware priority (the *static* prioritization of the paper's
    /// earlier work); defaults to Medium (4).
    pub hw_prio: Option<HwPriority>,
}

/// Hot-path metric handles, registered once at kernel construction so
/// recording is a relaxed atomic op with no registry lookup. The two
/// per-event counts, ticks and context switches, are tallied in a plain
/// [`HotTally`] instead and added here when a public method returns.
struct KernelCounters {
    context_switches: Counter,
    ticks: Counter,
    /// Task-level hardware-priority changes; reconciles 1:1 with
    /// [`TraceEvent::HwPrio`] records.
    task_hw_prio_transitions: Counter,
    /// Iteration completions; reconciles 1:1 with
    /// [`TraceEvent::IterationEnd`] records.
    iterations: Counter,
    /// Task exits; reconciles 1:1 with [`TraceEvent::Exit`] records.
    task_exits: Counter,
    /// Injected CPU steal bursts delivered (fault class 1).
    fault_steal_bursts: Counter,
    /// Injected per-task speed-multiplier changes delivered (fault class 2).
    fault_slowdowns: Counter,
    /// Simulated wakeup→dispatch latency, nanoseconds.
    dispatch_latency_ns: HistogramHandle,
    /// Runnable tasks across classes on the picking CPU, sampled per pick.
    runq_depth: HistogramHandle,
    /// Per-CPU hardware priority register transitions.
    cpu_hw_prio_transitions: Vec<Counter>,
}

impl KernelCounters {
    fn register(registry: &MetricsRegistry, ncpus: usize) -> KernelCounters {
        KernelCounters {
            context_switches: registry.counter("kernel.context_switches"),
            ticks: registry.counter("kernel.ticks"),
            task_hw_prio_transitions: registry.counter("kernel.hw_prio_transitions"),
            iterations: registry.counter("kernel.iterations"),
            task_exits: registry.counter("kernel.task_exits"),
            fault_steal_bursts: registry.counter("kernel.faults.steal_bursts"),
            fault_slowdowns: registry.counter("kernel.faults.slowdowns"),
            dispatch_latency_ns: registry.histogram("kernel.dispatch_latency_ns"),
            runq_depth: registry.histogram("kernel.runq_depth"),
            cpu_hw_prio_transitions: (0..ncpus)
                .map(|c| registry.counter(&format!("cpu{c}.hw_prio_transitions")))
                .collect(),
        }
    }
}

/// Counts of the kernel's most frequent events since the counters were
/// last published (see [`Kernel::publish_counters`]).
#[derive(Default)]
struct HotTally {
    ticks: u64,
    context_switches: u64,
}

/// The simulated kernel.
pub struct Kernel {
    chip: Chip,
    config: KernelConfig,
    now: SimTime,
    tasks: Vec<Task>,
    classes: Vec<Box<dyn SchedClass>>,
    /// Index into `classes` of the class handling each policy, indexed by
    /// `SchedPolicy as usize`; rebuilt whenever `classes` changes.
    policy_class: [Option<usize>; SchedPolicy::ALL.len()],
    /// Signals and faults in the heap; each CPU's tick in timer lane `cpu`
    /// and its completion timer in lane `ncpus + cpu`
    /// ([`Kernel::workdone_lane`]).
    events: EventQueue<KEvent>,
    cpus: Vec<CpuState>,
    /// The task dispatched on each CPU, indexed by CPU id; lent to the
    /// classes as [`ClassCtx::running`].
    running: Vec<Option<TaskId>>,
    tokens: TokenTable,
    observers: Vec<Box<dyn Observer>>,
    rng: SimRng,
    registry: MetricsRegistry,
    counters: KernelCounters,
    tally: HotTally,
    /// A running task's class declined [`SchedClass::tick_quiet`] and no
    /// task has been dispatched or migrated since, so no round can be
    /// quiet yet and `fast_forward` returns at once. Skipping a replay
    /// never changes results, only how fast they come.
    quiet_blocked: bool,
    transition_guard: u32,
}

impl Kernel {
    /// Build a kernel with the standard class chain (RT → CFS → Idle) on the
    /// given chip. Install additional classes (e.g. the HPC class) with
    /// [`Kernel::install_class_after_rt`] *before* spawning tasks.
    pub fn new(chip: Chip, config: KernelConfig) -> Self {
        let ncpus = chip.topology().num_cpus();
        let mut classes: Vec<Box<dyn SchedClass>> = vec![
            Box::new(RtClass::new(config.rt_rr_slice)),
            Box::new(FairClass::new(config.cfs)),
            Box::new(IdleClass::new()),
        ];
        for c in &mut classes {
            c.init_cpus(ncpus);
        }
        let registry = MetricsRegistry::new();
        let counters = KernelCounters::register(&registry, ncpus);
        let lanes = (0..ncpus).map(|cpu| KEvent::Tick(CpuId(cpu)));
        let lanes = lanes.chain((0..ncpus).map(|cpu| KEvent::WorkDone(CpuId(cpu))));
        let mut events = EventQueue::with_lanes(lanes.collect());
        events.attach_counters(EventQueueCounters::register(&registry, "sim.events"));
        for cpu in 0..ncpus {
            events.arm(cpu, SimTime::ZERO + config.tick);
        }
        let cpus = (0..ncpus).map(|_| CpuState::new()).collect();
        let rng = SimRng::seed_from_u64(config.seed);
        let mut kernel = Kernel {
            chip,
            config,
            now: SimTime::ZERO,
            tasks: Vec::new(),
            policy_class: policy_table(&classes),
            classes,
            events,
            cpus,
            running: vec![None; ncpus],
            tokens: TokenTable::default(),
            observers: Vec::new(),
            rng,
            registry,
            counters,
            tally: HotTally::default(),
            quiet_blocked: false,
            transition_guard: 0,
        };
        kernel.spawn_noise_daemons();
        kernel.publish_counters();
        kernel
    }

    /// Insert a scheduling class between the real-time class and CFS —
    /// exactly where the paper puts `SCHED_HPC` (Figure 1(b)).
    ///
    /// # Panics
    /// If tasks have already been spawned (class sets must be fixed first).
    pub fn install_class_after_rt(&mut self, mut class: Box<dyn SchedClass>) {
        assert!(
            self.tasks.iter().all(|t| t.policy == SchedPolicy::Normal),
            "install classes before spawning application tasks"
        );
        class.init_cpus(self.cpus.len());
        self.classes.insert(1, class);
        self.policy_class = policy_table(&self.classes);
    }

    /// Attach an observer to the kernel's trace: every [`TraceRecord`] of
    /// the run, in order. Shared-handle sinks like
    /// [`SharedSink`](crate::SharedSink) attach directly — the caller keeps
    /// its handle and never needs the sink back.
    pub fn observe(&mut self, observer: Box<dyn Observer>) {
        self.observers.push(observer);
    }

    /// The kernel's metric registry: counters, gauges and histograms for
    /// every instrumented hot path. Handles are cheap to clone; snapshots
    /// are deterministic (name-sorted). Every public method that moves a
    /// counter publishes it before returning, so a snapshot taken between
    /// calls is exact.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events popped off the event queue so far, from its heap or its
    /// timer lanes ([`EventQueue::pops`]): what a run costs, where the
    /// `sim.events.processed` counter is what it means. Events replayed
    /// by the quiet-tick fast-forward are processed but never popped.
    pub fn queue_pops(&self) -> u64 {
        self.events.pops()
    }

    pub fn topology(&self) -> &Topology {
        self.chip.topology()
    }

    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    // ------------------------------------------------------------------
    // Spawning
    // ------------------------------------------------------------------

    /// Create a task and make it runnable. Placement: the allowed CPU with
    /// the fewest runnable tasks (ties to the lowest CPU id), mirroring
    /// fork balancing.
    ///
    /// # Panics
    /// On invalid input — no class handles `policy`, or the affinity mask
    /// excludes every CPU. Use [`Kernel::try_spawn`] to handle these as
    /// errors instead.
    #[expect(
        clippy::panic,
        reason = "INVARIANT: panicking wrapper by documented contract; fallible callers use \
                  try_spawn directly."
    )]
    pub fn spawn(
        &mut self,
        name: impl Into<String>,
        policy: SchedPolicy,
        program: Box<dyn Program>,
        opts: SpawnOptions,
    ) -> TaskId {
        self.try_spawn(name, policy, program, opts)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Kernel::spawn`]: rejects a policy no installed class
    /// handles and an affinity mask that excludes every CPU, without
    /// touching kernel state.
    pub fn try_spawn(
        &mut self,
        name: impl Into<String>,
        policy: SchedPolicy,
        program: Box<dyn Program>,
        opts: SpawnOptions,
    ) -> Result<TaskId, SchedError> {
        let spawned = self.spawn_task(name.into(), policy, program, opts);
        self.publish_counters();
        spawned
    }

    fn spawn_task(
        &mut self,
        name: String,
        policy: SchedPolicy,
        program: Box<dyn Program>,
        opts: SpawnOptions,
    ) -> Result<TaskId, SchedError> {
        // Validate everything before mutating: a rejected spawn must leave
        // no trace records, queue entries, or task slots behind.
        let class = self.try_class_of_policy(policy)?;
        let id = TaskId(self.tasks.len());
        let mut task = Task::new(id, name, policy, program, self.now);
        task.nice = opts.nice;
        task.rt_priority = opts.rt_priority;
        task.affinity = opts.affinity;
        if let Some(p) = opts.perf {
            task.perf = p;
        }
        if let Some(hp) = opts.hw_prio {
            task.hw_prio = hp;
        }
        let Some(cpu) = self.least_loaded_cpu(&task) else {
            return Err(SchedError::UnschedulableAffinity { task: task.name.clone() });
        };
        self.emit(id, TraceEvent::Spawn { name: self.tasks_name(&task) });
        task.cpu = Some(cpu);
        self.tasks.push(task);

        self.with_ctx(class, |class, ctx| class.enqueue(ctx, cpu, id, EnqueueKind::New));
        self.tasks[id.0].last_state_change = self.now;
        self.emit(id, TraceEvent::State { state: TaskState::Runnable, cpu: Some(cpu) });
        self.check_preempt(cpu, id);
        self.settle();
        Ok(id)
    }

    fn tasks_name(&self, t: &Task) -> String {
        t.name.clone()
    }

    /// `None` when the task's affinity mask excludes every CPU.
    fn least_loaded_cpu(&self, task: &Task) -> Option<CpuId> {
        // Count *live tasks homed on each CPU* (running, queued or
        // sleeping): fork-time balancing must spread tasks that block
        // immediately after starting (every MPI rank does).
        let mut homed = vec![0usize; self.cpus.len()];
        for t in &self.tasks {
            if t.is_live() {
                if let Some(c) = t.cpu {
                    homed[c.0] += 1;
                }
            }
        }
        let mut best: Option<(usize, CpuId)> = None;
        for cpu in self.chip.topology().cpus() {
            if !task.allowed_on(cpu) {
                continue;
            }
            match best {
                Some((b, _)) if homed[cpu.0] >= b => {}
                _ => best = Some((homed[cpu.0], cpu)),
            }
        }
        best.map(|(_, c)| c)
    }

    fn spawn_noise_daemons(&mut self) {
        let noise = self.config.noise;
        if noise.is_off() {
            return;
        }
        let cpus: Vec<CpuId> = self.chip.topology().cpus().collect();
        for cpu in cpus {
            for d in 0..noise.daemons_per_cpu {
                let rng = self.rng.fork((cpu.0 as u64) << 8 | d as u64);
                let prog = crate::noise::NoiseDaemon::new(noise, rng);
                self.spawn(
                    format!("kdaemon-{}/{}", cpu.0, d),
                    SchedPolicy::Normal,
                    Box::new(prog),
                    SpawnOptions { affinity: Some(vec![cpu]), ..Default::default() },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Process one event. Returns `false` when no events remain.
    pub fn step(&mut self) -> bool {
        let more = self.advance().is_some();
        self.publish_counters();
        more
    }

    /// [`Kernel::step`] without publishing the counters; returns the event
    /// it processed.
    fn advance(&mut self) -> Option<KEvent> {
        let ev = self.events.pop()?;
        debug_assert!(ev.time >= self.now);
        self.sync_to(ev.time);
        match ev.payload {
            KEvent::Tick(cpu) => self.handle_tick(cpu),
            // A completion timer's lane holds only its latest arming, so
            // an event that fires is authoritative.
            KEvent::WorkDone(cpu) => self.handle_workdone(cpu),
            KEvent::Signal(tok) => self.tokens.signal(tok),
            KEvent::Fault(fault) => self.handle_fault(fault),
        }
        self.settle();
        Some(ev.payload)
    }

    /// Whether a quiet tick round may start after `ev`. Not after a tick
    /// of any CPU but the last: the rest of that round is still pending.
    fn may_start_round(&self, ev: KEvent) -> bool {
        !matches!(ev, KEvent::Tick(cpu) if cpu.0 + 1 < self.cpus.len())
    }

    /// Schedule an injected fault at `at` (clamped to the current time).
    ///
    /// Faults ride the ordinary event queue, so a faulted run remains a
    /// pure function of `(config, seed, plan)`. Stale references — a CPU or
    /// task index the plan got wrong — are dropped at delivery time rather
    /// than panicking: fault plans describe hostile conditions, and a bad
    /// plan must degrade the run, never crash the simulator.
    pub fn inject_fault(&mut self, at: SimTime, fault: FaultEvent) {
        self.events.schedule(at.max(self.now), KEvent::Fault(fault));
        self.publish_counters();
    }

    fn handle_fault(&mut self, fault: FaultEvent) {
        match fault {
            FaultEvent::StealBurst { cpu, duration } => {
                if cpu.0 >= self.cpus.len() || duration.is_zero() {
                    return;
                }
                self.counters.fault_steal_bursts.inc();
                // The thief holds the context: no work accrues before the
                // burst ends (sync_cpu and rearm_workdone both respect
                // `steal_until`), like a context-switch stall of fault
                // length. Overlapping bursts extend, never shorten.
                let until = self.now + duration;
                let cs = &mut self.cpus[cpu.0];
                if until > cs.steal_until {
                    cs.steal_until = until;
                }
            }
            FaultEvent::SlowTask { task, factor } => {
                if task.0 >= self.tasks.len() || !factor.is_finite() || factor < 0.0 {
                    return;
                }
                self.counters.fault_slowdowns.inc();
                self.tasks[task.0].fault_slow = factor;
            }
        }
        // settle() runs after every event and re-arms completion events
        // against the new stall horizon / speed.
    }

    /// Run until every task in `until_exited` has exited, or `deadline`
    /// simulated time passes. Returns the exit time of the last task, or
    /// `None` on deadline.
    pub fn run_until_exited(
        &mut self,
        until_exited: &[TaskId],
        deadline: SimDuration,
    ) -> Option<SimTime> {
        let deadline = self.now.saturating_add(deadline);
        let mut replay = true;
        let end = loop {
            if until_exited.iter().all(|&t| self.tasks[t.0].state == TaskState::Exited) {
                break Some(
                    until_exited
                        .iter()
                        .filter_map(|&t| self.tasks[t.0].exited_at)
                        .max()
                        .unwrap_or(self.now),
                );
            }
            if self.now >= deadline {
                break None;
            }
            if replay {
                self.fast_forward(deadline);
            }
            let Some(ev) = self.advance() else { break None };
            replay = self.may_start_round(ev);
        };
        self.publish_counters();
        end
    }

    /// Run for a fixed span of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        let end = self.now + span;
        let mut replay = true;
        while self.now < end {
            if replay {
                self.fast_forward(end);
            }
            match self.events.peek_time() {
                Some(t) if t <= end => {
                    replay = self.advance().is_some_and(|ev| self.may_start_round(ev));
                }
                _ => {
                    self.sync_to(end);
                    break;
                }
            }
        }
        self.publish_counters();
    }

    /// Replay whole quiet tick rounds strictly before `limit` without the
    /// event queue (DESIGN §5 note 7). A round at `at` is quiet when every
    /// CPU's tick is pending at `at`, no completion timer, signal or fault
    /// fires at or before `at`, no CPU balances on this tick while a task
    /// is queued, and every running task's class reports
    /// [`SchedClass::tick_quiet`]. Such a
    /// round only syncs accounting, counts the ticks and re-derives the
    /// completion times, so that is all a replayed round does, with the
    /// same float operations in the same order as the event-by-event path.
    /// Runs of uniform rounds are synced in one batch
    /// ([`Kernel::sync_uniform`]). The queue is then left as those events
    /// would have left it.
    // Out of line: the run loops call it about once per tick round, and
    // inlined it would crowd their per-event path.
    #[inline(never)]
    fn fast_forward(&mut self, limit: SimTime) {
        if self.quiet_blocked {
            return;
        }
        // At the start of a round CPU 0's tick is the next event.
        let Some(mut at) = self.events.lane_time(0) else { return };
        if at >= limit || self.events.peek_time() != Some(at) {
            return;
        }
        let ncpus = self.cpus.len();
        for cpu in 0..ncpus {
            if self.events.lane_time(cpu) != Some(at) {
                return;
            }
            if let Some(tid) = self.running[cpu] {
                let class = self.class_of_policy(self.tasks[tid.0].policy);
                if !self.with_ctx(class, |class, ctx| class.tick_quiet(ctx, CpuId(cpu), tid)) {
                    self.quiet_blocked = true;
                    return;
                }
            }
        }
        let interval = u64::from(self.config.balance_interval_ticks);
        // With nothing queued anywhere a periodic balance moves nothing and
        // changes nothing (the `SchedClass::load_balance` contract), and a
        // quiet round queues nothing, so only queued work stops a stretch
        // short of the next tick that balances.
        let max_rounds = if interval == 0 || self.nothing_queued() {
            u64::MAX
        } else {
            self.cpus.iter().map(|cs| interval - 1 - cs.ticks % interval).min().unwrap_or(0)
        };
        if max_rounds == 0 {
            return;
        }
        // Signals and faults are the only events outside the lanes.
        let stop = self.events.peek_heap_time().map_or(limit, |t| t.min(limit));
        let tick = self.config.tick;
        let mut rounds = 0;
        // An idle or stalled CPU's timer is disarmed and never stops the
        // replay; `tick_rounds` moves the armed ones after every batch.
        while rounds < max_rounds
            && at < stop
            && (ncpus..2 * ncpus).all(|lane| self.events.lane_time(lane).is_none_or(|t| t > at))
        {
            let n = if self.is_uniform(at) {
                let n = self.uniform_rounds(at, max_rounds - rounds, stop);
                self.sync_uniform(at, n);
                n
            } else {
                self.sync_to(at);
                1
            };
            self.tick_rounds(at, n);
            rounds += n;
            at += tick * n;
        }
    }

    /// Whether no class has a task queued on any CPU.
    fn nothing_queued(&self) -> bool {
        let ncpus = self.cpus.len();
        self.classes.iter().all(|c| (0..ncpus).all(|cpu| c.nr_runnable(CpuId(cpu)) == 0))
    }

    /// Whether the round at `at` is uniform: every running CPU accrues
    /// exactly one tick, because its last sync was the previous round and
    /// no context switch or steal burst holds it past that. Every later
    /// round of the stretch is then uniform too.
    fn is_uniform(&self, at: SimTime) -> bool {
        let tick = self.config.tick;
        self.cpus.iter().zip(&self.running).all(|(cs, running)| {
            running.is_none() || {
                let start = cs.last_sync.max(cs.switch_until).max(cs.steal_until).min(at);
                at.saturating_since(start) == tick
            }
        })
    }

    /// How many quiet rounds from the uniform round at `at` on may run, at
    /// most `max` and all before `stop`: the first always may (the caller
    /// checked it), and each later one while every armed completion time
    /// re-derived after the round before it is past it.
    fn uniform_rounds(&self, at: SimTime, max: u64, stop: SimTime) -> u64 {
        let tick = self.config.tick;
        let mut n = max.min(stop.saturating_since(at).as_nanos().div_ceil(tick.as_nanos()));
        for cpu in 0..self.cpus.len() {
            if self.events.lane_time(self.workdone_lane(cpu)).is_none() {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: only a running task's completion timer is armed."
            )]
            let tid = self.running[cpu].expect("an armed CPU runs a task");
            let (remaining, speed) = (self.tasks[tid.0].remaining_work, self.cpus[cpu].speed);
            n = rounds_before_completion(remaining, speed, tick, n);
        }
        n
    }

    /// The accounting of `n` uniform rounds from `at` at once: bit for bit
    /// what one `sync_to` per round would do, since every running CPU
    /// accrues one tick per round ([`Kernel::accrue`]).
    /// [`Kernel::tick_rounds`] sets the clock.
    fn sync_uniform(&mut self, at: SimTime, n: u64) {
        debug_assert!(n > 0 && self.is_uniform(at));
        let tick = self.config.tick;
        let last = at + tick * (n - 1);
        for cpu in 0..self.cpus.len() {
            self.cpus[cpu].last_sync = last;
            if let Some(tid) = self.running[cpu] {
                self.accrue(CpuId(cpu), tid, tick, n);
            }
        }
    }

    /// The tick half of `n` synced quiet rounds from `at`: count the ticks
    /// and leave the event queue as their pops and re-arms would. No chip
    /// input changed since the last settle, so `refresh_hw` would only
    /// have re-armed the timers: each armed one moves to its completion
    /// time re-derived at the last round. An armed CPU stays armed: its
    /// task and speed are unchanged.
    fn tick_rounds(&mut self, at: SimTime, n: u64) {
        let ncpus = self.cpus.len();
        self.tally.ticks += n * ncpus as u64;
        for cs in &mut self.cpus {
            cs.ticks += n;
        }
        let tick = self.config.tick;
        self.now = at + tick * (n - 1);
        let (now, cpus, running, tasks) = (self.now, &self.cpus, &self.running, &self.tasks);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: only a running task's completion timer is armed, and a CPU \
                      whose task could run was armed at a positive speed."
        )]
        self.events.replay_rounds(n, tick, 0..ncpus, ncpus..2 * ncpus, |lane| {
            let cpu = lane - ncpus;
            let tid = running[cpu].expect("an armed CPU runs a task");
            completion_time(now, &cpus[cpu], tasks[tid.0].remaining_work)
                .expect("an armed CPU's task makes progress")
        });
    }

    /// Add the hot tallies (kernel and event queue) to their registry
    /// counters. Every public method that can move them calls this before
    /// returning, so registry readers, who only ever look between calls,
    /// see exact values.
    fn publish_counters(&mut self) {
        self.events.publish();
        let t = std::mem::take(&mut self.tally);
        self.counters.ticks.add(t.ticks);
        self.counters.context_switches.add(t.context_switches);
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    /// Advance accounting on every CPU to `t` and set the kernel clock.
    fn sync_to(&mut self, t: SimTime) {
        debug_assert!(t >= self.now);
        for cpu in 0..self.cpus.len() {
            self.sync_cpu(CpuId(cpu), t);
        }
        self.now = t;
    }

    fn sync_cpu(&mut self, cpu: CpuId, t: SimTime) {
        let cs = &mut self.cpus[cpu.0];
        let start = cs.last_sync.max(cs.switch_until).max(cs.steal_until).min(t);
        cs.last_sync = t;
        let Some(tid) = self.running[cpu.0] else { return };
        let delta = t.saturating_since(start);
        if !delta.is_zero() {
            self.accrue(cpu, tid, delta, 1);
        }
    }

    /// Account `n` back-to-back rounds of `delta` each to `tid`, running on
    /// `cpu`: the integer counters move by `n · delta`, `remaining_work`
    /// ends where `n` float steps leave it (a product would round
    /// differently; [`descend`] takes the steps in closed form), and the
    /// class is charged with `charge`, or `charge_rounds` for `n > 1`.
    #[inline]
    fn accrue(&mut self, cpu: CpuId, tid: TaskId, delta: SimDuration, n: u64) {
        let work = delta.as_secs_f64() * self.cpus[cpu.0].speed;
        let task = &mut self.tasks[tid.0];
        debug_assert_eq!(task.state, TaskState::Running);
        task.exec_total += delta * n;
        task.iter.run_in_iter += delta * n;
        task.remaining_work = if n == 1 {
            (task.remaining_work - work).max(0.0)
        } else {
            descend(task.remaining_work, work, n, f64::NEG_INFINITY).0
        };
        let policy = task.policy;
        let class = self.class_of_policy(policy);
        if n == 1 {
            self.with_ctx(class, |class, ctx| class.charge(ctx, cpu, tid, delta));
        } else {
            self.with_ctx(class, |class, ctx| class.charge_rounds(ctx, cpu, tid, delta, n));
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn handle_tick(&mut self, cpu: CpuId) {
        self.tally.ticks += 1;
        self.cpus[cpu.0].ticks += 1;
        self.events.arm(cpu.0, self.now + self.config.tick);

        if let Some(tid) = self.running[cpu.0] {
            let class = self.class_of_policy(self.tasks[tid.0].policy);
            let resched = self.with_ctx(class, |class, ctx| class.task_tick(ctx, cpu, tid));
            if resched {
                self.cpus[cpu.0].need_resched = true;
            }
        }

        // Periodic load balancing.
        let interval = self.config.balance_interval_ticks;
        if interval > 0 && self.cpus[cpu.0].ticks.is_multiple_of(interval as u64) {
            self.balance(cpu, false);
        }
    }

    fn handle_workdone(&mut self, cpu: CpuId) {
        let Some(tid) = self.running[cpu.0] else { return };
        // Guard against float dust: the segment is done when the event
        // fires (sync_to already subtracted the work).
        if self.tasks[tid.0].remaining_work > 1e-12 {
            // Speed changed since the event was armed and re-arm missed it;
            // simply re-arm from current state.
            self.cpus[cpu.0].need_resched = false;
            return;
        }
        self.tasks[tid.0].remaining_work = 0.0;
        self.run_transitions(tid);
    }

    // ------------------------------------------------------------------
    // Program transitions
    // ------------------------------------------------------------------

    /// Drive `tid`'s program forward until it computes, sleeps, or exits.
    /// The task must be `Running` on its CPU.
    fn run_transitions(&mut self, tid: TaskId) {
        self.transition_guard = 0;
        loop {
            self.transition_guard += 1;
            assert!(
                self.transition_guard < 100_000,
                "program transition livelock on {:?}",
                tid
            );
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the program is only ever taken for the duration of this \
                          call and restored two lines below."
            )]
            let mut program = self.tasks[tid.0].program.take().expect("task has a program");
            let mut deferred: Vec<(SimTime, WaitToken)> = Vec::new();
            let mut policy_change = None;
            let action = {
                let mut api = KernelApi {
                    now: self.now,
                    caller: tid,
                    tokens: &mut self.tokens,
                    deferred_signals: &mut deferred,
                    policy_change: &mut policy_change,
                };
                program.next_action(&mut api)
            };
            self.tasks[tid.0].program = Some(program);
            for (at, tok) in deferred {
                self.events.schedule(at.max(self.now), KEvent::Signal(tok));
            }
            if let Some(policy) = policy_change {
                self.apply_policy_change(tid, policy);
            }
            match action {
                Action::Compute(w) => {
                    assert!(w.is_finite() && w >= 0.0, "invalid work amount {w}");
                    self.tasks[tid.0].remaining_work = w;
                    break;
                }
                Action::Block(tok) => {
                    if self.tokens.block(tok, tid) {
                        // Already signalled: continue without sleeping.
                        continue;
                    }
                    self.block_current(tid);
                    break;
                }
                Action::Yield => {
                    self.yield_current(tid);
                    break;
                }
                Action::Exit => {
                    self.exit_current(tid);
                    break;
                }
            }
        }
    }

    fn apply_policy_change(&mut self, tid: TaskId, policy: SchedPolicy) {
        let task = &mut self.tasks[tid.0];
        debug_assert_eq!(
            task.state,
            TaskState::Running,
            "policy change only from the running task itself"
        );
        task.policy = policy;
    }

    fn block_current(&mut self, tid: TaskId) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: callers pass the running task; dispatch set its cpu."
        )]
        let cpu = self.tasks[tid.0].cpu.expect("running task has a cpu");
        debug_assert_eq!(self.running[cpu.0], Some(tid));
        let class = self.class_of_policy(self.tasks[tid.0].policy);
        self.with_ctx(class, |class, ctx| class.task_slept(ctx, cpu, tid));
        let task = &mut self.tasks[tid.0];
        task.state = TaskState::Sleeping;
        task.last_state_change = self.now;
        task.last_sleep_start = Some(self.now);
        self.running[cpu.0] = None;
        self.emit(tid, TraceEvent::State { state: TaskState::Sleeping, cpu: Some(cpu) });
        self.cpus[cpu.0].need_resched = true;
    }

    fn yield_current(&mut self, tid: TaskId) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: callers pass the running task; dispatch set its cpu."
        )]
        let cpu = self.tasks[tid.0].cpu.expect("running task has a cpu");
        debug_assert_eq!(self.running[cpu.0], Some(tid));
        let class = self.class_of_policy(self.tasks[tid.0].policy);
        self.running[cpu.0] = None;
        let task = &mut self.tasks[tid.0];
        task.state = TaskState::Runnable;
        task.last_state_change = self.now;
        self.with_ctx(class, |class, ctx| class.on_yield(ctx, cpu, tid));
        self.emit(tid, TraceEvent::State { state: TaskState::Runnable, cpu: Some(cpu) });
        self.cpus[cpu.0].need_resched = true;
    }

    fn exit_current(&mut self, tid: TaskId) {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: callers pass the running task; dispatch set its cpu."
        )]
        let cpu = self.tasks[tid.0].cpu.expect("running task has a cpu");
        debug_assert_eq!(self.running[cpu.0], Some(tid));
        let task = &mut self.tasks[tid.0];
        task.state = TaskState::Exited;
        task.exited_at = Some(self.now);
        task.last_state_change = self.now;
        self.running[cpu.0] = None;
        let class = self.class_of_policy(self.tasks[tid.0].policy);
        self.with_ctx(class, |class, ctx| class.task_exited(ctx, tid));
        self.emit(tid, TraceEvent::Exit);
        self.cpus[cpu.0].need_resched = true;
    }

    // ------------------------------------------------------------------
    // Wakeups
    // ------------------------------------------------------------------

    fn wake_task(&mut self, tid: TaskId) {
        let task = &self.tasks[tid.0];
        if task.state != TaskState::Sleeping {
            // Signal raced with something else (e.g. task exited); ignore.
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: block_current records the sleep start on every \
                      Running→Sleeping transition, checked just above."
        )]
        let slept_at = task.last_sleep_start.expect("sleeping task has sleep start");
        let iter_wall = self.now.saturating_since(task.iter.iter_started);
        let iter_run = task.iter.run_in_iter;
        let iterations = task.iter.iterations;
        let prio_before = task.hw_prio;
        let policy = task.policy;

        {
            let task = &mut self.tasks[tid.0];
            task.sleep_total += self.now.saturating_since(slept_at);
            task.state = TaskState::Runnable;
            task.last_state_change = self.now;
            task.last_wakeup = Some(self.now);
            task.iter.iterations += 1;
            task.iter.run_in_iter = SimDuration::ZERO;
            task.iter.iter_started = self.now;
        }

        // Iteration hook: the class may adjust hw_prio before re-dispatch.
        let class = self.class_of_policy(policy);
        self.with_ctx(class, |class, ctx| class.task_woken(ctx, tid, iter_run, iter_wall));
        let util = if iter_wall.is_zero() {
            1.0
        } else {
            iter_run.as_nanos() as f64 / iter_wall.as_nanos() as f64
        };
        self.emit(tid, TraceEvent::IterationEnd { index: iterations, utilization: util.min(1.0) });
        if self.tasks[tid.0].hw_prio != prio_before {
            self.emit(tid, TraceEvent::HwPrio { prio: self.tasks[tid.0].hw_prio });
        }

        let cpu = self.select_cpu(tid);
        self.tasks[tid.0].cpu = Some(cpu);
        self.with_ctx(class, |class, ctx| class.enqueue(ctx, cpu, tid, EnqueueKind::Wakeup));
        self.emit(tid, TraceEvent::State { state: TaskState::Runnable, cpu: Some(cpu) });
        self.check_preempt(cpu, tid);
    }

    /// Placement of a waking task, mirroring the era's `wake_idle`: return
    /// to the previous CPU if it is free, otherwise look for an idle
    /// allowed CPU (SMT sibling first, for cache affinity), otherwise fall
    /// back to the previous CPU.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: try_spawn rejects all-excluding affinity masks."
    )]
    fn select_cpu(&self, tid: TaskId) -> CpuId {
        let task = &self.tasks[tid.0];
        let my_class = self.class_of_policy(task.policy);
        // A CPU is "idle" *for this task* when nothing of its class or a
        // higher class runs or queues there — lower-class work (e.g. a CFS
        // noise daemon under an HPC task) is preempted immediately, so it
        // must not push the woken task off its cache-hot CPU.
        let idle = |c: CpuId| {
            let cur_busy = self.running[c.0]
                .map(|t| self.class_of_policy(self.tasks[t.0].policy) <= my_class)
                .unwrap_or(false);
            !cur_busy
                && self
                    .classes
                    .iter()
                    .take(my_class + 1)
                    .all(|cl| cl.nr_runnable(c) == 0)
        };
        if let Some(prev) = task.cpu {
            if task.allowed_on(prev) {
                if idle(prev) {
                    return prev;
                }
                // SMT siblings share the core's cache; try them (in
                // context order) before anything farther up the tree.
                let topo = self.chip.topology();
                for sib in topo.cpus_of_core(topo.core_of(prev)) {
                    if sib != prev && task.allowed_on(sib) && idle(sib) {
                        return sib;
                    }
                }
                if let Some(c) = self.chip.topology().cpus().find(|&c| task.allowed_on(c) && idle(c))
                {
                    return c;
                }
                return prev;
            }
        }
        self.chip
            .topology()
            .cpus()
            .find(|&c| task.allowed_on(c))
            .expect("task affinity excludes every CPU")
    }

    /// Decide whether the newly runnable `tid` (queued on `cpu`) preempts.
    fn check_preempt(&mut self, cpu: CpuId, tid: TaskId) {
        match self.running[cpu.0] {
            None => self.cpus[cpu.0].need_resched = true,
            Some(curr) => {
                let curr_class = self.class_of_policy(self.tasks[curr.0].policy);
                let new_class = self.class_of_policy(self.tasks[tid.0].policy);
                if new_class < curr_class {
                    self.cpus[cpu.0].need_resched = true;
                } else if new_class == curr_class {
                    let preempt = {
                        let ctx = ClassCtx {
                            now: self.now,
                            tasks: &mut self.tasks,
                            topology: self.chip.topology(),
                            running: &self.running,
                        };
                        self.classes[new_class].wakeup_preempt(&ctx, curr, tid)
                    };
                    if preempt {
                        self.cpus[cpu.0].need_resched = true;
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Drain pending wakeups and reschedule requests until quiescent, then
    /// refresh hardware state and re-arm completion events.
    fn settle(&mut self) {
        loop {
            let wakes = self.tokens.take_wakes();
            if wakes.is_empty() && !self.cpus.iter().any(|c| c.need_resched) {
                break;
            }
            for t in wakes {
                self.wake_task(t);
            }
            for cpu in 0..self.cpus.len() {
                if self.cpus[cpu].need_resched {
                    self.cpus[cpu].need_resched = false;
                    self.reschedule(CpuId(cpu));
                }
            }
        }
        self.refresh_hw();
    }

    /// Pick and dispatch the next task on `cpu`.
    fn reschedule(&mut self, cpu: CpuId) {
        self.quiet_blocked = false;
        let prev = self.running[cpu.0];
        // Put a still-running previous task back on its queue.
        if let Some(p) = prev {
            if self.tasks[p.0].state == TaskState::Running {
                let class = self.class_of_policy(self.tasks[p.0].policy);
                self.running[cpu.0] = None;
                let task = &mut self.tasks[p.0];
                task.state = TaskState::Runnable;
                task.last_state_change = self.now;
                self.with_ctx(class, |class, ctx| class.put_prev(ctx, cpu, p));
                self.emit(p, TraceEvent::State { state: TaskState::Runnable, cpu: Some(cpu) });
            }
        }

        loop {
            let runnable: usize = self.classes.iter().map(|c| c.nr_runnable(cpu)).sum();
            self.counters.runq_depth.record(runnable as u64);
            let mut next = None;
            for class in 0..self.classes.len() {
                next = self.with_ctx(class, |class, ctx| class.pick_next(ctx, cpu));
                if next.is_some() {
                    break;
                }
            }
            let Some(tid) = next else {
                // Nothing runnable: try an idle pull, then give up.
                if self.balance(cpu, true) {
                    continue;
                }
                self.running[cpu.0] = None;
                return;
            };
            self.dispatch(cpu, tid, prev);
            // The dispatched task may need its next action; it can sleep or
            // exit right here, in which case pick again.
            if self.running[cpu.0] == Some(tid) && self.tasks[tid.0].remaining_work == 0.0 {
                self.run_transitions(tid);
            }
            if self.running[cpu.0].is_some() {
                return;
            }
        }
    }

    fn dispatch(&mut self, cpu: CpuId, tid: TaskId, prev: Option<TaskId>) {
        let mut wakeup_latency = None;
        {
            let task = &mut self.tasks[tid.0];
            debug_assert_eq!(task.state, TaskState::Runnable);
            // Runnable→Running: account runqueue wait and wakeup latency.
            let waited = self.now.saturating_since(task.last_state_change);
            task.wait_rq_total += waited;
            task.state = TaskState::Running;
            task.cpu = Some(cpu);
            task.last_state_change = self.now;
            if let Some(woke) = task.last_wakeup.take() {
                let lat = self.now.saturating_since(woke);
                task.latency_total += lat;
                task.latency_samples += 1;
                wakeup_latency = Some(lat);
            }
        }
        if let Some(lat) = wakeup_latency {
            self.counters.dispatch_latency_ns.record(lat.as_nanos());
        }
        self.running[cpu.0] = Some(tid);
        if prev != Some(tid) {
            self.tally.context_switches += 1;
            self.tasks[tid.0].nr_switches += 1;
            if !self.config.ctx_switch_cost.is_zero() {
                self.cpus[cpu.0].switch_until = self.now + self.config.ctx_switch_cost;
            }
        }
        self.emit(tid, TraceEvent::State { state: TaskState::Running, cpu: Some(cpu) });
    }

    /// Refresh chip load/priority registers from dispatch state, re-cache
    /// speeds, and re-arm per-CPU work completion events.
    fn refresh_hw(&mut self) {
        for cpu in 0..self.cpus.len() {
            match self.running[cpu] {
                Some(tid) => {
                    let task = &self.tasks[tid.0];
                    let (perf, hw_prio) = (task.perf, task.hw_prio);
                    self.chip.set_load(CpuId(cpu), Some(perf));
                    if self.chip.priority_of(CpuId(cpu)) != hw_prio {
                        #[expect(
                            clippy::expect_used,
                            reason = "INVARIANT: the kernel runs at supervisor privilege and \
                                      the heuristics clamp priorities into the supervisor \
                                      range; cannot fail."
                        )]
                        self.chip
                            .set_priority(CpuId(cpu), hw_prio, PrivilegeLevel::Supervisor)
                            .expect("scheduler priorities stay in supervisor range");
                        self.counters.cpu_hw_prio_transitions[cpu].inc();
                    }
                }
                None => {
                    self.chip.set_load(CpuId(cpu), None);
                }
            }
        }
        // The chip recomputes speeds only if a load or priority changed.
        let speeds = self.chip.speeds();
        for (cpu, cs) in self.cpus.iter_mut().enumerate() {
            // Injected straggler drift composes with the chip model: the
            // cached speed is the chip speed scaled by the running task's
            // fault multiplier (1.0 unless a SlowTask fault changed it).
            let scale = match self.running[cpu] {
                Some(tid) => self.tasks[tid.0].fault_slow,
                None => 1.0,
            };
            cs.speed = speeds[cpu] * scale;
        }
        for cpu in 0..self.cpus.len() {
            self.rearm_workdone(CpuId(cpu));
        }
    }

    /// Point `cpu`'s completion timer at [`Kernel::workdone_time`]. Arming
    /// its lane is, to the event queue, the same as cancelling the pending
    /// timer and scheduling a fresh one.
    fn rearm_workdone(&mut self, cpu: CpuId) {
        let lane = self.workdone_lane(cpu.0);
        match self.workdone_time(cpu) {
            Some(at) => {
                self.events.arm(lane, at);
            }
            None => {
                self.events.disarm(lane);
            }
        }
    }

    /// The event-queue lane of `cpu`'s completion timer; its tick's lane is
    /// `cpu` itself.
    fn workdone_lane(&self, cpu: usize) -> usize {
        self.cpus.len() + cpu
    }

    /// When the task running on `cpu` finishes its compute segment at the
    /// CPU's cached speed; `None` when the CPU is idle or stalled.
    fn workdone_time(&self, cpu: CpuId) -> Option<SimTime> {
        let tid = self.running[cpu.0]?;
        completion_time(self.now, &self.cpus[cpu.0], self.tasks[tid.0].remaining_work)
    }

    // ------------------------------------------------------------------
    // Load balancing
    // ------------------------------------------------------------------

    /// Run per-class load balancing for `cpu`; returns whether any task
    /// migrated *to* this CPU.
    fn balance(&mut self, cpu: CpuId, idle: bool) -> bool {
        let mut pulled = false;
        // The fast-forward skips periodic balances with nothing queued on
        // the strength of the `load_balance` contract; hold every class to it.
        let no_op = cfg!(debug_assertions) && !idle && self.nothing_queued();
        for class in 0..self.classes.len() {
            let migs = self.with_ctx(class, |c, ctx| c.load_balance(ctx, cpu, idle));
            debug_assert!(
                !no_op || migs.is_empty(),
                "class {class} planned {migs:?} on {cpu:?} with nothing queued"
            );
            for Migration { task, from, to } in migs {
                if self.tasks[task.0].state != TaskState::Runnable {
                    continue;
                }
                self.quiet_blocked = false;
                self.with_ctx(class, |c, ctx| c.dequeue(ctx, from, task));
                self.tasks[task.0].cpu = Some(to);
                self.with_ctx(class, |c, ctx| c.enqueue(ctx, to, task, EnqueueKind::Migration));
                self.emit(
                    task,
                    TraceEvent::State { state: TaskState::Runnable, cpu: Some(to) },
                );
                if to == cpu {
                    pulled = true;
                } else {
                    self.check_preempt(to, task);
                }
            }
        }
        pulled
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn try_class_of_policy(&self, policy: SchedPolicy) -> Result<usize, SchedError> {
        self.policy_class[policy as usize].ok_or(SchedError::NoClassForPolicy(policy))
    }

    #[expect(
        clippy::panic,
        reason = "INVARIANT: only reached for policies of already-spawned tasks, which \
                  try_spawn validated against the installed classes."
    )]
    fn class_of_policy(&self, policy: SchedPolicy) -> usize {
        self.try_class_of_policy(policy).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Call a class method with a [`ClassCtx`] over the kernel's state.
    fn with_ctx<R>(
        &mut self,
        class: usize,
        f: impl FnOnce(&mut dyn SchedClass, &mut ClassCtx<'_>) -> R,
    ) -> R {
        let mut ctx = ClassCtx {
            now: self.now,
            tasks: &mut self.tasks,
            topology: self.chip.topology(),
            running: &self.running,
        };
        f(self.classes[class].as_mut(), &mut ctx)
    }

    fn emit(&mut self, task: TaskId, event: TraceEvent) {
        // Trace-derived counters are bumped at the emission point itself so
        // they reconcile 1:1 with the records observers receive, by
        // construction — and keep counting with no observer attached.
        match &event {
            TraceEvent::HwPrio { .. } => self.counters.task_hw_prio_transitions.inc(),
            TraceEvent::IterationEnd { .. } => self.counters.iterations.inc(),
            TraceEvent::Exit => self.counters.task_exits.inc(),
            _ => {}
        }
        if self.observers.is_empty() {
            return;
        }
        let kernel_event = KernelEvent::Trace(TraceRecord { time: self.now, task, event });
        for obs in &mut self.observers {
            obs.on_event(&kernel_event);
        }
    }

    /// Diagnostic: the task currently on `cpu`.
    pub fn current_on(&self, cpu: CpuId) -> Option<TaskId> {
        self.running[cpu.0]
    }
}

/// When a task with `remaining` work, running on a CPU in state `cs`,
/// finishes its compute segment, as of `now`; `None` when the CPU is
/// stalled.
fn completion_time(now: SimTime, cs: &CpuState, remaining: f64) -> Option<SimTime> {
    if remaining <= 0.0 {
        // The segment completed during a sync driven by some other CPU's
        // event: fire completion immediately.
        return Some(now);
    }
    if cs.speed <= 0.0 {
        // Stalled (e.g. hardware priority 0 on the context): no event; a
        // later state change re-arms.
        return None;
    }
    let start = now.max(cs.switch_until).max(cs.steal_until);
    Some(start + completion_delay(remaining, cs.speed))
}

/// How long `remaining` work takes at `speed`, both positive, as
/// [`Kernel::workdone_time`] counts it from the start of accrual.
fn completion_delay(remaining: f64, speed: f64) -> SimDuration {
    let dur = SimDuration::from_secs_f64(remaining / speed);
    // Guarantee forward progress even when the duration rounds to zero.
    if dur.is_zero() {
        SimDuration::from_nanos(1)
    } else {
        dur
    }
}

/// The number of batched rounds, at most `max`, that a CPU with
/// `remaining` work at `speed`, charged `tick` per round, lets run. The
/// first round always runs; round `k` runs while the completion delay
/// re-derived after round `k - 1` exceeds a tick. The delay only shrinks
/// with the work left, and while more than two ticks' work is left it is
/// certainly above a tick, so only the last rounds need the exact
/// [`completion_delay`].
fn rounds_before_completion(remaining: f64, speed: f64, tick: SimDuration, max: u64) -> u64 {
    if speed <= 0.0 {
        // Never armed in practice; one round keeps the per-round rule.
        return max.min(1);
    }
    let work = tick.as_secs_f64() * speed;
    let sure = 2.0 * tick.as_secs_f64() * speed;
    let (mut remaining, mut round) = (remaining, 0);
    while round + 1 < max {
        // Past `sure` every step stops the descent, so the exact test
        // below runs once per round from there on.
        let (left, steps) = descend(remaining, work, max - 1 - round, sure);
        (remaining, round) = (left, round + steps);
        if remaining > sure {
            break;
        }
        if remaining <= 0.0 || completion_delay(remaining, speed) <= tick {
            return round;
        }
    }
    max
}

/// `n` steps of `r = (r - w).max(0.0)`, stopping after the first that
/// leaves `r <= floor`: the result and the steps taken, bit for bit what
/// the loop gives, at a cost of O(binades crossed), not O(n).
///
/// Inside the binade of a normal `r`, every value is a multiple of
/// `u = ulp(r)`. While `r - w` stays in that binade, its exact value lies
/// within `u/2` of `r - k·u` with `k = round(w/u)`, so the float
/// subtraction yields exactly `r - k·u`: each step removes `k` from the
/// significand, and many steps are one integer multiply. An exact tie
/// (`w/u = k + ½`) rounds to the even neighbour; after one literal step
/// the significand is even, and from there on each step removes the even
/// one of `k` and `k + 1`. A step that would leave the binade, and any `r`
/// or `w` the closed form does not cover (subnormal, zero, negative or
/// not finite), is taken literally, and a literal step that leaves `r`
/// unchanged ends the descent: the rest would too.
fn descend(mut r: f64, w: f64, n: u64, floor: f64) -> (f64, u64) {
    let mut left = n;
    while left > 0 {
        if let Some((steps, units)) = descend_in_binade(r, w, left, floor) {
            // The significand is the low bits of the pattern, and it stays
            // above the binade's bottom, so the exponent bits stand still.
            r = f64::from_bits(r.to_bits() - units);
            left -= steps;
            continue;
        }
        let before = r.to_bits();
        r = (r - w).max(0.0);
        left -= 1;
        if r <= floor {
            return (r, n - left);
        }
        if r.to_bits() == before {
            // A fixed point (0, or a `w` that rounds away): every later
            // step leaves `r` where it is.
            return (r, n);
        }
    }
    (r, n)
}

/// How many of the next `n` steps of [`descend`] from `r` can be taken at
/// once, and by how many units of `ulp(r)` they shrink the significand:
/// every step whose result stays above `floor` and at least one unit
/// above the bottom of `r`'s binade, where the step's exact result is
/// certainly inside the binade. `None` when not even one can, or when
/// `r` or `w` is outside the closed form's reach.
fn descend_in_binade(r: f64, w: f64, n: u64, floor: f64) -> Option<(u64, u64)> {
    const HIDDEN: u64 = 1 << 52;
    const LIMIT: f64 = (1u64 << 53) as f64;
    if !(r >= f64::MIN_POSITIVE && r.is_finite() && w >= 0.0) {
        return None;
    }
    let bits = r.to_bits();
    let exp = bits >> 52;
    let m = (bits & (HIDDEN - 1)) | HIDDEN;
    // ulp(r) = 2^(exp - 1075), subnormal for the lowest 52 binades.
    let u = f64::from_bits(if exp > 52 { (exp - 52) << 52 } else { 1 << (exp - 1) });
    // Division by a power of two is exact unless it leaves the normal
    // range: a result that overflows fails the bound, one that underflows
    // is far below ½ and rounds to a step of 0 either way.
    let q = w / u;
    if q >= LIMIT {
        return None;
    }
    // `q` lies in [0, 2⁵³), where the truncating cast is `floor` (a libm
    // call on baseline x86-64) and the fraction it drops is exact.
    let k = q as u64;
    let frac = q - k as f64;
    let step = if frac == 0.5 {
        if m & 1 == 1 {
            return None;
        }
        // Ties go to the even result; from an even significand that is a
        // step of the even one of `k` and `k + 1`.
        k + (k & 1)
    } else if frac > 0.5 {
        k + 1
    } else {
        k
    };
    // `r` is not above `floor`, so the first step stops the descent.
    let f = floor / u;
    if f >= m as f64 {
        return None;
    }
    // The lowest significand a step may leave: above `floor` (which a NaN
    // never stops at), and one unit above the binade's bottom so that the
    // exact result, within half a unit, is inside the binade.
    // In that branch `f` lies in [2⁵², m), so the cast is `floor` too.
    let lowest = if f >= HIDDEN as f64 { f as u64 + 1 } else { HIDDEN + 1 };
    // A step of 0 is a fixed point, which one literal step detects.
    let steps = n.min(m.checked_sub(lowest)?.checked_div(step)?);
    (steps > 0).then_some((steps, steps * step))
}

/// The first class in chain order that handles each policy, indexed by
/// `SchedPolicy as usize`.
fn policy_table(classes: &[Box<dyn SchedClass>]) -> [Option<usize>; SchedPolicy::ALL.len()] {
    SchedPolicy::ALL.map(|p| classes.iter().position(|c| c.handles(p)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, FnProgram, ScriptedProgram};
    use power5::Topology;

    fn kernel() -> Kernel {
        let chip = Chip::new(Topology::openpower_710());
        Kernel::new(chip, KernelConfig::default())
    }

    fn kernel_1cpu() -> Kernel {
        let chip = Chip::new(Topology::single_core_st());
        Kernel::new(chip, KernelConfig::default())
    }

    #[test]
    fn single_task_computes_and_exits() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "worker",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.5)),
            SpawnOptions::default(),
        );
        let end = k.run_until_exited(&[t], SimDuration::from_secs(10)).expect("finishes");
        // 0.5 work units at ST speed 1.0 → ~0.5s (plus switch cost).
        let secs = end.as_secs_f64();
        assert!((0.5..0.51).contains(&secs), "end {secs}");
        assert_eq!(k.task(t).state, TaskState::Exited);
        assert!(k.task(t).exec_total >= SimDuration::from_millis(499));
    }

    #[test]
    fn two_tasks_on_one_cpu_share_time() {
        let mut k = kernel_1cpu();
        let a = k.spawn(
            "a",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.2)),
            SpawnOptions::default(),
        );
        let b = k.spawn(
            "b",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.2)),
            SpawnOptions::default(),
        );
        let end = k.run_until_exited(&[a, b], SimDuration::from_secs(10)).expect("finishes");
        // Serialized on one CPU: ~0.4s total.
        assert!((0.39..0.45).contains(&end.as_secs_f64()), "end {end}");
        // Both made progress interleaved: context switches happened.
        assert!(k.metrics_registry().snapshot().counter("kernel.context_switches") >= 2);
    }

    #[test]
    fn smt_pair_runs_slower_than_solo() {
        let mut k = kernel();
        // Two tasks pinned to the two contexts of core 0.
        let a = k.spawn(
            "a",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(1.0)),
            SpawnOptions { affinity: Some(vec![CpuId(0)]), ..Default::default() },
        );
        let b = k.spawn(
            "b",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(1.0)),
            SpawnOptions { affinity: Some(vec![CpuId(1)]), ..Default::default() },
        );
        let end = k.run_until_exited(&[a, b], SimDuration::from_secs(10)).expect("finishes");
        // Equal-priority SMT: each runs at 0.8 → 1.25s, not 1.0s.
        assert!((1.2..1.3).contains(&end.as_secs_f64()), "end {end}");
    }

    #[test]
    fn hw_priority_speeds_up_favoured_task() {
        let mut k = kernel();
        let fast = k.spawn(
            "fast",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(1.0)),
            SpawnOptions {
                affinity: Some(vec![CpuId(0)]),
                hw_prio: Some(HwPriority::HIGH),
                ..Default::default()
            },
        );
        let slow = k.spawn(
            "slow",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(1.0)),
            SpawnOptions { affinity: Some(vec![CpuId(1)]), ..Default::default() },
        );
        k.run_until_exited(&[fast, slow], SimDuration::from_secs(30)).expect("finishes");
        let t_fast = k.task(fast).exited_at.unwrap();
        let t_slow = k.task(slow).exited_at.unwrap();
        assert!(t_fast < t_slow, "prio 6 task finishes first");
        // diff 2 speeds: 0.92 vs ~0.25 while co-running.
        assert!((1.0..1.2).contains(&t_fast.as_secs_f64()), "fast {t_fast}");
        assert!(t_slow.as_secs_f64() > 1.5, "slow {t_slow}");
    }

    #[test]
    fn block_and_timed_signal() {
        let mut k = kernel_1cpu();
        let mut armed = false;
        let t = k.spawn(
            "sleeper",
            SchedPolicy::Normal,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                if !armed {
                    armed = true;
                    let tok = api.new_token();
                    api.signal_after(SimDuration::from_millis(50), tok);
                    Action::Block(tok)
                } else {
                    Action::Exit
                }
            })),
            SpawnOptions::default(),
        );
        let end = k.run_until_exited(&[t], SimDuration::from_secs(5)).expect("finishes");
        assert!(end.as_secs_f64() >= 0.050);
        assert!(k.task(t).sleep_total >= SimDuration::from_millis(49));
        assert_eq!(k.task(t).iter.iterations, 1, "one sleep = one iteration");
    }

    #[test]
    fn pre_signalled_token_does_not_sleep() {
        let mut k = kernel_1cpu();
        let mut step = 0;
        let t = k.spawn(
            "nosleep",
            SchedPolicy::Normal,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                step += 1;
                match step {
                    1 => {
                        let tok = api.new_token();
                        api.signal(tok);
                        Action::Block(tok)
                    }
                    _ => Action::Exit,
                }
            })),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[t], SimDuration::from_secs(1)).expect("finishes");
        assert_eq!(k.task(t).sleep_total, SimDuration::ZERO);
        assert_eq!(k.task(t).iter.iterations, 0);
    }

    #[test]
    fn rt_task_preempts_normal() {
        let mut k = kernel_1cpu();
        let normal = k.spawn(
            "normal",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(1.0)),
            SpawnOptions::default(),
        );
        // RT task arrives by waking after 100ms.
        let mut step = 0;
        let rt = k.spawn(
            "rt",
            SchedPolicy::Fifo,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                step += 1;
                match step {
                    1 => {
                        let tok = api.new_token();
                        api.signal_after(SimDuration::from_millis(100), tok);
                        Action::Block(tok)
                    }
                    2 => Action::Compute(0.3),
                    _ => Action::Exit,
                }
            })),
            SpawnOptions { rt_priority: 10, ..Default::default() },
        );
        k.run_until_exited(&[normal, rt], SimDuration::from_secs(10)).expect("finishes");
        // RT work (0.3s) ran in preference to normal once it woke: RT exits
        // at ~0.4s, normal at ~1.3s.
        let rt_end = k.task(rt).exited_at.unwrap().as_secs_f64();
        let n_end = k.task(normal).exited_at.unwrap().as_secs_f64();
        assert!(rt_end < 0.45, "rt end {rt_end}");
        assert!(n_end > 1.25, "normal end {n_end}");
        // RT wakeup latency is tiny (immediate class preemption).
        assert!(k.task(rt).mean_latency() < SimDuration::from_micros(50));
    }

    #[test]
    fn spawn_places_on_least_loaded_cpu() {
        let mut k = kernel();
        let ids: Vec<TaskId> = (0..4)
            .map(|i| {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(0.1)),
                    SpawnOptions::default(),
                )
            })
            .collect();
        let cpus: Vec<CpuId> = ids.iter().map(|&t| k.task(t).cpu.unwrap()).collect();
        let mut sorted = cpus.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "tasks spread across all CPUs: {cpus:?}");
    }

    #[test]
    fn exited_tasks_free_the_cpu() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "t",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[t], SimDuration::from_secs(1)).unwrap();
        assert_eq!(k.current_on(CpuId(0)), None);
    }

    #[test]
    fn run_for_advances_clock() {
        let mut k = kernel_1cpu();
        k.run_for(SimDuration::from_millis(500));
        assert!(k.now() >= SimTime::ZERO + SimDuration::from_millis(500));
    }

    #[test]
    fn noise_daemons_consume_cpu() {
        let chip = Chip::new(Topology::single_core_st());
        let cfg = KernelConfig {
            noise: crate::config::NoiseConfig::heavy(),
            ..KernelConfig::default()
        };
        let mut k = Kernel::new(chip, cfg);
        k.run_for(SimDuration::from_secs(2));
        let noise_exec: SimDuration = k.tasks().iter().map(|t| t.exec_total).sum();
        assert!(
            noise_exec > SimDuration::from_millis(10),
            "daemons should have run: {noise_exec}"
        );
    }

    #[test]
    fn deadline_returns_none() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "long",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(100.0)),
            SpawnOptions::default(),
        );
        assert!(k.run_until_exited(&[t], SimDuration::from_millis(100)).is_none());
    }

    #[test]
    fn yield_rotates_between_tasks() {
        let mut k = kernel_1cpu();
        let mk = |n: u32| {
            let mut left = n;
            FnProgram(move |_api: &mut KernelApi<'_>| {
                if left == 0 {
                    Action::Exit
                } else {
                    left -= 1;
                    Action::Yield
                }
            })
        };
        let a = k.spawn("a", SchedPolicy::Normal, Box::new(mk(5)), SpawnOptions::default());
        let b = k.spawn("b", SchedPolicy::Normal, Box::new(mk(5)), SpawnOptions::default());
        k.run_until_exited(&[a, b], SimDuration::from_secs(1)).expect("finishes");
    }

    #[test]
    fn set_scheduler_moves_task_to_new_policy() {
        let mut k = kernel_1cpu();
        let mut step = 0;
        let t = k.spawn(
            "switcher",
            SchedPolicy::Normal,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                step += 1;
                match step {
                    1 => {
                        api.set_scheduler(SchedPolicy::Batch);
                        Action::Compute(0.01)
                    }
                    _ => Action::Exit,
                }
            })),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[t], SimDuration::from_secs(1)).unwrap();
        assert_eq!(k.task(t).policy, SchedPolicy::Batch);
    }

    #[test]
    fn trace_records_lifecycle() {
        let mut k = kernel_1cpu();
        let sink = crate::trace::SharedSink::new();
        k.observe(Box::new(sink.clone()));
        let t = k.spawn(
            "traced",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[t], SimDuration::from_secs(1)).unwrap();
        let records = sink.snapshot();
        let kinds: Vec<&TraceEvent> = records.iter().map(|r| &r.event).collect();
        assert!(matches!(kinds.first(), Some(TraceEvent::Spawn { .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, TraceEvent::State { state: TaskState::Running, .. })));
        assert!(matches!(kinds.last(), Some(TraceEvent::Exit)));
    }

    #[test]
    fn try_spawn_rejects_unhandled_policy() {
        let mut k = kernel_1cpu();
        let err = k
            .try_spawn(
                "hpc",
                SchedPolicy::Hpc,
                Box::new(ScriptedProgram::compute_once(0.1)),
                SpawnOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err, crate::SchedError::NoClassForPolicy(SchedPolicy::Hpc));
        assert!(err.to_string().contains("no class handles"));
        // The failed spawn left no task behind.
        assert!(k.tasks().iter().all(|t| t.name != "hpc"));
    }

    #[test]
    fn try_spawn_rejects_empty_affinity() {
        let mut k = kernel_1cpu();
        let before = k.tasks().len();
        let err = k
            .try_spawn(
                "nowhere",
                SchedPolicy::Normal,
                Box::new(ScriptedProgram::compute_once(0.1)),
                SpawnOptions { affinity: Some(vec![]), ..Default::default() },
            )
            .unwrap_err();
        assert!(matches!(err, crate::SchedError::UnschedulableAffinity { .. }));
        assert_eq!(k.tasks().len(), before, "rejected spawn must not mutate");
    }

    #[test]
    fn telemetry_counts_hot_paths() {
        let mut k = kernel_1cpu();
        let a = k.spawn(
            "a",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.1)),
            SpawnOptions::default(),
        );
        let b = k.spawn(
            "b",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.1)),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[a, b], SimDuration::from_secs(5)).unwrap();
        let snap = k.metrics_registry().snapshot();
        assert!(snap.counter("kernel.context_switches") >= 2);
        assert_eq!(snap.counter("kernel.task_exits"), 2);
        assert!(snap.histogram("kernel.runq_depth").is_some_and(|h| h.count > 0));
        assert!(snap.counter("sim.events.processed") > 0);
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the test observer shares its buffer with the assertion"
    )]
    fn shared_sink_records_the_kernel_trace() {
        // A bare observer collects the stream as the kernel sends it; a
        // `SharedSink` attached beside it must hold exactly the same records.
        struct Collect(std::sync::Arc<std::sync::Mutex<Vec<TraceRecord>>>);
        impl Observer for Collect {
            fn on_event(&mut self, event: &KernelEvent) {
                let KernelEvent::Trace(rec) = event;
                self.0.lock().unwrap().push(rec.clone());
            }
        }
        let sent = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = crate::SharedSink::new();
        let mut k = kernel_1cpu();
        k.observe(Box::new(Collect(sent.clone())));
        k.observe(Box::new(sink.clone()));
        let ids: Vec<TaskId> = (0..2)
            .map(|i| {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(0.05)),
                    SpawnOptions::default(),
                )
            })
            .collect();
        k.run_until_exited(&ids, SimDuration::from_secs(5)).unwrap();
        let records = sink.snapshot();
        assert_eq!(records, *sent.lock().unwrap());
        let exits = records.iter().filter(|r| r.event == TraceEvent::Exit).count() as u64;
        assert_eq!(exits, 2);
        assert_eq!(exits, k.metrics_registry().snapshot().counter("kernel.task_exits"));
    }

    #[test]
    fn steal_burst_stalls_the_context() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "victim",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.1)),
            SpawnOptions::default(),
        );
        // 0.5s steal burst 20ms in: the remaining ~80ms of work cannot
        // finish before the burst ends at ~0.52s.
        k.inject_fault(
            SimTime::ZERO + SimDuration::from_millis(20),
            FaultEvent::StealBurst { cpu: CpuId(0), duration: SimDuration::from_millis(500) },
        );
        let end = k.run_until_exited(&[t], SimDuration::from_secs(10)).expect("finishes");
        let secs = end.as_secs_f64();
        assert!((0.55..0.70).contains(&secs), "end {secs}");
        assert_eq!(k.metrics_registry().snapshot().counter("kernel.faults.steal_bursts"), 1);
    }

    #[test]
    fn slow_task_fault_halves_progress() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "straggler",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.1)),
            SpawnOptions::default(),
        );
        k.inject_fault(SimTime::ZERO, FaultEvent::SlowTask { task: t, factor: 0.5 });
        let end = k.run_until_exited(&[t], SimDuration::from_secs(10)).expect("finishes");
        let secs = end.as_secs_f64();
        assert!((0.19..0.25).contains(&secs), "end {secs}");
        assert_eq!(k.metrics_registry().snapshot().counter("kernel.faults.slowdowns"), 1);
    }

    #[test]
    fn stale_fault_references_are_dropped_not_panics() {
        let mut k = kernel_1cpu();
        let t = k.spawn(
            "t",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.05)),
            SpawnOptions::default(),
        );
        k.inject_fault(SimTime::ZERO, FaultEvent::SlowTask { task: TaskId(99), factor: 0.5 });
        k.inject_fault(SimTime::ZERO, FaultEvent::SlowTask { task: t, factor: f64::NAN });
        k.inject_fault(
            SimTime::ZERO,
            FaultEvent::StealBurst { cpu: CpuId(7), duration: SimDuration::from_secs(1) },
        );
        let end = k.run_until_exited(&[t], SimDuration::from_secs(5)).expect("finishes");
        assert!(end.as_secs_f64() < 0.1, "dropped faults must not slow the run");
        let snap = k.metrics_registry().snapshot();
        assert_eq!(snap.counter("kernel.faults.steal_bursts"), 0);
        assert_eq!(snap.counter("kernel.faults.slowdowns"), 0);
    }

    /// The reference [`descend`] must match: the literal loop.
    fn literal(mut r: f64, w: f64, n: u64, floor: f64) -> (f64, u64) {
        for step in 1..=n {
            r = (r - w).max(0.0);
            if r <= floor {
                return (r, step);
            }
        }
        (r, n)
    }

    fn ulp(r: f64) -> f64 {
        f64::from_bits(r.to_bits() + 1) - r
    }

    fn assert_descends_like_the_loop(r: f64, w: f64, n: u64, floor: f64) {
        let (got, want) = (descend(r, w, n, floor), literal(r, w, n, floor));
        assert!(
            got.0.to_bits() == want.0.to_bits() && got.1 == want.1,
            "descend({r:e}, {w:e}, {n}, {floor:e}) = {got:?}, the loop gives {want:?}"
        );
    }

    /// `r`: a normal value of any magnitude, one near the paper's work
    /// sizes, a subnormal, or zero.
    fn remaining() -> impl proptest::strategy::Strategy<Value = f64> {
        use proptest::prelude::*;
        (0u8..4, any::<u64>(), 1u64..2000, 1e-4f64..10.0).prop_map(|(kind, bits, exp, near)| {
            match kind {
                0 => f64::from_bits(exp << 52 | bits >> 12),
                1 => near,
                2 => f64::from_bits(bits >> 12),
                _ => 0.0,
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig { cases: 2048, ..Default::default() })]

        /// `descend` equals the literal loop bit for bit: binade crossings,
        /// exact ½-ulp ties, subnormals, `w == 0`, `n == 0`, every kind of
        /// floor, and results that hit 0 early.
        #[test]
        fn descend_equals_the_literal_loop(
            r in remaining(),
            (w_kind, k, frac) in (0u8..7, 0u64..64, 0.0f64..1.0),
            n in proptest::prop_oneof![
                proptest::prelude::Just(0u64),
                proptest::prelude::Just(1u64),
                0u64..100,
                0u64..20_000,
            ],
            floor_kind in 0u8..8,
            floor_frac in 0.0f64..1.0,
        ) {
            let w = match w_kind {
                0 => 0.0,
                // An exact tie: w/ulp(r) has a fractional part of ½.
                1 => (k as f64 + 0.5) * ulp(r),
                2 => k as f64 * ulp(r),
                3 => r * frac * 1e-3,
                4 => r * frac,
                5 => f64::from_bits(k << 40 | 1),
                _ => r * frac * 1e-9,
            };
            let floor = match floor_kind {
                0 => -1.0,
                1 => f64::NEG_INFINITY,
                2 => 0.0,
                3 => 2.0 * w,
                4 => r,
                5 => 2.0 * r + 1.0,
                6 => f64::NAN,
                _ => r * floor_frac,
            };
            assert_descends_like_the_loop(r, w, n, floor);
        }
    }

    #[test]
    fn descend_ties_and_binade_edges() {
        // Ties on both parities of the significand and of k, starting on
        // and next to a binade's bottom and top, and steps that land on
        // the bottom while their exact result lies below it.
        let edges = [1.0, 2.0 - f64::EPSILON, 2.0 - 2.0 * f64::EPSILON, 1.75];
        let above_bottom = (1..=4).map(|j| 1.0 + j as f64 * f64::EPSILON);
        for r in edges.into_iter().chain(above_bottom) {
            for k in [0.5, 1.5, 2.5, 3.5, 1.0, 0.25, 0.75, 1.3, 2.4] {
                let w = k * ulp(r);
                for floor in [-1.0, 0.0, 1.5, r - 3.0 * w] {
                    assert_descends_like_the_loop(r, w, 5_000, floor);
                }
            }
        }
        // The smallest normal and the subnormals below it.
        let min = f64::MIN_POSITIVE;
        for w in [0.0, 0.5 * ulp(min), 3.0 * ulp(min), min / 3.0] {
            assert_descends_like_the_loop(min * 1.5, w, 10_000, -1.0);
            assert_descends_like_the_loop(min / 2.0, w, 100, -1.0);
        }
    }

    #[test]
    fn descend_costs_binades_not_steps() {
        // 2^60 steps of a millisecond's work hit 0 after about 2,200 and
        // stay there; a step that rounds away stays put forever. A loop
        // would not finish either.
        let w = 1e-3 * 0.8;
        assert_eq!(descend(1.8, w, 1 << 60, f64::NEG_INFINITY), (0.0, 1 << 60));
        let (left, steps) = descend(1.8, w, 1 << 60, 2.0 * w);
        assert_eq!((left.to_bits(), steps), {
            let (l, s) = literal(1.8, w, 10_000, 2.0 * w);
            (l.to_bits(), s)
        });
        assert_eq!(descend(1.0, 1e-20, u64::MAX, 0.5), (1.0, u64::MAX));
    }
}
