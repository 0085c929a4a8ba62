//! The `SCHED_HPC` scheduling class (paper §IV), as a thin driver over a
//! pluggable [`Balancer`].
//!
//! Inserted between the real-time and CFS classes, so HPC processes always
//! run in preference to normal tasks (and, crucially, wake with near-zero
//! scheduler latency) while real-time semantics are preserved.
//!
//! The class owns what every balancing policy shares — the per-CPU
//! round-robin run queues (FIFO or RR, paper §IV-A), slice accounting,
//! migration plumbing and the priority-change counter — and delegates every
//! *decision* to the balancer: sample classification, priority assignment,
//! the do-no-harm fault path, and migration planning. With
//! [`crate::policies::Table1Balancer`] plugged in, this driver is
//! trace-for-trace identical to the monolithic class it replaced
//! (`TRACE_baseline.txt` pins that equivalence in CI).

use crate::balance::BalanceView;
use crate::balancer::{Balancer, IterSample, PrioAssignment, SampleOutcome};
use crate::class::{ClassCtx, EnqueueKind, Migration, SchedClass};
use crate::policy::SchedPolicy;
use crate::task::TaskId;
use power5::CpuId;
use simcore::SimDuration;
use std::collections::VecDeque;

/// Intra-class scheduling policy for HPC tasks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HpcPolicyKind {
    /// Selected task runs until it blocks or yields.
    Fifo,
    /// Predefined time slice, rotation on expiry.
    Rr,
}

/// The HPC scheduling class: queue mechanics here, decisions in the
/// [`Balancer`].
pub struct BalancedClass {
    policy: HpcPolicyKind,
    slice: SimDuration,
    rqs: Vec<VecDeque<TaskId>>,
    balancer: Box<dyn Balancer>,
    /// Priority changes applied so far (diagnostics / Figure annotations).
    prio_changes: u64,
    /// HPC tasks per CPU, refilled for every balance (see
    /// [`BalancedClass::count_hpc`]) so balancing allocates nothing.
    counts: Vec<usize>,
}

impl BalancedClass {
    pub fn new(policy: HpcPolicyKind, slice: SimDuration, balancer: Box<dyn Balancer>) -> Self {
        BalancedClass {
            policy,
            slice,
            rqs: Vec::new(),
            balancer,
            prio_changes: 0,
            counts: Vec::new(),
        }
    }

    /// Register the balancer's decision counters in `registry`.
    pub fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        self.balancer.attach_telemetry(registry);
    }

    /// The balancing policy driving this class.
    pub fn balancer(&self) -> &dyn Balancer {
        &*self.balancer
    }

    pub fn priority_changes(&self) -> u64 {
        self.prio_changes
    }

    /// Refill `counts` with the HPC tasks per CPU: queued plus the running
    /// one, needed by the domain balancer.
    fn count_hpc(&mut self, ctx: &ClassCtx<'_>) {
        self.counts.clear();
        self.counts.extend(self.rqs.iter().enumerate().map(|(cpu, rq)| {
            let running_hpc = ctx.running[cpu]
                .map(|t| ctx.tasks[t.0].policy == SchedPolicy::Hpc)
                .unwrap_or(false);
            rq.len() + usize::from(running_hpc)
        }));
    }

    /// Apply the balancer's assignments, counting actual changes.
    fn apply(&mut self, ctx: &mut ClassCtx<'_>, assignments: Vec<PrioAssignment>) {
        for a in assignments {
            if ctx.task(a.task).hw_prio != a.prio {
                ctx.task_mut(a.task).hw_prio = a.prio;
                self.prio_changes += 1;
            }
        }
    }
}

impl SchedClass for BalancedClass {
    fn name(&self) -> &'static str {
        "hpc"
    }

    fn handles(&self, policy: SchedPolicy) -> bool {
        policy == SchedPolicy::Hpc
    }

    fn init_cpus(&mut self, num_cpus: usize) {
        self.rqs = (0..num_cpus).map(|_| VecDeque::new()).collect();
        self.balancer.init(num_cpus);
    }

    fn enqueue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, _kind: EnqueueKind) {
        if self.policy == HpcPolicyKind::Rr {
            let t = ctx.task_mut(task);
            if t.slice_left.is_zero() {
                t.slice_left = self.slice;
            }
        }
        self.rqs[cpu.0].push_back(task);
    }

    fn dequeue(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        if let Some(pos) = self.rqs[cpu.0].iter().position(|&t| t == task) {
            self.rqs[cpu.0].remove(pos);
        } else {
            debug_assert!(false, "dequeue of unqueued HPC task");
        }
    }

    fn pick_next(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId) -> Option<TaskId> {
        self.rqs[cpu.0].pop_front()
    }

    fn put_prev(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        match self.policy {
            HpcPolicyKind::Fifo => self.rqs[cpu.0].push_front(task),
            HpcPolicyKind::Rr => {
                let t = ctx.task_mut(task);
                if t.slice_left.is_zero() {
                    t.slice_left = self.slice;
                    self.rqs[cpu.0].push_back(task);
                } else {
                    self.rqs[cpu.0].push_front(task);
                }
            }
        }
    }

    fn on_yield(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        self.rqs[cpu.0].push_back(task);
    }

    fn charge(&mut self, ctx: &mut ClassCtx<'_>, _cpu: CpuId, task: TaskId, delta: SimDuration) {
        if self.policy == HpcPolicyKind::Rr {
            let t = ctx.task_mut(task);
            t.slice_left = t.slice_left.saturating_sub(delta);
        }
    }

    fn charge_rounds(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        _cpu: CpuId,
        task: TaskId,
        delta: SimDuration,
        n: u64,
    ) {
        if self.policy == HpcPolicyKind::Rr {
            let t = ctx.task_mut(task);
            t.slice_left = t.slice_left.saturating_sub(delta.saturating_mul(n));
        }
    }

    fn task_tick(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) -> bool {
        if self.policy != HpcPolicyKind::Rr {
            return false;
        }
        ctx.task(task).slice_left.is_zero() && !self.rqs[cpu.0].is_empty()
    }

    fn tick_quiet(&self, _ctx: &ClassCtx<'_>, cpu: CpuId, _task: TaskId) -> bool {
        // An expired RR slice only rotates when another HPC task waits.
        self.policy == HpcPolicyKind::Fifo || self.rqs[cpu.0].is_empty()
    }

    fn wakeup_preempt(&self, _ctx: &ClassCtx<'_>, _curr: TaskId, _woken: TaskId) -> bool {
        // Within the class, woken tasks queue round-robin; no preemption.
        false
    }

    fn task_woken(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        task: TaskId,
        iter_run: SimDuration,
        iter_wall: SimDuration,
    ) {
        let sample = IterSample { task, run: iter_run, wall: iter_wall };
        let assignments = match self.balancer.on_sample(ctx, sample) {
            SampleOutcome::Recorded => self.balancer.assign_priorities(ctx, task),
            SampleOutcome::Unusable => self.balancer.on_fault(ctx, task),
        };
        self.apply(ctx, assignments);
    }

    fn task_exited(&mut self, _ctx: &mut ClassCtx<'_>, task: TaskId) {
        self.balancer.task_exited(task);
    }

    fn load_balance(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        cpu: CpuId,
        idle: bool,
    ) -> Option<Migration> {
        self.count_hpc(ctx);
        let view = BalanceView { topology: ctx.topology, counts: &self.counts, queued: &self.rqs };
        self.balancer.plan_migrations(&view, cpu, idle, &|t, c| ctx.tasks[t.0].allowed_on(c))
    }

    fn nr_runnable(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Power5Mechanism, SharedTunables, Table1Balancer, UniformHeuristic};
    use crate::program::ScriptedProgram;
    use crate::task::Task;
    use power5::{HwPriority, Topology};
    use simcore::SimTime;

    fn mk_class(policy: HpcPolicyKind) -> BalancedClass {
        let balancer = Table1Balancer::new(
            Box::new(UniformHeuristic),
            Box::new(Power5Mechanism),
            SharedTunables::default(),
        );
        let mut c =
            BalancedClass::new(policy, SimDuration::from_millis(100), Box::new(balancer));
        c.init_cpus(4);
        c
    }

    fn mk_tasks(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("rank{i}"),
                    SchedPolicy::Hpc,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                )
            })
            .collect()
    }

    fn ctx<'a>(tasks: &'a mut Vec<Task>, topo: &'a Topology) -> ClassCtx<'a> {
        ClassCtx { now: SimTime::ZERO, tasks, topology: topo, running: &[None; 4] }
    }

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn round_robin_queue_order() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(0), TaskId(i), EnqueueKind::New);
        }
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(0)));
        assert_eq!(c.nr_runnable(CpuId(0)), 2);
    }

    #[test]
    fn rr_slice_rotation() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        c.charge(&mut cx, CpuId(0), first, ms(100));
        assert!(c.task_tick(&mut cx, CpuId(0), first));
        c.put_prev(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)), "rotated to tail");
    }

    #[test]
    fn fifo_keeps_head_even_after_long_run() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Fifo);
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        c.charge(&mut cx, CpuId(0), first, ms(500));
        assert!(!c.task_tick(&mut cx, CpuId(0), first), "FIFO never expires");
        c.put_prev(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(first));
    }

    #[test]
    fn imbalanced_iterations_raise_priority_of_busy_task() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        // Task 0: 25% utilization; task 1: 100%.
        c.task_woken(&mut cx, TaskId(0), ms(25), ms(100));
        c.task_woken(&mut cx, TaskId(1), ms(100), ms(100));
        assert_eq!(cx.task(TaskId(0)).hw_prio, HwPriority::MEDIUM, "low-util stays at min");
        assert_eq!(cx.task(TaskId(1)).hw_prio, HwPriority::MEDIUM_HIGH, "+1 step");
        // Second identical round: the busy task reaches MAX_PRIO.
        c.task_woken(&mut cx, TaskId(0), ms(25), ms(100));
        c.task_woken(&mut cx, TaskId(1), ms(100), ms(100));
        assert_eq!(cx.task(TaskId(1)).hw_prio, HwPriority::HIGH);
        assert_eq!(c.priority_changes(), 2);
    }

    #[test]
    fn balanced_application_freezes_priorities() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        // Both ~95%: spread below threshold → no changes even though both
        // are above HIGH_UTIL.
        c.task_woken(&mut cx, TaskId(0), ms(95), ms(100));
        c.task_woken(&mut cx, TaskId(1), ms(98), ms(100));
        assert_eq!(cx.task(TaskId(0)).hw_prio, HwPriority::MEDIUM);
        assert_eq!(cx.task(TaskId(1)).hw_prio, HwPriority::MEDIUM);
        assert_eq!(c.priority_changes(), 0);
    }

    #[test]
    fn telemetry_counts_decisions_and_verdicts() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let registry = telemetry::MetricsRegistry::new();
        c.attach_telemetry(&registry);
        let mut cx = ctx(&mut tasks, &topo);
        // Two imbalanced rounds (same shape as
        // imbalanced_iterations_raise_priority_of_busy_task).
        for _ in 0..2 {
            c.task_woken(&mut cx, TaskId(0), ms(25), ms(100));
            c.task_woken(&mut cx, TaskId(1), ms(100), ms(100));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("hpc.decisions.uniform.accepted"),
            c.priority_changes(),
            "every applied change is counted against the heuristic"
        );
        assert_eq!(snap.counter("hpc.decisions.uniform.rejected"), 0);
        assert_eq!(
            snap.counter("hpc.detector.balanced") + snap.counter("hpc.detector.imbalanced"),
            4,
            "one verdict per completed iteration"
        );
    }

    #[test]
    fn unusable_sample_degrades_to_uniform_priority() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let registry = telemetry::MetricsRegistry::new();
        c.attach_telemetry(&registry);
        let mut cx = ctx(&mut tasks, &topo);
        // Drive task 1 to HIGH with two imbalanced rounds.
        for _ in 0..2 {
            c.task_woken(&mut cx, TaskId(0), ms(25), ms(100));
            c.task_woken(&mut cx, TaskId(1), ms(100), ms(100));
        }
        assert_eq!(cx.task(TaskId(1)).hw_prio, HwPriority::HIGH);
        // A zero-wall (unusable) sample: fall back to the uniform floor
        // instead of keeping a priority decided on stale data.
        c.task_woken(&mut cx, TaskId(1), SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(cx.task(TaskId(1)).hw_prio, HwPriority::MEDIUM, "do-no-harm floor");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("hpc.detector.degraded"), 1);
    }

    #[test]
    fn degraded_task_at_floor_stays_put() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(1);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        c.task_woken(&mut cx, TaskId(0), SimDuration::ZERO, SimDuration::ZERO);
        assert_eq!(cx.task(TaskId(0)).hw_prio, HwPriority::MEDIUM);
        assert_eq!(c.priority_changes(), 0, "no change when already at the floor");
    }

    #[test]
    fn balancer_pulls_across_cores() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3);
        let mut c = mk_class(HpcPolicyKind::Rr);
        let mut cx = ctx(&mut tasks, &topo);
        // Three HPC tasks queued on CPU 2 (core 1); CPU 0 (core 0) is empty.
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(2), TaskId(i), EnqueueKind::New);
        }
        let mig = c.load_balance(&mut cx, CpuId(0), true).expect("a pull");
        assert_eq!(mig.from, CpuId(2));
        assert_eq!(mig.to, CpuId(0));
    }

    #[test]
    fn running_tasks_count_toward_domain_balance() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3);
        let mut c = mk_class(HpcPolicyKind::Rr);
        // CPU 2 runs an HPC task and has one queued; CPU 0 idle.
        let running = [None, None, Some(TaskId(0)), None];
        let mut cx = ClassCtx { running: &running, ..ctx(&mut tasks, &topo) };
        c.enqueue(&mut cx, CpuId(2), TaskId(1), EnqueueKind::New);
        let mig = c.load_balance(&mut cx, CpuId(0), true).expect("2 tasks on core1 vs 0 on core0");
        assert_eq!(mig.task, TaskId(1), "only the queued task can move");
    }

    #[test]
    fn handles_only_hpc_policy() {
        let c = mk_class(HpcPolicyKind::Rr);
        assert!(c.handles(SchedPolicy::Hpc));
        assert!(!c.handles(SchedPolicy::Normal));
        assert!(!c.handles(SchedPolicy::Fifo));
        assert_eq!(c.name(), "hpc");
        assert_eq!(c.balancer().name(), "table1");
    }
}
