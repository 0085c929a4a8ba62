//! The Completely Fair Scheduler class (paper §III).
//!
//! Runnable tasks live in an ordered set (a `BTreeSet`, where Linux uses a
//! red-black tree) keyed by *virtual runtime*, with the task id as
//! tie-breaker; the leftmost task — the one that has received the least
//! weighted CPU time — runs next. There is no fixed quantum: each task's slice is its
//! weight's share of the target latency period. A task's vruntime advances
//! while it runs, moving it rightward until somebody else becomes leftmost.

use crate::class::{ClassCtx, EnqueueKind, Migration, SchedClass};
use crate::config::CfsTunables;
use crate::policy::SchedPolicy;
use crate::task::TaskId;
use power5::CpuId;
use simcore::SimDuration;
use std::collections::BTreeSet;

/// The load weight of a nice-0 task.
pub const NICE_0_WEIGHT: u64 = 1024;

/// Linux's `sched_prio_to_weight`: nice −20 (index 0) … nice 19 (index 39).
/// Each step is ~1.25×, so one nice level ≈ 10% CPU when competing.
pub const NICE_TO_WEIGHT: [u64; 40] = [
    88761, 71755, 56483, 46273, 36291, 29154, 23254, 18705, 14949, 11916, 9548, 7620, 6100, 4904,
    3906, 3121, 2501, 1991, 1586, 1277, 1024, 820, 655, 526, 423, 335, 272, 215, 172, 137, 110,
    87, 70, 56, 45, 36, 29, 23, 18, 15,
];

/// Weight for a nice value, clamped to the valid range.
pub fn weight_of_nice(nice: i32) -> u64 {
    NICE_TO_WEIGHT[(nice.clamp(-20, 19) + 20) as usize]
}

struct CfsRq {
    /// Queued tasks as `(vruntime, task id)`: the id is the unique
    /// tie-breaker.
    tree: BTreeSet<(u64, usize)>,
    /// Monotonic floor of vruntime on this queue.
    min_vruntime: u64,
    /// Sum of queued tasks' weights (excludes the running task).
    load: u64,
    /// CPU time the currently running CFS task has accrued since picked.
    curr_runtime: SimDuration,
}

impl CfsRq {
    fn new() -> Self {
        CfsRq { tree: BTreeSet::new(), min_vruntime: 0, load: 0, curr_runtime: SimDuration::ZERO }
    }
}

/// The CFS class.
pub struct FairClass {
    rqs: Vec<CfsRq>,
    tun: CfsTunables,
    /// Virtual-runtime credit granted to waking sleepers ("gentle fair
    /// sleepers": half the latency period). Larger credit = snappier
    /// wakeups; zero = sleepers queue strictly behind current work.
    sleeper_credit: SimDuration,
}

impl FairClass {
    pub fn new(tun: CfsTunables) -> Self {
        let sleeper_credit = tun.sched_latency / 2;
        FairClass { rqs: Vec::new(), tun, sleeper_credit }
    }

    fn delta_vruntime(delta: SimDuration, weight: u64) -> u64 {
        (delta.as_nanos() as u128 * NICE_0_WEIGHT as u128 / weight as u128) as u64
    }

    /// This task's slice of the latency period, by weight share.
    fn slice_for(&self, weight: u64, total_weight: u64) -> SimDuration {
        if total_weight == 0 {
            return self.tun.sched_latency;
        }
        let share = self.tun.sched_latency.as_nanos() as u128 * weight as u128
            / total_weight as u128;
        SimDuration::from_nanos(share as u64).max(self.tun.min_granularity)
    }

    fn update_min_vruntime(&mut self, cpu: usize, curr_vr: Option<u64>) {
        let rq = &mut self.rqs[cpu];
        let mut min = curr_vr;
        if let Some(&(left, _)) = rq.tree.first() {
            min = Some(match min {
                Some(c) => c.min(left),
                None => left,
            });
        }
        if let Some(m) = min {
            rq.min_vruntime = rq.min_vruntime.max(m);
        }
    }
}

impl SchedClass for FairClass {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn handles(&self, policy: SchedPolicy) -> bool {
        policy.is_fair()
    }

    fn init_cpus(&mut self, num_cpus: usize) {
        self.rqs = (0..num_cpus).map(|_| CfsRq::new()).collect();
    }

    fn enqueue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, kind: EnqueueKind) {
        let min_vr = self.rqs[cpu.0].min_vruntime;
        let t = ctx.task_mut(task);
        match kind {
            EnqueueKind::New => {
                // Start at the queue's floor: no credit, no penalty.
                t.vruntime = t.vruntime.max(min_vr);
            }
            EnqueueKind::Wakeup => {
                // Sleeper placement: credit capped so long sleeps don't
                // translate into unbounded CPU bursts.
                let credit = FairClass::delta_vruntime(
                    self.sleeper_credit,
                    weight_of_nice(t.nice),
                );
                t.vruntime = t.vruntime.max(min_vr.saturating_sub(credit));
            }
            EnqueueKind::Migration => {
                // Re-normalize against the destination queue.
                t.vruntime = t.vruntime.max(min_vr);
            }
        }
        let key = (t.vruntime, task.0);
        let weight = weight_of_nice(t.nice);
        let inserted = self.rqs[cpu.0].tree.insert(key);
        debug_assert!(inserted, "task already in CFS tree");
        self.rqs[cpu.0].load += weight;
    }

    fn dequeue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        let t = ctx.task(task);
        let key = (t.vruntime, task.0);
        let weight = weight_of_nice(t.nice);
        let removed = self.rqs[cpu.0].tree.remove(&key);
        debug_assert!(removed, "dequeue of unqueued CFS task");
        self.rqs[cpu.0].load -= weight;
    }

    fn pick_next(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId) -> Option<TaskId> {
        let (_, id) = self.rqs[cpu.0].tree.pop_first()?;
        let weight = weight_of_nice(ctx.task(TaskId(id)).nice);
        let rq = &mut self.rqs[cpu.0];
        rq.load -= weight;
        rq.curr_runtime = SimDuration::ZERO;
        Some(TaskId(id))
    }

    fn put_prev(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        let t = ctx.task(task);
        let key = (t.vruntime, task.0);
        let weight = weight_of_nice(t.nice);
        let inserted = self.rqs[cpu.0].tree.insert(key);
        debug_assert!(inserted, "put_prev of task already queued");
        self.rqs[cpu.0].load += weight;
        let vr = t.vruntime;
        self.update_min_vruntime(cpu.0, Some(vr));
    }

    fn charge(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, delta: SimDuration) {
        let t = ctx.task_mut(task);
        let w = weight_of_nice(t.nice);
        t.vruntime += FairClass::delta_vruntime(delta, w);
        let vr = t.vruntime;
        self.rqs[cpu.0].curr_runtime += delta;
        self.update_min_vruntime(cpu.0, Some(vr));
    }

    fn charge_rounds(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        cpu: CpuId,
        task: TaskId,
        delta: SimDuration,
        n: u64,
    ) {
        if n == 0 {
            return;
        }
        // Integer sums, and vruntime only grows while the tree stands
        // still, so one min_vruntime update with the last vruntime is the
        // max of the n a charge loop would make.
        let t = ctx.task_mut(task);
        let w = weight_of_nice(t.nice);
        t.vruntime += n * FairClass::delta_vruntime(delta, w);
        let vr = t.vruntime;
        self.rqs[cpu.0].curr_runtime += delta * n;
        self.update_min_vruntime(cpu.0, Some(vr));
    }

    fn task_tick(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) -> bool {
        let rq = &self.rqs[cpu.0];
        if rq.tree.is_empty() {
            return false;
        }
        let t = ctx.task(task);
        let weight = weight_of_nice(t.nice);
        let slice = self.slice_for(weight, rq.load + weight);
        if rq.curr_runtime >= slice {
            return true;
        }
        // Also preempt when someone is owed substantially more CPU.
        if let Some(&(left_vr, _)) = rq.tree.first() {
            let gran = FairClass::delta_vruntime(self.tun.wakeup_granularity, weight);
            if t.vruntime > left_vr.saturating_add(gran) {
                return true;
            }
        }
        false
    }

    fn tick_quiet(&self, _ctx: &ClassCtx<'_>, cpu: CpuId, _task: TaskId) -> bool {
        // Nobody to share the CPU with, whatever the running task's vruntime.
        self.rqs[cpu.0].tree.is_empty()
    }

    fn wakeup_preempt(&self, ctx: &ClassCtx<'_>, curr: TaskId, woken: TaskId) -> bool {
        // SCHED_BATCH tasks never preempt on wakeup.
        let w = ctx.task(woken);
        if w.policy == SchedPolicy::Batch {
            return false;
        }
        let c = ctx.task(curr);
        let gran = FairClass::delta_vruntime(self.tun.wakeup_granularity, weight_of_nice(w.nice));
        c.vruntime > w.vruntime.saturating_add(gran)
    }

    fn load_balance(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        cpu: CpuId,
        idle: bool,
    ) -> Option<Migration> {
        let here = self.rqs[cpu.0].tree.len();
        // Pull when idle, or when periodic balancing sees a 2+ imbalance.
        let threshold = if idle { 1 } else { 2 };
        let busiest = (0..self.rqs.len())
            .filter(|&c| c != cpu.0)
            .max_by_key(|&c| self.rqs[c].tree.len());
        let src = busiest?;
        if self.rqs[src].tree.len() < here + threshold {
            return None;
        }
        // Steal the task that has run the most (rightmost): it is the least
        // cache-hot choice in kernel terms and keeps the leftmost (neediest)
        // local.
        let task = self.rqs[src]
            .tree
            .iter()
            .rev()
            .map(|&(_, id)| TaskId(id))
            .find(|&t| ctx.task(t).allowed_on(cpu))?;
        Some(Migration { task, from: CpuId(src), to: cpu })
    }

    fn nr_runnable(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.0].tree.len()
    }
}

impl FairClass {
    /// Diagnostic: the min_vruntime of a CPU's queue.
    pub fn min_vruntime(&self, cpu: CpuId) -> u64 {
        self.rqs[cpu.0].min_vruntime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptedProgram;
    use crate::task::Task;
    use power5::Topology;
    use simcore::SimTime;

    fn mk_tasks(n: usize) -> Vec<Task> {
        (0..n)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                )
            })
            .collect()
    }

    fn ctx<'a>(tasks: &'a mut Vec<Task>, topo: &'a Topology) -> ClassCtx<'a> {
        ClassCtx { now: SimTime::ZERO, tasks, topology: topo, running: &[None; 4] }
    }

    fn fair() -> FairClass {
        let mut c = FairClass::new(CfsTunables::default());
        c.init_cpus(4);
        c
    }

    #[test]
    fn weight_table_sanity() {
        assert_eq!(weight_of_nice(0), 1024);
        assert_eq!(weight_of_nice(-20), 88761);
        assert_eq!(weight_of_nice(19), 15);
        assert_eq!(weight_of_nice(100), 15, "clamped");
        assert_eq!(weight_of_nice(-100), 88761, "clamped");
    }

    #[test]
    fn leftmost_vruntime_runs_first() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3);
        tasks[0].vruntime = 300;
        tasks[1].vruntime = 100;
        tasks[2].vruntime = 200;
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        // Use Migration placement to preserve the preset vruntimes
        // (min_vruntime is 0, so max() keeps them).
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(0), TaskId(i), EnqueueKind::Migration);
        }
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)));
    }

    #[test]
    fn charge_advances_vruntime_by_weight() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        tasks[1].nice = -5; // heavier → slower vruntime
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        c.charge(&mut cx, CpuId(0), TaskId(0), SimDuration::from_millis(10));
        c.charge(&mut cx, CpuId(1), TaskId(1), SimDuration::from_millis(10));
        assert_eq!(cx.task(TaskId(0)).vruntime, 10_000_000);
        assert!(cx.task(TaskId(1)).vruntime < 10_000_000);
    }

    #[test]
    fn tick_requests_resched_after_slice() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let running = TaskId(0);
        // With two nice-0 tasks the slice is latency/2 = 10ms.
        c.charge(&mut cx, CpuId(0), running, SimDuration::from_millis(9));
        assert!(!c.task_tick(&mut cx, CpuId(0), running));
        c.charge(&mut cx, CpuId(0), running, SimDuration::from_millis(2));
        assert!(c.task_tick(&mut cx, CpuId(0), running));
    }

    #[test]
    fn tick_without_waiters_never_reschedules() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(1);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        c.charge(&mut cx, CpuId(0), TaskId(0), SimDuration::from_secs(10));
        assert!(!c.task_tick(&mut cx, CpuId(0), TaskId(0)));
    }

    #[test]
    fn sleeper_gets_bounded_credit() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        // Push min_vruntime forward by running task 0 a long time.
        c.charge(&mut cx, CpuId(0), TaskId(0), SimDuration::from_secs(1));
        c.put_prev(&mut cx, CpuId(0), TaskId(0));
        let min_vr = c.min_vruntime(CpuId(0));
        assert!(min_vr > 0);
        // Task 1 wakes with ancient vruntime 0: placed at floor - credit,
        // not at 0.
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::Wakeup);
        let vr1 = cx.task(TaskId(1)).vruntime;
        let credit = FairClass::delta_vruntime(SimDuration::from_millis(10), 1024);
        assert_eq!(vr1, min_vr - credit);
    }

    #[test]
    fn wakeup_preempt_requires_granularity_gap() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        // Equal vruntimes: no preemption (gap 0 < granularity).
        let c = fair();
        assert!(!c.wakeup_preempt(&ctx(&mut tasks, &topo), TaskId(0), TaskId(1)));
        // Current far ahead: preempt.
        tasks[0].vruntime = 50_000_000; // 50ms
        assert!(c.wakeup_preempt(&ctx(&mut tasks, &topo), TaskId(0), TaskId(1)));
    }

    #[test]
    fn batch_tasks_do_not_wakeup_preempt() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        tasks[1].policy = SchedPolicy::Batch;
        tasks[0].vruntime = 1_000_000_000;
        let c = fair();
        let cx = ctx(&mut tasks, &topo);
        assert!(!c.wakeup_preempt(&cx, TaskId(0), TaskId(1)));
    }

    #[test]
    fn idle_pull_balances() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(1), TaskId(i), EnqueueKind::New);
        }
        let mig = c.load_balance(&mut cx, CpuId(0), true).expect("a pull");
        assert_eq!(mig.from, CpuId(1));
        // Migration applies: kernel would dequeue+enqueue; here verify the
        // class accepted the affinity filter.
        assert!(cx.task(mig.task).allowed_on(CpuId(0)));
    }

    #[test]
    fn affinity_respected_in_balance() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2);
        tasks[0].affinity = Some(vec![CpuId(1)]);
        tasks[1].affinity = Some(vec![CpuId(1)]);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(1), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(1), TaskId(1), EnqueueKind::New);
        assert!(c.load_balance(&mut cx, CpuId(0), true).is_none());
    }

    #[test]
    fn min_vruntime_is_monotonic() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(1);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        let mut last = 0;
        for _ in 0..10 {
            c.charge(&mut cx, CpuId(0), TaskId(0), SimDuration::from_millis(5));
            let m = c.min_vruntime(CpuId(0));
            assert!(m >= last);
            last = m;
        }
    }

    #[test]
    fn tree_invariants_hold_through_churn() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(16);
        let mut c = fair();
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..16 {
            cx.task_mut(TaskId(i)).vruntime = (i as u64 * 37) % 11;
            c.enqueue(&mut cx, CpuId(0), TaskId(i), EnqueueKind::Migration);
        }
        for _ in 0..8 {
            let t = c.pick_next(&mut cx, CpuId(0)).unwrap();
            c.charge(&mut cx, CpuId(0), t, SimDuration::from_millis(3));
            c.put_prev(&mut cx, CpuId(0), t);
        }
        assert_eq!(c.nr_runnable(CpuId(0)), 16);
    }
}
