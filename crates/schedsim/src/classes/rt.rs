//! The real-time scheduling class: `SCHED_FIFO` and `SCHED_RR`.
//!
//! Per paper §III this is "essentially the old O(1) scheduler algorithm":
//! one round-robin queue per real-time priority (0–99), pick the first task
//! of the highest non-empty queue. FIFO tasks keep the head until they
//! yield or block; RR tasks rotate to the tail when their slice expires.

use crate::class::{ClassCtx, EnqueueKind, Migration, SchedClass};
use crate::policy::SchedPolicy;
use crate::task::TaskId;
use power5::CpuId;
use simcore::SimDuration;
use std::collections::VecDeque;

/// Number of real-time priority levels (matching Linux).
pub const RT_PRIO_LEVELS: usize = 100;

struct RtRq {
    /// `queues[p]` holds tasks with `rt_priority == p`; higher p wins.
    queues: Vec<VecDeque<TaskId>>,
    /// Bitmap of non-empty priority levels for O(1)-style lookup.
    bitmap: u128,
    nr: usize,
}

impl RtRq {
    fn new() -> Self {
        RtRq { queues: (0..RT_PRIO_LEVELS).map(|_| VecDeque::new()).collect(), bitmap: 0, nr: 0 }
    }

    fn push_back(&mut self, prio: u8, t: TaskId) {
        self.queues[prio as usize].push_back(t);
        self.bitmap |= 1 << prio;
        self.nr += 1;
    }

    fn push_front(&mut self, prio: u8, t: TaskId) {
        self.queues[prio as usize].push_front(t);
        self.bitmap |= 1 << prio;
        self.nr += 1;
    }

    fn remove(&mut self, prio: u8, t: TaskId) -> bool {
        let q = &mut self.queues[prio as usize];
        if let Some(pos) = q.iter().position(|&x| x == t) {
            q.remove(pos);
            if q.is_empty() {
                self.bitmap &= !(1 << prio);
            }
            self.nr -= 1;
            true
        } else {
            false
        }
    }

    fn highest(&self) -> Option<u8> {
        if self.bitmap == 0 {
            None
        } else {
            Some(127 - self.bitmap.leading_zeros() as u8)
        }
    }

    fn pop_highest(&mut self) -> Option<TaskId> {
        let p = self.highest()?;
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: bit p set ⇔ queues[p] non-empty — enqueue sets the bit on \
                      push, dequeue and this pop clear it on the last remove."
        )]
        let t = self.queues[p as usize].pop_front().expect("bitmap said non-empty");
        if self.queues[p as usize].is_empty() {
            self.bitmap &= !(1 << p);
        }
        self.nr -= 1;
        Some(t)
    }
}

/// The real-time class.
pub struct RtClass {
    /// One runqueue per CPU, all made at the first RT enqueue: most
    /// kernels never queue an RT task, and 100 FIFOs a CPU are not free to
    /// build. Empty until then.
    rqs: Vec<RtRq>,
    num_cpus: usize,
    rr_slice: SimDuration,
}

impl RtClass {
    pub fn new(rr_slice: SimDuration) -> Self {
        RtClass { rqs: Vec::new(), num_cpus: 0, rr_slice }
    }

    /// `cpu`'s runqueue, for a push: makes every CPU's on first use.
    fn rq(&mut self, cpu: CpuId) -> &mut RtRq {
        if self.rqs.is_empty() {
            self.rqs = (0..self.num_cpus).map(|_| RtRq::new()).collect();
        }
        &mut self.rqs[cpu.0]
    }
}

impl SchedClass for RtClass {
    fn name(&self) -> &'static str {
        "rt"
    }

    fn handles(&self, policy: SchedPolicy) -> bool {
        policy.is_realtime()
    }

    fn init_cpus(&mut self, num_cpus: usize) {
        self.rqs.clear();
        self.num_cpus = num_cpus;
    }

    fn enqueue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, _kind: EnqueueKind) {
        let t = ctx.task_mut(task);
        if t.policy == SchedPolicy::Rr && t.slice_left.is_zero() {
            t.slice_left = self.rr_slice;
        }
        let prio = t.rt_priority;
        self.rq(cpu).push_back(prio, task);
    }

    fn dequeue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        let prio = ctx.task(task).rt_priority;
        let removed = self.rqs.get_mut(cpu.0).is_some_and(|rq| rq.remove(prio, task));
        debug_assert!(removed, "dequeue of unqueued RT task");
    }

    fn pick_next(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId) -> Option<TaskId> {
        self.rqs.get_mut(cpu.0)?.pop_highest()
    }

    fn put_prev(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        let t = ctx.task_mut(task);
        let prio = t.rt_priority;
        if t.policy == SchedPolicy::Rr && t.slice_left.is_zero() {
            // Slice expired: rotate to the tail with a fresh slice.
            t.slice_left = self.rr_slice;
            self.rq(cpu).push_back(prio, task);
        } else {
            // Preempted by a higher class/priority: keep the head position.
            self.rq(cpu).push_front(prio, task);
        }
    }

    fn on_yield(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        // POSIX: yield moves the task to the tail of its priority list.
        let prio = ctx.task(task).rt_priority;
        self.rq(cpu).push_back(prio, task);
    }

    fn charge(&mut self, ctx: &mut ClassCtx<'_>, _cpu: CpuId, task: TaskId, delta: SimDuration) {
        let t = ctx.task_mut(task);
        if t.policy == SchedPolicy::Rr {
            t.slice_left = t.slice_left.saturating_sub(delta);
        }
    }

    fn task_tick(&mut self, ctx: &mut ClassCtx<'_>, _cpu: CpuId, task: TaskId) -> bool {
        let t = ctx.task(task);
        t.policy == SchedPolicy::Rr && t.slice_left.is_zero()
    }

    fn tick_quiet(&self, ctx: &ClassCtx<'_>, _cpu: CpuId, task: TaskId) -> bool {
        // FIFO tasks have no slice; an RR slice runs out under charges.
        ctx.task(task).policy == SchedPolicy::Fifo
    }

    fn wakeup_preempt(&self, ctx: &ClassCtx<'_>, curr: TaskId, woken: TaskId) -> bool {
        ctx.task(woken).rt_priority > ctx.task(curr).rt_priority
    }

    fn load_balance(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        cpu: CpuId,
        idle: bool,
    ) -> Option<Migration> {
        if !idle || self.nr_runnable(cpu) > 0 {
            return None;
        }
        // Idle pull: take one task from the busiest RT runqueue.
        let busiest = (0..self.rqs.len())
            .filter(|&c| c != cpu.0 && self.rqs[c].nr > 1)
            .max_by_key(|&c| self.rqs[c].nr);
        let src = busiest?;
        // Pull the lowest-priority queued task that may run here (steal the
        // least important work, like the kernel's pull_rt_task).
        let task = (0..RT_PRIO_LEVELS).find_map(|p| {
            self.rqs[src].queues[p].iter().copied().find(|&t| ctx.task(t).allowed_on(cpu))
        })?;
        Some(Migration { task, from: CpuId(src), to: cpu })
    }

    fn nr_runnable(&self, cpu: CpuId) -> usize {
        self.rqs.get(cpu.0).map_or(0, |rq| rq.nr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptedProgram;
    use crate::task::Task;
    use power5::Topology;
    use simcore::SimTime;

    fn mk_tasks(n: usize, policy: SchedPolicy) -> Vec<Task> {
        (0..n)
            .map(|i| {
                let mut t = Task::new(
                    TaskId(i),
                    format!("t{i}"),
                    policy,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                );
                t.rt_priority = 10;
                t
            })
            .collect()
    }

    fn ctx<'a>(tasks: &'a mut Vec<Task>, topo: &'a Topology) -> ClassCtx<'a> {
        ClassCtx { now: SimTime::ZERO, tasks, topology: topo, running: &[None; 4] }
    }

    fn rt() -> RtClass {
        let mut c = RtClass::new(SimDuration::from_millis(100));
        c.init_cpus(4);
        c
    }

    #[test]
    fn queues_are_built_at_the_first_enqueue() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(1, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        assert_eq!(c.nr_runnable(CpuId(3)), 0);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), None);
        assert!(c.load_balance(&mut cx, CpuId(0), true).is_none());
        assert!(c.rqs.is_empty(), "asking builds nothing");
        c.enqueue(&mut cx, CpuId(2), TaskId(0), EnqueueKind::New);
        assert_eq!(c.rqs.len(), 4);
        assert_eq!(c.nr_runnable(CpuId(2)), 1);
        assert_eq!(c.pick_next(&mut cx, CpuId(2)), Some(TaskId(0)));
    }

    #[test]
    fn fifo_order_within_priority() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(0), TaskId(i), EnqueueKind::New);
        }
        assert_eq!(c.nr_runnable(CpuId(0)), 3);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(0)));
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)));
    }

    #[test]
    fn higher_priority_picked_first() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Fifo);
        tasks[1].rt_priority = 50;
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)));
    }

    #[test]
    fn rr_slice_expiry_rotates_to_tail() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Rr);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        assert_eq!(first, TaskId(0));
        // Burn the whole slice.
        c.charge(&mut cx, CpuId(0), first, SimDuration::from_millis(100));
        assert!(c.task_tick(&mut cx, CpuId(0), first), "slice expired → resched");
        c.put_prev(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)), "rotated");
    }

    #[test]
    fn preempted_task_keeps_head() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Rr);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        // Only part of the slice used → put_prev keeps it at the head.
        c.charge(&mut cx, CpuId(0), first, SimDuration::from_millis(10));
        c.put_prev(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(first));
    }

    #[test]
    fn yield_moves_to_tail() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        c.on_yield(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)));
    }

    #[test]
    fn wakeup_preempt_by_priority_only() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Fifo);
        tasks[1].rt_priority = 20;
        let c = rt();
        let cx = ctx(&mut tasks, &topo);
        assert!(c.wakeup_preempt(&cx, TaskId(0), TaskId(1)));
        assert!(!c.wakeup_preempt(&cx, TaskId(1), TaskId(0)));
    }

    #[test]
    fn idle_pull_from_busiest() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(1), TaskId(i), EnqueueKind::New);
        }
        let mig = c.load_balance(&mut cx, CpuId(0), true).expect("a pull");
        assert_eq!(mig.from, CpuId(1));
        assert_eq!(mig.to, CpuId(0));
    }

    #[test]
    fn no_pull_when_not_idle() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(2, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        c.enqueue(&mut cx, CpuId(1), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(1), TaskId(1), EnqueueKind::New);
        assert!(c.load_balance(&mut cx, CpuId(0), false).is_none());
    }

    #[test]
    fn dequeue_removes_specific_task() {
        let topo = Topology::openpower_710();
        let mut tasks = mk_tasks(3, SchedPolicy::Fifo);
        let mut c = rt();
        let mut cx = ctx(&mut tasks, &topo);
        for i in 0..3 {
            c.enqueue(&mut cx, CpuId(0), TaskId(i), EnqueueKind::New);
        }
        c.dequeue(&mut cx, CpuId(0), TaskId(1));
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(0)));
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(2)));
    }
}
