//! The idle scheduling class.
//!
//! Lowest in the class chain (paper Figure 1): its tasks run only when every
//! other class is empty. We host `SCHED_IDLE` tasks here as a plain per-CPU
//! FIFO. The *idle loop itself* (what runs when even this class is empty) is
//! modelled by the kernel as an empty CPU — on POWER5 the idle loop drops
//! the hardware thread priority so the sibling context gets the whole core,
//! which is exactly how the chip model treats an unloaded context.

use crate::class::{ClassCtx, EnqueueKind, SchedClass};
use crate::policy::SchedPolicy;
use crate::task::TaskId;
use power5::CpuId;
use simcore::SimDuration;
use std::collections::VecDeque;

/// The idle class.
pub struct IdleClass {
    rqs: Vec<VecDeque<TaskId>>,
}

impl IdleClass {
    pub fn new() -> Self {
        IdleClass { rqs: Vec::new() }
    }
}

impl Default for IdleClass {
    fn default() -> Self {
        Self::new()
    }
}

impl SchedClass for IdleClass {
    fn name(&self) -> &'static str {
        "idle"
    }

    fn handles(&self, policy: SchedPolicy) -> bool {
        policy == SchedPolicy::Idle
    }

    fn init_cpus(&mut self, num_cpus: usize) {
        self.rqs = (0..num_cpus).map(|_| VecDeque::new()).collect();
    }

    fn enqueue(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, _kind: EnqueueKind) {
        self.rqs[cpu.0].push_back(task);
    }

    fn dequeue(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        if let Some(pos) = self.rqs[cpu.0].iter().position(|&t| t == task) {
            self.rqs[cpu.0].remove(pos);
        } else {
            debug_assert!(false, "dequeue of unqueued idle task");
        }
    }

    fn pick_next(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId) -> Option<TaskId> {
        self.rqs[cpu.0].pop_front()
    }

    fn put_prev(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        // Round-robin among idle tasks.
        self.rqs[cpu.0].push_back(task);
    }

    fn charge(&mut self, _ctx: &mut ClassCtx<'_>, _cpu: CpuId, _task: TaskId, _d: SimDuration) {}

    fn task_tick(&mut self, _ctx: &mut ClassCtx<'_>, cpu: CpuId, _task: TaskId) -> bool {
        // Rotate whenever someone else idle-priority is waiting.
        !self.rqs[cpu.0].is_empty()
    }

    fn tick_quiet(&self, _ctx: &ClassCtx<'_>, cpu: CpuId, _task: TaskId) -> bool {
        self.rqs[cpu.0].is_empty()
    }

    fn wakeup_preempt(&self, _ctx: &ClassCtx<'_>, _curr: TaskId, _woken: TaskId) -> bool {
        false
    }

    fn nr_runnable(&self, cpu: CpuId) -> usize {
        self.rqs[cpu.0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptedProgram;
    use crate::task::Task;
    use power5::Topology;
    use simcore::SimTime;

    #[test]
    fn fifo_behaviour() {
        let topo = Topology::openpower_710();
        let mut tasks: Vec<Task> = (0..2)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("idle{i}"),
                    SchedPolicy::Idle,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                )
            })
            .collect();
        let mut c = IdleClass::new();
        c.init_cpus(4);
        let mut cx = ClassCtx { now: SimTime::ZERO, tasks: &mut tasks, topology: &topo, running: &[None; 4] };
        c.enqueue(&mut cx, CpuId(0), TaskId(0), EnqueueKind::New);
        c.enqueue(&mut cx, CpuId(0), TaskId(1), EnqueueKind::New);
        assert_eq!(c.nr_runnable(CpuId(0)), 2);
        let first = c.pick_next(&mut cx, CpuId(0)).unwrap();
        assert_eq!(first, TaskId(0));
        assert!(c.task_tick(&mut cx, CpuId(0), first), "rotate when others wait");
        c.put_prev(&mut cx, CpuId(0), first);
        assert_eq!(c.pick_next(&mut cx, CpuId(0)), Some(TaskId(1)));
    }

    #[test]
    fn handles_only_idle_policy() {
        let c = IdleClass::new();
        assert!(c.handles(SchedPolicy::Idle));
        assert!(!c.handles(SchedPolicy::Normal));
        assert!(!c.handles(SchedPolicy::Hpc));
    }
}
