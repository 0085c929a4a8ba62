//! The Scheduling Class abstraction (paper §III, Figure 1).
//!
//! The Scheduler Core treats classes as objects and walks them in priority
//! order; each class owns its own per-CPU run queues and algorithms. This
//! trait is the seam the paper exploits: `SCHED_HPC`
//! ([`crate::classes::BalancedClass`]) implements it and installs itself
//! between the real-time and CFS classes without touching the core
//! (`Kernel`).

use crate::task::{Task, TaskId};
use power5::{CpuId, Topology};
use simcore::{SimDuration, SimTime};

/// A migration decided by a class's load balancer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    pub task: TaskId,
    pub from: CpuId,
    pub to: CpuId,
}

/// Why a task is being enqueued; placement policies differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueKind {
    /// Freshly spawned.
    New,
    /// Woken from sleep.
    Wakeup,
    /// Migrated from another CPU by load balancing.
    Migration,
}

/// Mutable kernel state a class may touch while handling a callback.
pub struct ClassCtx<'a> {
    pub now: SimTime,
    pub tasks: &'a mut Vec<Task>,
    pub topology: &'a Topology,
    /// The task currently dispatched on each CPU (indexed by CPU id).
    /// Needed by balancers that equalize *total* task counts per domain.
    /// Borrowed from the kernel, so building a context allocates nothing.
    pub running: &'a [Option<TaskId>],
}

impl<'a> ClassCtx<'a> {
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.0]
    }
}

/// A scheduling class: policy container + per-CPU run queues + algorithms.
///
/// Invariant maintained by the kernel: a task is *queued* in its class only
/// while `Runnable`; the task currently running on a CPU is not in any
/// queue (the kernel calls [`SchedClass::put_prev`] to give it back).
///
/// Ordering contract: [`SchedClass::charge`] on one CPU never reads state
/// that a `charge` on another CPU writes. The kernel relies on it when it
/// replays quiet tick rounds: it charges each CPU for all the rounds at
/// once, in CPU order, instead of every CPU once per round (DESIGN §5
/// note 7).
pub trait SchedClass: Send {
    fn name(&self) -> &'static str;

    /// Which policies this class services.
    fn handles(&self, policy: crate::policy::SchedPolicy) -> bool;

    /// Called once with the machine's CPU count before any other callback.
    fn init_cpus(&mut self, num_cpus: usize);

    /// Add a runnable task to this class's queue on `cpu`.
    fn enqueue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, kind: EnqueueKind);

    /// Remove a queued task (migration, policy change, exit while queued).
    fn dequeue(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId);

    /// Choose and remove the next task to run on `cpu`, if any.
    fn pick_next(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId) -> Option<TaskId>;

    /// Return a preempted-but-still-runnable task to the queue.
    fn put_prev(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId);

    /// The running task voluntarily yields; default: same as `put_prev`.
    fn on_yield(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) {
        self.put_prev(ctx, cpu, task);
    }

    /// Account `delta` of CPU time to the running `task`. Called on every
    /// accounting sync that moves the task's clock (not just ticks), so
    /// vruntime/slice bookkeeping is exact, except in replayed quiet tick
    /// rounds, which use [`SchedClass::charge_rounds`] instead.
    fn charge(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId, delta: SimDuration);

    /// Account `n` rounds of `delta` each to the running `task`, leaving
    /// the task and the class exactly as `n` calls of
    /// [`SchedClass::charge`] would. The kernel calls it for replayed
    /// quiet tick rounds, where nothing else happens between the charges.
    /// The default makes those `n` calls; a class overrides it when it can
    /// do the same in O(1).
    fn charge_rounds(
        &mut self,
        ctx: &mut ClassCtx<'_>,
        cpu: CpuId,
        task: TaskId,
        delta: SimDuration,
        n: u64,
    ) {
        for _ in 0..n {
            self.charge(ctx, cpu, task, delta);
        }
    }

    /// Scheduler tick while `task` runs on `cpu`. Return `true` to request
    /// a reschedule.
    fn task_tick(&mut self, ctx: &mut ClassCtx<'_>, cpu: CpuId, task: TaskId) -> bool;

    /// Whether ticks are *quiet* for the running `task` on `cpu`: a
    /// promise that, until this class's queues or the task change, every
    /// [`SchedClass::task_tick`] after any further [`SchedClass::charge`]s
    /// returns `false` and changes nothing. The kernel then replays such
    /// ticks without calling `task_tick` (DESIGN §5 note 7). The default,
    /// `false`, promises nothing and is always correct.
    fn tick_quiet(&self, _ctx: &ClassCtx<'_>, _cpu: CpuId, _task: TaskId) -> bool {
        false
    }

    /// Should `woken` preempt `curr`? Both belong to this class.
    fn wakeup_preempt(&self, ctx: &ClassCtx<'_>, curr: TaskId, woken: TaskId) -> bool;

    /// The running task blocked. (The task is not queued at this point.)
    fn task_slept(&mut self, _ctx: &mut ClassCtx<'_>, _cpu: CpuId, _task: TaskId) {}

    /// A task of this class woke after an actual sleep, completing one
    /// iteration (compute `iter_run` + wait `iter_wait`). Called *before*
    /// the task is enqueued, so the class may adjust `Task::hw_prio` and
    /// have it applied on next dispatch — this is the hook the paper's Load
    /// Imbalance Detector lives behind.
    fn task_woken(
        &mut self,
        _ctx: &mut ClassCtx<'_>,
        _task: TaskId,
        _iter_run: SimDuration,
        _iter_wait: SimDuration,
    ) {
    }

    /// A task of this class exited; drop any per-task state.
    fn task_exited(&mut self, _ctx: &mut ClassCtx<'_>, _task: TaskId) {}

    /// Load balancing opportunity on `cpu` (`idle` = the CPU ran out of
    /// work). Return a migration of a *queued* task; the kernel applies it.
    ///
    /// Contract: when no queued task, of any class, may run on a CPU other
    /// than the one it is queued on (nothing is queued, or only pinned
    /// tasks are), a call returns nothing and changes nothing, neither the
    /// class nor the tasks, periodic (`idle == false`) or idle alike. The
    /// kernel relies on it twice: it replays quiet tick rounds across
    /// balance ticks without calling it (DESIGN §5 note 7), and a CPU that
    /// runs dry makes no idle call then. Debug builds assert that every
    /// periodic call the step loop makes then returns nothing; the idle
    /// half is checked per class and registry policy by
    /// `idle_balance_with_nothing_movable_queued_is_a_no_op`. A balancer
    /// that only ever migrates a task the task's affinity allows on the
    /// destination keeps it.
    ///
    /// Every class here keeps it: the RT, CFS and idle classes only read
    /// their queues, and the HPC class ([`crate::classes::BalancedClass`])
    /// refills a per-CPU count vector it rewrites in full before each use,
    /// then asks its [`crate::Balancer`], whose own contract is the same.
    fn load_balance(
        &mut self,
        _ctx: &mut ClassCtx<'_>,
        _cpu: CpuId,
        _idle: bool,
    ) -> Option<Migration> {
        None
    }

    /// Number of queued (runnable, not running) tasks on `cpu`.
    fn nr_runnable(&self, cpu: CpuId) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_is_plain_data() {
        let m = Migration { task: TaskId(1), from: CpuId(0), to: CpuId(2) };
        assert_eq!(m, m);
        assert_ne!(m, Migration { task: TaskId(2), from: CpuId(0), to: CpuId(2) });
    }
}
