//! Simulated task (process) descriptors and accounting.

use crate::policy::SchedPolicy;
use crate::program::Program;
use power5::{CpuId, HwPriority, TaskPerfTraits};
use simcore::{SimDuration, SimTime};
use std::fmt;

/// Index of a task in the kernel's task table. Task 0..n are created in
/// spawn order; ids are never reused.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub usize);

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

impl simcore::snapshot::Snapshot for TaskId {
    fn snapshot(&self, w: &mut simcore::snapshot::SnapshotWriter) {
        w.put_len(self.0);
    }
    fn restore(
        r: &mut simcore::snapshot::SnapshotReader<'_>,
    ) -> Result<Self, simcore::snapshot::SnapshotError> {
        Ok(TaskId(r.get_len()?))
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Scheduler-visible task state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// On a runqueue, waiting for a CPU.
    Runnable,
    /// Currently executing on a CPU.
    Running,
    /// Blocked (MPI wait, timer); not on any runqueue.
    Sleeping,
    /// Finished; never scheduled again.
    Exited,
}

/// Accounting for the current iteration (compute phase + wait phase,
/// paper §IV-B and Figure 2) plus lifetime totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct IterationAccounting {
    /// CPU time consumed since the current iteration started (`tR`).
    pub run_in_iter: SimDuration,
    /// Completed iterations.
    pub iterations: u64,
    /// When the current iteration started.
    pub iter_started: SimTime,
}

/// A simulated process.
pub struct Task {
    pub id: TaskId,
    pub name: String,
    pub policy: SchedPolicy,
    /// Nice value for CFS policies (−20 … 19).
    pub nice: i32,
    /// Real-time priority for FIFO/RR (1 … 99, higher wins).
    pub rt_priority: u8,
    pub state: TaskState,
    /// CPU the task is running on, or last ran on.
    pub cpu: Option<CpuId>,
    /// Allowed CPUs; `None` = no restriction.
    pub affinity: Option<Vec<CpuId>>,
    /// Hardware thread priority the mechanism applies when this task is
    /// dispatched onto a context. Heuristics write this; default Medium (4).
    pub hw_prio: HwPriority,
    /// SMT performance traits fed to the chip model.
    pub perf: TaskPerfTraits,

    // ---- CFS bookkeeping ----
    /// Virtual runtime in weighted nanoseconds.
    pub vruntime: u64,

    // ---- round-robin bookkeeping (RT RR and HPC RR) ----
    /// Remaining time slice.
    pub slice_left: SimDuration,

    // ---- lifetime accounting ----
    pub spawned_at: SimTime,
    pub exited_at: Option<SimTime>,
    pub exec_total: SimDuration,
    /// Time spent runnable-but-not-running.
    pub wait_rq_total: SimDuration,
    pub sleep_total: SimDuration,
    /// Moment of the last state transition (basis for the above).
    pub last_state_change: SimTime,

    // ---- wakeup latency ----
    /// When the task last became runnable (for latency measurement).
    pub last_wakeup: Option<SimTime>,
    /// When the task last went to sleep.
    pub last_sleep_start: Option<SimTime>,
    /// Accumulated wakeup→dispatch latency.
    pub latency_total: SimDuration,
    pub latency_samples: u64,

    // ---- iteration accounting ----
    pub iter: IterationAccounting,

    // ---- voluntary/involuntary switches ----
    pub nr_switches: u64,

    /// The code the task runs. Taken out while an action executes.
    pub(crate) program: Option<Box<dyn Program>>,
    /// Work units left in the current compute segment.
    pub(crate) remaining_work: f64,
    /// Injected speed multiplier (fault class 2: straggler drift); 1.0 when
    /// no fault touched the task. Applied on top of the chip-model speed.
    pub(crate) fault_slow: f64,
}

impl Task {
    /// Construct a task descriptor. Normally tasks are created through
    /// [`crate::Kernel::spawn`]; this is public so scheduling classes in
    /// other crates can build descriptors in their own unit tests.
    pub fn new(
        id: TaskId,
        name: String,
        policy: SchedPolicy,
        program: Box<dyn Program>,
        now: SimTime,
    ) -> Self {
        Task {
            id,
            name,
            policy,
            nice: 0,
            rt_priority: 0,
            state: TaskState::Runnable,
            cpu: None,
            affinity: None,
            hw_prio: HwPriority::MEDIUM,
            perf: TaskPerfTraits::default(),
            vruntime: 0,
            slice_left: SimDuration::ZERO,
            spawned_at: now,
            exited_at: None,
            exec_total: SimDuration::ZERO,
            wait_rq_total: SimDuration::ZERO,
            sleep_total: SimDuration::ZERO,
            last_state_change: now,
            last_wakeup: Some(now),
            last_sleep_start: None,
            latency_total: SimDuration::ZERO,
            latency_samples: 0,
            iter: IterationAccounting { iter_started: now, ..Default::default() },
            nr_switches: 0,
            program: Some(program),
            remaining_work: 0.0,
            fault_slow: 1.0,
        }
    }

    /// Whether the task may run on `cpu`.
    pub fn allowed_on(&self, cpu: CpuId) -> bool {
        match &self.affinity {
            None => true,
            Some(set) => set.contains(&cpu),
        }
    }

    /// Lifetime wall-clock, using `now` for still-live tasks.
    pub fn lifetime(&self, now: SimTime) -> SimDuration {
        self.exited_at.unwrap_or(now).saturating_since(self.spawned_at)
    }

    /// Lifetime CPU utilization in `[0,1]` — the paper's `%Comp` metric.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        let life = self.lifetime(now);
        if life.is_zero() {
            0.0
        } else {
            self.exec_total.as_nanos() as f64 / life.as_nanos() as f64
        }
    }

    /// Mean wakeup→dispatch scheduler latency.
    pub fn mean_latency(&self) -> SimDuration {
        if self.latency_samples == 0 {
            SimDuration::ZERO
        } else {
            self.latency_total / self.latency_samples
        }
    }

    pub fn is_live(&self) -> bool {
        self.state != TaskState::Exited
    }

    /// Work units left in the current compute segment (diagnostic).
    pub fn remaining_work(&self) -> f64 {
        self.remaining_work
    }
}

impl fmt::Debug for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Task")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("policy", &self.policy)
            .field("state", &self.state)
            .field("cpu", &self.cpu)
            .field("hw_prio", &self.hw_prio)
            .field("exec_total", &self.exec_total)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, KernelApi};

    struct Nop;
    impl Program for Nop {
        fn next_action(&mut self, _api: &mut KernelApi<'_>) -> Action {
            Action::Exit
        }
    }

    fn mk() -> Task {
        Task::new(TaskId(0), "t".into(), SchedPolicy::Normal, Box::new(Nop), SimTime::ZERO)
    }

    #[test]
    fn new_task_is_runnable_medium() {
        let t = mk();
        assert_eq!(t.state, TaskState::Runnable);
        assert_eq!(t.hw_prio, HwPriority::MEDIUM);
        assert!(t.is_live());
    }

    #[test]
    fn affinity_checks() {
        let mut t = mk();
        assert!(t.allowed_on(CpuId(3)));
        t.affinity = Some(vec![CpuId(1)]);
        assert!(t.allowed_on(CpuId(1)));
        assert!(!t.allowed_on(CpuId(0)));
    }

    #[test]
    fn utilization_is_exec_over_lifetime() {
        let mut t = mk();
        t.exec_total = SimDuration::from_secs(1);
        let now = SimTime::ZERO + SimDuration::from_secs(4);
        assert!((t.cpu_utilization(now) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_of_newborn_is_zero() {
        let t = mk();
        assert_eq!(t.cpu_utilization(SimTime::ZERO), 0.0);
    }

    #[test]
    fn mean_latency() {
        let mut t = mk();
        assert_eq!(t.mean_latency(), SimDuration::ZERO);
        t.latency_total = SimDuration::from_micros(30);
        t.latency_samples = 3;
        assert_eq!(t.mean_latency(), SimDuration::from_micros(10));
    }

    #[test]
    fn lifetime_uses_exit_time_when_exited() {
        let mut t = mk();
        t.exited_at = Some(SimTime::ZERO + SimDuration::from_secs(2));
        let much_later = SimTime::ZERO + SimDuration::from_secs(100);
        assert_eq!(t.lifetime(much_later), SimDuration::from_secs(2));
    }
}
