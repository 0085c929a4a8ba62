//! The balancing-policy abstraction: what the paper hard-wires into
//! `SCHED_HPC`, lifted into a trait.
//!
//! The scheduling *class* machinery (run queues, dispatch, migration) is
//! policy-independent; what varies between balancing disciplines is how an
//! iteration sample is judged and which hardware priorities come out. A
//! [`Balancer`] owns exactly that decision logic, and the thin driver
//! ([`crate::classes::BalancedClass`]) owns everything else — time, the
//! per-CPU queues, and telemetry wiring — mirroring the
//! `Scheduler`/`SchedCore` split used by BPF-style pluggable schedulers.
//!
//! The contract (see DESIGN.md §12):
//!
//! * `on_sample` is called once per completed iteration (compute + wait),
//!   *before* the task re-enters a run queue. It classifies the sample:
//!   [`SampleOutcome::Recorded`] feeds `assign_priorities`,
//!   [`SampleOutcome::Unusable`] feeds `on_fault` (the do-no-harm path).
//! * `assign_priorities` / `on_fault` return [`PrioAssignment`]s; the
//!   driver applies them to task state and counts actual changes. A
//!   balancer never mutates `ClassCtx` directly.
//! * Every returned priority must lie within the tunables' configured
//!   `[min_prio, max_prio]` range (conformance rule C001).
//! * Balancers are pure functions of their inputs: no wall clock, no
//!   unseeded randomness, no hash-order iteration (purity rules of
//!   DESIGN.md §11 apply verbatim).

use crate::balance::{plan_pull, BalanceView};
use crate::class::{ClassCtx, Migration};
use crate::policies::PrioMechanism;
use crate::task::TaskId;
use power5::{CpuId, HwPriority};
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimDuration;

/// One completed iteration of an HPC task, as observed by the kernel.
#[derive(Clone, Copy, Debug)]
pub struct IterSample {
    pub task: TaskId,
    /// CPU time consumed during the iteration.
    pub run: SimDuration,
    /// Elapsed (wall) simulated time of the iteration.
    pub wall: SimDuration,
}

/// How a balancer classified a sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The sample entered the policy's history; ask `assign_priorities`.
    Recorded,
    /// The sample was garbage (zero wall, non-finite utilization); ask
    /// `on_fault` so the task degrades to the do-no-harm floor.
    Unusable,
}

/// A hardware-priority decision for one task. The driver applies it and
/// counts it as a change only if the task's priority actually moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrioAssignment {
    pub task: TaskId,
    pub prio: HwPriority,
}

/// The do-no-harm degradation floor (DESIGN.md §9), shared by every
/// policy's default fault path: stop steering a task the policy has no
/// usable data for by dropping it back to the uniform default priority.
pub fn degrade_to_floor(ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
    if ctx.task(task).hw_prio == HwPriority::MEDIUM {
        Vec::new()
    } else {
        vec![PrioAssignment { task, prio: HwPriority::MEDIUM }]
    }
}

/// A balancing policy: iteration samples in, priority assignments out.
pub trait Balancer {
    /// Registry name of the policy (also its trace/report label).
    fn name(&self) -> &'static str;

    /// Called once with the machine's CPU count before any sample.
    fn init(&mut self, _num_cpus: usize) {}

    /// Register the policy's decision counters. Called at kernel build
    /// time when telemetry is available.
    fn attach_telemetry(&mut self, _registry: &telemetry::MetricsRegistry) {}

    /// Observe one completed iteration and classify it.
    fn on_sample(&mut self, ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome;

    /// Decide the task's next hardware priority after a recorded sample.
    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment>;

    /// Decide what to do after an unusable sample. The default is the
    /// do-no-harm floor: degrade the task to the uniform priority.
    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        degrade_to_floor(ctx, task)
    }

    /// A task left the class (exit or policy change); drop its history.
    fn task_exited(&mut self, _task: TaskId) {}

    /// Decide at most one queue migration for `cpu` (`idle` = it ran out
    /// of work). The default is the paper's domain-level pull balancer.
    ///
    /// Contract: with no task in `view.queued` that `allowed` lets run on
    /// a CPU other than the one it is queued on, return `None` and change
    /// no state, `idle` or not: the kernel skips such calls (see
    /// [`crate::SchedClass::load_balance`]). A plan that only ever returns
    /// a migration `allowed(task, cpu)` accepts keeps it. Every registry
    /// policy does: each plans with [`plan_pull`] or work stealing, which
    /// write nothing and only return a task queued on another CPU that
    /// `allowed` lets run on `cpu`.
    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        plan_pull(view, cpu, idle, allowed)
    }

    /// Serialize the policy's accumulated decision state (DESIGN.md §14):
    /// everything a freshly-built instance of the same policy (same
    /// registry entry, same tunables) needs to continue making
    /// byte-identical decisions. Stateless policies write nothing — the
    /// default. The encoding must be byte-stable: equal state, equal
    /// bytes (no hash-order iteration).
    fn snapshot(&self, _w: &mut SnapshotWriter) {}

    /// Restore state written by [`Balancer::snapshot`] into this
    /// freshly-built instance. The default consumes nothing, matching the
    /// default `snapshot`.
    fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }
}

impl<B: Balancer + ?Sized> Balancer for Box<B> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn init(&mut self, num_cpus: usize) {
        (**self).init(num_cpus);
    }

    fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        (**self).attach_telemetry(registry);
    }

    fn on_sample(&mut self, ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome {
        (**self).on_sample(ctx, sample)
    }

    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        (**self).assign_priorities(ctx, task)
    }

    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        (**self).on_fault(ctx, task)
    }

    fn task_exited(&mut self, task: TaskId) {
        (**self).task_exited(task);
    }

    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        (**self).plan_migrations(view, cpu, idle, allowed)
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        (**self).snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        (**self).restore(r)
    }
}

/// Decision counters shared by the zoo policies and Table I (which
/// registers them under its heuristic's name), as one block:
/// `hpc.decisions.<policy>.accepted` / `.rejected` count priority proposals
/// the mechanism applied vs refused, and `hpc.detector.degraded` counts
/// unusable samples that hit the do-no-harm floor (the counter the fault
/// report reads as `degraded_samples`).
pub struct BalancerTelemetry {
    /// Indexed by [`Decision`].
    counters: telemetry::Counters,
}

/// The counters of a [`BalancerTelemetry`] block, in registration order.
#[derive(Clone, Copy)]
enum Decision {
    Accepted,
    Rejected,
    Degraded,
}

impl BalancerTelemetry {
    pub fn register(r: &mut telemetry::Registrar<'_>, policy: &str) -> Self {
        let names: [&dyn telemetry::MetricName; 3] = [
            &("hpc.decisions.", policy, ".accepted"),
            &("hpc.decisions.", policy, ".rejected"),
            &"hpc.detector.degraded",
        ];
        BalancerTelemetry { counters: r.counters(names) }
    }

    pub fn count_accepted(&self) {
        self.counters.inc(Decision::Accepted as usize);
    }

    pub fn count_rejected(&self) {
        self.counters.inc(Decision::Rejected as usize);
    }

    pub fn count_degraded(&self) {
        self.counters.inc(Decision::Degraded as usize);
    }
}

/// Propose moving `task` from `current` to `next`: validate `next` through
/// the mechanism and count the verdict. The task gets the validated
/// priority if it differs from `current` (accepted); a refusal, or a clamp
/// back onto `current`, leaves it unchanged (rejected). `next == current`
/// is no proposal and counts nothing.
pub(crate) fn propose(
    mechanism: &dyn PrioMechanism,
    telemetry: Option<&BalancerTelemetry>,
    task: TaskId,
    current: HwPriority,
    next: HwPriority,
) -> Vec<PrioAssignment> {
    if next == current {
        return Vec::new();
    }
    match mechanism.validate(next) {
        Ok(effective) if effective != current => {
            if let Some(t) = telemetry {
                t.count_accepted();
            }
            vec![PrioAssignment { task, prio: effective }]
        }
        _ => {
            if let Some(t) = telemetry {
                t.count_rejected();
            }
            Vec::new()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedPolicy;
    use crate::program::ScriptedProgram;
    use crate::task::Task;
    use power5::Topology;
    use simcore::SimTime;

    #[test]
    fn floor_degrades_only_raised_tasks() {
        let topo = Topology::openpower_710();
        let mut tasks: Vec<Task> = (0..2)
            .map(|i| {
                Task::new(
                    TaskId(i),
                    format!("rank{i}"),
                    SchedPolicy::Hpc,
                    Box::new(ScriptedProgram::compute_once(1.0)),
                    SimTime::ZERO,
                )
            })
            .collect();
        tasks[1].hw_prio = HwPriority::HIGH;
        let ctx =
            ClassCtx { now: SimTime::ZERO, tasks: &mut tasks, topology: &topo, running: &[] };
        assert!(degrade_to_floor(&ctx, TaskId(0)).is_empty(), "already at floor");
        assert_eq!(
            degrade_to_floor(&ctx, TaskId(1)),
            vec![PrioAssignment { task: TaskId(1), prio: HwPriority::MEDIUM }]
        );
    }
}
