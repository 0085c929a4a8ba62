//! The one self-scheduling loop behind the LB4OMP-style policies.
//!
//! LB4OMP treats SS, GSS, TSS, FAC and AWF as one self-scheduling loop
//! that differs only in how the next chunk is computed. Here that loop is
//! [`StepBalancer`], the single [`Balancer`] impl for every stepping
//! policy (`static`, `ss`, `gss`, `tss`, `fac`, `awf`, `worksteal`). It
//! owns everything downstream of the metric: threshold classification,
//! one-step moves, range clamping, mechanism validation, do-no-harm
//! degradation and decision telemetry. A policy is a [`StepRule`] — its
//! per-task metric state and update rule — plus one registry line.

use super::mechanism::PrioMechanism;
use super::tunables::HpcTunables;
use super::SharedTunables;
use crate::balance::{plan_pull, BalanceView};
use crate::balancer::{
    degrade_to_floor, propose, Balancer, BalancerTelemetry, IterSample, PrioAssignment,
    SampleOutcome,
};
use crate::class::{ClassCtx, Migration};
use crate::task::TaskId;
use power5::CpuId;
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimDuration;

/// Utilization (percent) of one iteration, or `None` for an unusable
/// sample (zero wall, non-finite ratio) — the same filter the paper's
/// detector applies before recording.
pub(crate) fn usable_util(run: SimDuration, wall: SimDuration) -> Option<f64> {
    if wall.is_zero() {
        return None;
    }
    let util = 100.0 * run.as_nanos() as f64 / wall.as_nanos() as f64;
    util.is_finite().then_some(util)
}

/// Classify a metric against the tunable hysteresis band:
/// `+1` raise, `-1` lower, `0` keep.
pub(crate) fn classify(metric: f64, tun: &HpcTunables) -> i8 {
    if metric >= tun.high_util {
        1
    } else if metric <= tun.low_util {
        -1
    } else {
        0
    }
}

/// The per-policy half of a stepping balancer: how iteration history
/// turns into a one-step priority direction.
pub(crate) trait StepRule: Default + Send + 'static {
    /// `false` for rules that never move a priority (`static`,
    /// `worksteal`): no decision is recorded and only the rule's own state
    /// is snapshotted.
    const STEERS: bool = true;

    /// Fold one usable sample (`util` is its utilization, percent) into
    /// the rule's state and return the step: `+1` raise, `-1` lower,
    /// `0` keep. Called only when [`StepRule::STEERS`].
    fn step(&mut self, _sample: &IterSample, _util: f64, _tun: &HpcTunables) -> i8 {
        0
    }

    /// Drop `task`'s history.
    fn forget(&mut self, _task: TaskId) {}

    /// Serialize the rule's state (see [`Balancer::snapshot`]).
    fn snapshot(&self, _w: &mut SnapshotWriter) {}

    /// Inverse of [`StepRule::snapshot`].
    fn restore(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        Ok(())
    }

    /// Queue migrations; the default is the paper's domain-level pull.
    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        plan_pull(view, cpu, idle, allowed)
    }
}

/// A stepping balancer: the shared loop around one [`StepRule`].
pub(crate) struct StepBalancer<R> {
    name: &'static str,
    tunables: SharedTunables,
    mechanism: Box<dyn PrioMechanism>,
    dynamic_prio: bool,
    telemetry: Option<BalancerTelemetry>,
    /// Direction decided by the latest `on_sample`, consumed by the next
    /// `assign_priorities` call for the same task.
    pending: Option<(TaskId, i8)>,
    rule: R,
}

impl<R: StepRule> StepBalancer<R> {
    pub fn new(
        name: &'static str,
        tunables: SharedTunables,
        mechanism: Box<dyn PrioMechanism>,
        dynamic_prio: bool,
    ) -> Self {
        StepBalancer {
            name,
            tunables,
            mechanism,
            dynamic_prio,
            telemetry: None,
            pending: None,
            rule: R::default(),
        }
    }

    /// Current tunables snapshot.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: single-threaded simulation; the only way this lock is poisoned is \
                  a panic already unwinding this thread."
    )]
    fn tun(&self) -> HpcTunables {
        *self.tunables.lock().expect("tunables poisoned")
    }
}

impl<R: StepRule> Balancer for StepBalancer<R> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        self.telemetry = Some(BalancerTelemetry::register(registry, self.name));
    }

    fn on_sample(&mut self, _ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome {
        let Some(util) = usable_util(sample.run, sample.wall) else {
            return SampleOutcome::Unusable;
        };
        if R::STEERS {
            let dir = self.rule.step(&sample, util, &self.tun());
            self.pending = Some((sample.task, dir));
        }
        SampleOutcome::Recorded
    }

    /// Apply the pending one-step decision for `task`: clamp into the
    /// tunable range, validate through the mechanism, count the verdict.
    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        let Some((decided, dir)) = self.pending.take() else {
            return Vec::new();
        };
        debug_assert_eq!(decided, task, "assign_priorities follows on_sample for one task");
        if !self.dynamic_prio {
            return Vec::new();
        }
        let tun = self.tun();
        let current = ctx.task(task).hw_prio;
        let next = match dir {
            1 => current.raised(),
            -1 => current.lowered(),
            _ => current,
        }
        .clamp(tun.min_prio, tun.max_prio);
        propose(&*self.mechanism, self.telemetry.as_ref(), task, current, next)
    }

    /// The shared do-no-harm fault path: count the degraded sample, then
    /// drop the task to the uniform floor (unless priorities are pinned).
    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        if let Some(t) = &self.telemetry {
            t.degraded.inc();
        }
        if !self.dynamic_prio {
            return Vec::new();
        }
        degrade_to_floor(ctx, task)
    }

    fn task_exited(&mut self, task: TaskId) {
        self.rule.forget(task);
    }

    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        self.rule.plan_migrations(view, cpu, idle, allowed)
    }

    /// The rule's state, then the pending decision. Tunables and mechanism
    /// are construction-time configuration and belong to the fresh
    /// instance restore happens into.
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.rule.snapshot(w);
        if R::STEERS {
            w.put(&self.pending);
        }
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.rule.restore(r)?;
        if R::STEERS {
            self.pending = r.get()?;
        }
        Ok(())
    }
}
