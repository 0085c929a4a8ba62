//! Timing wrappers injected into a kernel through its public extension
//! points. Each forwards every call unchanged to the wrapped value and
//! only opens a span around it, so a traced run makes the same decisions
//! and records the same trace as an untraced one.

use power5::CpuId;
use schedsim::class::Migration;
use schedsim::policies::{self, PolicyCtx};
use schedsim::{
    BalanceView, Balancer, ClassCtx, HpcSchedConfig, IterSample, KernelBuilder, KernelEvent,
    Observer, PrioAssignment, SampleOutcome, SchedError, TaskId,
};
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

use crate::span::{self, Span};

/// A registry policy behind a span on every decision callback.
pub struct TimedBalancer {
    inner: Box<dyn Balancer>,
}

impl TimedBalancer {
    /// Build registry policy `name` exactly as `KernelBuilder::policy`
    /// would for `builder`: same constructor, same live tunables handle,
    /// same default heuristic and mechanism flags.
    pub fn for_builder(builder: &KernelBuilder, name: &str) -> Result<TimedBalancer, SchedError> {
        let spec =
            policies::find(name).ok_or_else(|| SchedError::UnknownPolicy(name.to_owned()))?;
        let cfg = HpcSchedConfig::default();
        let ctx = PolicyCtx {
            tunables: builder.tunables(),
            heuristic: cfg.heuristic,
            power5_mechanism: cfg.power5_mechanism,
            policy_only: cfg.policy_only,
        };
        Ok(TimedBalancer {
            inner: (spec.make)(&ctx),
        })
    }
}

impl Balancer for TimedBalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, num_cpus: usize) {
        self.inner.init(num_cpus);
    }

    fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        self.inner.attach_telemetry(registry);
    }

    fn on_sample(&mut self, ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome {
        span::time(Span::Balancer, || self.inner.on_sample(ctx, sample))
    }

    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        span::time(Span::Balancer, || self.inner.assign_priorities(ctx, task))
    }

    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        span::time(Span::Balancer, || self.inner.on_fault(ctx, task))
    }

    fn task_exited(&mut self, task: TaskId) {
        span::time(Span::Balancer, || self.inner.task_exited(task));
    }

    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        span::time(Span::Migrate, || {
            self.inner.plan_migrations(view, cpu, idle, allowed)
        })
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.inner.snapshot(w);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore(r)
    }
}

/// An observer (the trace sink) behind a span on every delivered event.
pub struct TimedObserver<O> {
    pub inner: O,
}

impl<O: Observer> Observer for TimedObserver<O> {
    fn on_event(&mut self, event: &KernelEvent) {
        span::time(Span::Observer, || self.inner.on_event(event));
    }
}
