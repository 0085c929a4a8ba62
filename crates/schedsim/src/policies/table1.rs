//! The paper's Table-I balancing policy (§IV-B), as a [`Balancer`].
//!
//! This is the HPCSched decision logic verbatim: the Load Imbalance
//! Detector accumulates per-iteration utilization, an application-level
//! balance gate decides whether to touch priorities at all, and one of the
//! heuristics (Uniform / Adaptive / Hybrid) steps the busy task's hardware
//! priority by one level within `[min_prio, max_prio]`, validated by the
//! architecture mechanism. The refactor out of the scheduling class is
//! trace-gated: a kernel driving this balancer must produce byte-identical
//! traces to the pre-trait `HpcClass` (see `TRACE_baseline.txt`).

use super::detector::{LoadImbalanceDetector, TaskIterStats};
use super::heuristics::Heuristic;
use super::mechanism::PrioMechanism;
use super::SharedTunables;
use crate::balancer::{
    degrade_to_floor, propose, Balancer, BalancerTelemetry, IterSample, PrioAssignment,
    SampleOutcome,
};
use crate::class::ClassCtx;
use crate::task::TaskId;
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimDuration;

/// Telemetry handles for the policy's balancing decisions, registered via
/// [`Balancer::attach_telemetry`]; recording is a relaxed atomic add.
struct Table1Telemetry {
    /// The zoo's decision counters, under the heuristic's name.
    decisions: BalancerTelemetry,
    /// Detector verdicts per completed iteration, indexed by [`Verdict`].
    verdicts: telemetry::Counters,
}

/// The counters of [`Table1Telemetry::verdicts`], in registration order.
#[derive(Clone, Copy)]
enum Verdict {
    Balanced,
    Imbalanced,
}

/// The paper's detector + heuristic + mechanism pipeline.
pub struct Table1Balancer {
    detector: LoadImbalanceDetector,
    heuristic: Box<dyn Heuristic>,
    mechanism: Box<dyn PrioMechanism>,
    tunables: SharedTunables,
    /// When false, the detector still tracks iterations but priorities are
    /// never changed (isolates the pure class-placement benefit).
    dynamic_prio: bool,
    /// Whether the application was balanced at the last check; a
    /// balanced→imbalanced transition is a behaviour change and resets the
    /// detector's history.
    was_balanced: bool,
    /// The sample recorded by the latest `on_sample`, consumed by the next
    /// `assign_priorities` call for the same task.
    pending: Option<(TaskId, TaskIterStats, SimDuration, SimDuration)>,
    telemetry: Option<Table1Telemetry>,
}

impl Table1Balancer {
    pub fn new(
        heuristic: Box<dyn Heuristic>,
        mechanism: Box<dyn PrioMechanism>,
        tunables: SharedTunables,
    ) -> Self {
        Table1Balancer {
            detector: LoadImbalanceDetector::new(),
            heuristic,
            mechanism,
            tunables,
            dynamic_prio: true,
            was_balanced: false,
            pending: None,
            telemetry: None,
        }
    }

    /// Disable dynamic prioritization (keep only the scheduling-policy
    /// benefit). Used by the SIESTA-style ablation.
    pub fn with_static_priorities(mut self) -> Self {
        self.dynamic_prio = false;
        self
    }

    pub fn detector(&self) -> &LoadImbalanceDetector {
        &self.detector
    }
}

impl Balancer for Table1Balancer {
    fn name(&self) -> &'static str {
        "table1"
    }

    /// Register `hpc.decisions.<heuristic>.accepted` / `.rejected`
    /// (proposals the mechanism applied vs refused) and
    /// `hpc.detector.balanced` / `.imbalanced` / `.degraded` (verdicts per
    /// completed iteration).
    fn attach_telemetry(&mut self, registry: &telemetry::MetricsRegistry) {
        let heuristic = self.heuristic.name();
        self.telemetry = Some(registry.register(|r| Table1Telemetry {
            decisions: BalancerTelemetry::register(r, heuristic),
            verdicts: r.counters(["hpc.detector.balanced", "hpc.detector.imbalanced"]),
        }));
    }

    fn on_sample(&mut self, _ctx: &ClassCtx<'_>, sample: IterSample) -> SampleOutcome {
        match self.detector.record_iteration(sample.task, sample.run, sample.wall) {
            Some(stats) => {
                self.pending = Some((sample.task, stats, sample.run, sample.wall));
                SampleOutcome::Recorded
            }
            None => SampleOutcome::Unusable,
        }
    }

    fn assign_priorities(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        let Some((recorded, mut stats, run, wall)) = self.pending.take() else {
            return Vec::new();
        };
        debug_assert_eq!(recorded, task, "assign_priorities follows on_sample for one task");
        if !self.dynamic_prio {
            return Vec::new();
        }
        let tun = *self.tunables.borrow();
        // The Load Imbalance Detector gates the heuristic: once the
        // application is balanced, stop touching priorities (paper §IV-B:
        // "At the end of the second iteration, the Load Imbalance Detector
        // detects no imbalance, thus there is no need of trying to balance
        // again"). Balance is judged on the *latest* iteration — the
        // heuristics' own metrics (global vs blended) only decide how a
        // still-imbalanced task's priority moves.
        let balanced = self.detector.is_balanced_recent(&tun);
        if self.was_balanced && !balanced {
            // Behaviour change: the balanced regime's history no longer
            // describes the application; start the metrics afresh so even
            // the slow global metric reacts within a couple of iterations
            // (paper Figure 4(c)).
            self.detector.reset_history();
            if let Some(s) = self.detector.record_iteration(task, run, wall) {
                // Same inputs as the accepted sample above, so this always
                // re-records; the if-let just avoids a second unwrap path.
                stats = s;
            }
        }
        self.was_balanced = balanced;
        if let Some(t) = &self.telemetry {
            let verdict = if balanced { Verdict::Balanced } else { Verdict::Imbalanced };
            t.verdicts.inc(verdict as usize);
        }
        if balanced {
            return Vec::new();
        }
        let current = ctx.task(task).hw_prio;
        let next = self.heuristic.next_priority(&stats, current, &tun);
        let decisions = self.telemetry.as_ref().map(|t| &t.decisions);
        propose(&*self.mechanism, decisions, task, current, next)
    }

    /// Graceful degradation ("do no harm" floor, DESIGN.md §9): the
    /// detector produced no usable sample for this task, so stop steering
    /// it — drop its hardware priority back to the uniform default instead
    /// of letting a decision made on stale data stand.
    fn on_fault(&mut self, ctx: &ClassCtx<'_>, task: TaskId) -> Vec<PrioAssignment> {
        if let Some(t) = &self.telemetry {
            t.decisions.count_degraded();
        }
        if !self.dynamic_prio {
            return Vec::new();
        }
        degrade_to_floor(ctx, task)
    }

    fn task_exited(&mut self, task: TaskId) {
        self.detector.forget(task);
    }

    /// Everything that accumulates across iterations: the detector's
    /// per-task history, the balance gate's hysteresis bit, and an
    /// in-flight sample awaiting `assign_priorities`. Heuristic,
    /// mechanism, and tunables are construction-time configuration.
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.detector);
        w.put_bool(self.was_balanced);
        w.put(&self.pending);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.detector = r.get()?;
        self.was_balanced = r.get_bool()?;
        self.pending = r.get()?;
        Ok(())
    }
}
