//! Cross-policy property suite: contracts every registered balancing
//! policy must satisfy, checked directly at the [`Balancer`] trait level
//! (DESIGN.md §12). The `verify` binary re-checks the same properties end
//! to end through full kernel runs; this suite pins them at the trait
//! boundary so a broken policy fails fast with a precise message.
//!
//! Per registry entry:
//!
//! * a zero-wall sample is classified [`SampleOutcome::Unusable`] — the
//!   driver's fault path depends on every policy applying the paper's
//!   usability filter;
//! * `on_fault` only ever moves a task *to* the do-no-harm floor
//!   (`MEDIUM`), never above it, and never churns a task already there;
//! * every priority a policy assigns stays inside the tunables'
//!   `[min_prio, max_prio]` band (conformance rule C001) across an
//!   imbalanced sample stream;
//! * decisions are a pure function of the sample history: two balancers
//!   fed the same stream produce the same assignments.

use power5::{HwPriority, Topology};
use schedsim::policies::{registry, HeuristicKind, HpcTunables, PolicyCtx, SharedTunables};
use schedsim::program::ScriptedProgram;
use schedsim::{Balancer, ClassCtx, IterSample, PrioAssignment, SampleOutcome, SchedPolicy, Task, TaskId};
use simcore::{SimDuration, SimTime};

const NUM_TASKS: usize = 4;

fn fresh_ctx() -> PolicyCtx {
    PolicyCtx {
        tunables: SharedTunables::default(),
        heuristic: HeuristicKind::Uniform,
        power5_mechanism: true,
        policy_only: false,
    }
}

fn make_tasks() -> Vec<Task> {
    (0..NUM_TASKS)
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

/// Drive one balancer exactly like the driver does: classify the sample,
/// route to `assign_priorities` or `on_fault`, apply the assignments to
/// task state, and hand every assignment to `check`.
fn feed(
    balancer: &mut Box<dyn Balancer>,
    tasks: &mut Vec<Task>,
    topology: &Topology,
    now: SimTime,
    sample: IterSample,
    check: &mut dyn FnMut(SampleOutcome, &PrioAssignment, HwPriority),
) {
    let ctx = ClassCtx { now, tasks, topology, running: &[None; 4] };
    let outcome = balancer.on_sample(&ctx, sample);
    let assignments = match outcome {
        SampleOutcome::Recorded => balancer.assign_priorities(&ctx, sample.task),
        SampleOutcome::Unusable => balancer.on_fault(&ctx, sample.task),
    };
    for a in &assignments {
        let before = tasks[a.task.0].hw_prio;
        check(outcome, a, before);
        tasks[a.task.0].hw_prio = a.prio;
    }
}

/// One barrier-style imbalanced iteration: rank 0 computes the whole wall
/// interval, the rest idle most of it — the MetBench shape that must pull
/// priorities apart under any dynamic policy.
fn imbalanced_samples(iter: u32) -> Vec<IterSample> {
    let wall = SimDuration::from_millis(100);
    (0..NUM_TASKS)
        .map(|t| IterSample {
            task: TaskId(t),
            run: if t == 0 { wall } else { SimDuration::from_millis(15) },
            wall: wall + SimDuration::from_micros(u64::from(iter)),
        })
        .collect()
}

#[test]
fn zero_wall_sample_is_unusable_for_every_policy() {
    let topo = Topology::openpower_710();
    for spec in registry() {
        let mut b = (spec.make)(&fresh_ctx());
        b.init(4);
        let mut tasks = make_tasks();
        let ctx = ClassCtx { now: SimTime::ZERO, tasks: &mut tasks, topology: &topo, running: &[None; 4] };
        let sample =
            IterSample { task: TaskId(0), run: SimDuration::ZERO, wall: SimDuration::ZERO };
        assert_eq!(
            b.on_sample(&ctx, sample),
            SampleOutcome::Unusable,
            "policy `{}` must reject a zero-wall sample",
            spec.name
        );
    }
}

#[test]
fn on_fault_only_degrades_to_the_floor() {
    let topo = Topology::openpower_710();
    for spec in registry() {
        let mut b = (spec.make)(&fresh_ctx());
        b.init(4);
        let mut tasks = make_tasks();
        // A task the policy previously boosted...
        tasks[0].hw_prio = HwPriority::HIGH;
        let garbage = IterSample { task: TaskId(0), run: SimDuration::ZERO, wall: SimDuration::ZERO };
        feed(&mut b, &mut tasks, &topo, SimTime::ZERO, garbage, &mut |_, a, _| {
            assert_eq!(
                a.prio,
                HwPriority::MEDIUM,
                "policy `{}` fault path assigned {:?}, not the floor",
                spec.name,
                a.prio
            );
        });
        // ...and one already at the floor: no assignment may churn it.
        let garbage1 = IterSample { task: TaskId(1), run: SimDuration::ZERO, wall: SimDuration::ZERO };
        feed(&mut b, &mut tasks, &topo, SimTime::ZERO, garbage1, &mut |_, a, _| {
            panic!("policy `{}` churned a floored task: {a:?}", spec.name);
        });
    }
}

#[test]
fn assigned_priorities_stay_inside_tunable_bounds() {
    let topo = Topology::openpower_710();
    let bounds = {
        let t = HpcTunables::default();
        (t.min_prio, t.max_prio)
    };
    for spec in registry() {
        let mut b = (spec.make)(&fresh_ctx());
        b.init(4);
        let mut tasks = make_tasks();
        let mut assigned = 0u32;
        for iter in 0..12 {
            for sample in imbalanced_samples(iter) {
                let now = SimTime::ZERO + SimDuration::from_millis(100 * u64::from(iter) + 1);
                feed(&mut b, &mut tasks, &topo, now, sample, &mut |_, a, _| {
                    assigned += 1;
                    assert!(a.task.0 < NUM_TASKS, "policy `{}` assigned to a ghost task", spec.name);
                    assert!(
                        (bounds.0..=bounds.1).contains(&a.prio),
                        "policy `{}` assigned {:?} outside [{:?}, {:?}] (C001)",
                        spec.name,
                        a.prio,
                        bounds.0,
                        bounds.1
                    );
                });
            }
        }
        // The paper-family and LB4OMP policies must actually steer under a
        // 6.7x imbalance; the placement-only entries must never touch
        // priorities at all.
        let dynamic = !matches!(spec.name, "static" | "worksteal");
        if dynamic {
            assert!(assigned > 0, "policy `{}` never assigned a priority", spec.name);
            assert_eq!(
                tasks[0].hw_prio,
                bounds.1,
                "policy `{}` left the heavy rank at {:?}",
                spec.name,
                tasks[0].hw_prio
            );
        } else {
            assert_eq!(assigned, 0, "placement-only policy `{}` assigned priorities", spec.name);
        }
    }
}

#[test]
fn decisions_are_a_pure_function_of_the_sample_stream() {
    let topo = Topology::openpower_710();
    for spec in registry() {
        let run = || {
            let mut b = (spec.make)(&fresh_ctx());
            b.init(4);
            let mut tasks = make_tasks();
            let mut log: Vec<(usize, u8)> = Vec::new();
            for iter in 0..8 {
                for sample in imbalanced_samples(iter) {
                    let now = SimTime::ZERO + SimDuration::from_millis(100 * u64::from(iter) + 1);
                    feed(&mut b, &mut tasks, &topo, now, sample, &mut |_, a, _| {
                        log.push((a.task.0, a.prio.value()));
                    });
                }
            }
            log
        };
        assert_eq!(run(), run(), "policy `{}` is not deterministic", spec.name);
    }
}

#[test]
fn registry_names_are_unique_and_canonical() {
    let mut seen = std::collections::BTreeSet::new();
    for spec in registry() {
        assert!(seen.insert(spec.name), "duplicate registry name `{}`", spec.name);
        assert_eq!(schedsim::policies::canonical(spec.name), Some(spec.name));
        assert!(!spec.summary.is_empty(), "`{}` needs a summary for --policy help", spec.name);
    }
    assert!(seen.len() >= 6, "the zoo advertises at least six policies");
    assert_eq!(schedsim::policies::canonical("no-such-policy"), None);
}
