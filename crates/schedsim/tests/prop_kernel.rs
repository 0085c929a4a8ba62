//! Whole-kernel property tests: conservation and sanity invariants that
//! must hold for any workload shape the scheduler can face.

use power5::{Chip, CpuId, HwPriority, Topology};
use proptest::prelude::*;
use schedsim::program::{Action, FnProgram, ScriptedProgram};
use schedsim::{Kernel, KernelApi, KernelConfig, SchedPolicy, SpawnOptions, TaskState};
use simcore::{SimDuration, SimTime};

fn kernel() -> Kernel {
    Kernel::new(Chip::new(Topology::openpower_710()), KernelConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// CPU time is conserved: the sum of all tasks' exec time never
    /// exceeds (number of CPUs × elapsed time), and each task's own
    /// exec + sleep + queue-wait never exceeds its lifetime.
    #[test]
    fn cpu_time_conservation(
        works in proptest::collection::vec(0.001f64..0.3, 1..10),
    ) {
        let mut k = kernel();
        let ids: Vec<_> = works
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(w)),
                    SpawnOptions::default(),
                )
            })
            .collect();
        let end = k.run_until_exited(&ids, SimDuration::from_secs(60)).expect("finishes");
        let elapsed = end.saturating_since(SimTime::ZERO);
        let total_exec: SimDuration = ids.iter().map(|&t| k.task(t).exec_total).sum();
        prop_assert!(total_exec <= elapsed * 4 + SimDuration::from_millis(1),
            "total exec {total_exec} vs capacity {}", elapsed * 4);
        for &t in &ids {
            let task = k.task(t);
            let accounted = task.exec_total + task.sleep_total + task.wait_rq_total;
            let life = task.lifetime(end);
            prop_assert!(accounted <= life + SimDuration::from_millis(1),
                "{}: accounted {accounted} vs lifetime {life}", task.name);
        }
    }

    /// Every spawned task eventually exits, regardless of how many tasks
    /// contend, and utilization is always within [0, 1].
    #[test]
    fn all_tasks_finish_and_utilization_bounded(
        n in 1usize..12,
        work in 0.001f64..0.1,
    ) {
        let mut k = kernel();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(work)),
                    SpawnOptions::default(),
                )
            })
            .collect();
        let end = k.run_until_exited(&ids, SimDuration::from_secs(60)).expect("finishes");
        for &t in &ids {
            prop_assert_eq!(k.task(t).state, TaskState::Exited);
            let u = k.task(t).cpu_utilization(end);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "utilization {u}");
        }
    }

    /// Hardware priorities on the chip always mirror some live task's
    /// request (dispatch integrity): after any run, every context's
    /// priority register holds a value in the architected range and the
    /// kernel never issued an or-nop outside supervisor reach.
    #[test]
    fn chip_priorities_stay_architected(
        prios in proptest::collection::vec(4u8..=6, 4),
    ) {
        let mut k = kernel();
        let ids: Vec<_> = prios
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(0.05)),
                    SpawnOptions {
                        hw_prio: Some(HwPriority::new(p).unwrap()),
                        affinity: Some(vec![CpuId(i % 4)]),
                        ..Default::default()
                    },
                )
            })
            .collect();
        k.run_until_exited(&ids, SimDuration::from_secs(30)).expect("finishes");
        for cpu in k.topology().cpus() {
            let v = k.chip().priority_of(cpu).value();
            prop_assert!(v <= 7, "context priority {v}");
        }
    }

    /// Sleep accounting: a task that sleeps a fixed timer duration accrues
    /// at least that much sleep time, within event-granularity slack.
    #[test]
    fn sleep_accounting_exact(delay_ms in 1u64..200) {
        let mut k = kernel();
        let mut armed = false;
        let t = k.spawn(
            "sleeper",
            SchedPolicy::Normal,
            Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
                if !armed {
                    armed = true;
                    let tok = api.new_token();
                    api.signal_after(SimDuration::from_millis(delay_ms), tok);
                    Action::Block(tok)
                } else {
                    Action::Exit
                }
            })),
            SpawnOptions::default(),
        );
        k.run_until_exited(&[t], SimDuration::from_secs(10)).expect("finishes");
        let slept = k.task(t).sleep_total;
        let expect = SimDuration::from_millis(delay_ms);
        prop_assert!(slept >= expect.saturating_sub(SimDuration::from_micros(10)));
        prop_assert!(slept <= expect + SimDuration::from_millis(2), "slept {slept}");
    }

    /// Determinism across identical runs at kernel level.
    #[test]
    fn kernel_runs_are_deterministic(
        works in proptest::collection::vec(0.001f64..0.05, 2..8),
        seed in 0u64..1000,
    ) {
        let run = |works: &[f64]| {
            let cfg = KernelConfig { seed, noise: schedsim::NoiseConfig::light(), ..Default::default() };
            let mut k = Kernel::new(Chip::new(Topology::openpower_710()), cfg);
            let ids: Vec<_> = works
                .iter()
                .enumerate()
                .map(|(i, &w)| {
                    k.spawn(
                        format!("t{i}"),
                        SchedPolicy::Normal,
                        Box::new(ScriptedProgram::compute_once(w)),
                        SpawnOptions::default(),
                    )
                })
                .collect();
            let end = k.run_until_exited(&ids, SimDuration::from_secs(60)).expect("finishes");
            (end, k.metrics_registry().snapshot().counter("kernel.context_switches"))
        };
        prop_assert_eq!(run(&works), run(&works));
    }
}

#[test]
fn starvation_free_under_rr_on_one_cpu() {
    // Eight CPU hogs on a single-core machine: CFS must interleave them
    // so all exit, none monopolizes.
    let mut k = Kernel::new(Chip::new(Topology::single_core_st()), KernelConfig::default());
    let ids: Vec<_> = (0..8)
        .map(|i| {
            k.spawn(
                format!("hog{i}"),
                SchedPolicy::Normal,
                Box::new(ScriptedProgram::compute_once(0.05)),
                SpawnOptions::default(),
            )
        })
        .collect();
    let end = k.run_until_exited(&ids, SimDuration::from_secs(30)).expect("finishes");
    // Fair sharing: last exit ≈ 8 × 50ms; every hog's exec ≈ 50ms.
    assert!((0.38..0.45).contains(&end.as_secs_f64()), "end {end}");
    for &t in &ids {
        let exec = k.task(t).exec_total.as_secs_f64();
        assert!((0.045..0.055).contains(&exec), "hog exec {exec}");
    }
}
