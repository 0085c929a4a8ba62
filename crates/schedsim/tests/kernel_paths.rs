//! End-to-end coverage of kernel paths the unit tests don't reach:
//! policy changes, SCHED_IDLE tasks, SCHED_BATCH, RR slices under
//! contention, multi-chip topologies, and CFS load balancing.

use power5::{Chip, CpuId, Topology};
use schedsim::program::{Action, FnProgram, ScriptedProgram};
use schedsim::{
    Kernel, KernelApi, KernelConfig, SchedPolicy, SpawnOptions, TaskState,
};
use simcore::SimDuration;

fn kernel_1cpu() -> Kernel {
    Kernel::new(Chip::new(Topology::single_core_st()), KernelConfig::default())
}

#[test]
fn sched_idle_task_runs_only_when_cpu_is_free() {
    let mut k = kernel_1cpu();
    let normal = k.spawn(
        "normal",
        SchedPolicy::Normal,
        Box::new(ScriptedProgram::compute_once(0.2)),
        SpawnOptions::default(),
    );
    let idle = k.spawn(
        "idler",
        SchedPolicy::Idle,
        Box::new(ScriptedProgram::compute_once(0.05)),
        SpawnOptions::default(),
    );
    k.run_until_exited(&[normal, idle], SimDuration::from_secs(10)).expect("finishes");
    let n_end = k.task(normal).exited_at.unwrap();
    let i_end = k.task(idle).exited_at.unwrap();
    assert!(n_end < i_end, "idle task starved until normal exits");
    // The idle task got essentially zero CPU before the normal task ended.
    assert!(k.task(idle).exec_total <= SimDuration::from_millis(51));
}

#[test]
fn two_idle_tasks_round_robin() {
    let mut k = kernel_1cpu();
    let a = k.spawn(
        "ia",
        SchedPolicy::Idle,
        Box::new(ScriptedProgram::compute_once(0.05)),
        SpawnOptions::default(),
    );
    let b = k.spawn(
        "ib",
        SchedPolicy::Idle,
        Box::new(ScriptedProgram::compute_once(0.05)),
        SpawnOptions::default(),
    );
    let end = k.run_until_exited(&[a, b], SimDuration::from_secs(10)).expect("finishes");
    assert!((0.09..0.12).contains(&end.as_secs_f64()), "end {end}");
}

#[test]
fn batch_tasks_complete_but_defer_to_interactive() {
    let mut k = kernel_1cpu();
    let batch = k.spawn(
        "batch",
        SchedPolicy::Batch,
        Box::new(ScriptedProgram::compute_once(0.1)),
        SpawnOptions::default(),
    );
    // An interactive task that sleeps and wakes repeatedly.
    let mut n = 0u32;
    let inter = k.spawn(
        "inter",
        SchedPolicy::Normal,
        Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
            n += 1;
            if n > 20 {
                return Action::Exit;
            }
            if n % 2 == 1 {
                Action::Compute(0.001)
            } else {
                let tok = api.new_token();
                api.signal_after(SimDuration::from_millis(5), tok);
                Action::Block(tok)
            }
        })),
        SpawnOptions::default(),
    );
    k.run_until_exited(&[batch, inter], SimDuration::from_secs(10)).expect("finishes");
    assert_eq!(k.task(batch).state, TaskState::Exited);
    assert_eq!(k.task(inter).state, TaskState::Exited);
}

#[test]
fn rt_rr_slices_share_cpu_between_equal_priority_hogs() {
    let mut k = kernel_1cpu();
    let ids: Vec<_> = (0..2)
        .map(|i| {
            k.spawn(
                format!("rr{i}"),
                SchedPolicy::Rr,
                Box::new(ScriptedProgram::compute_once(0.3)),
                SpawnOptions { rt_priority: 10, ..Default::default() },
            )
        })
        .collect();
    let end = k.run_until_exited(&ids, SimDuration::from_secs(10)).expect("finishes");
    // Serialized via 100ms slices: both finish ~0.6s, neither much earlier.
    assert!((0.58..0.64).contains(&end.as_secs_f64()), "end {end}");
    let d0 = k.task(ids[0]).exited_at.unwrap().as_secs_f64();
    let d1 = k.task(ids[1]).exited_at.unwrap().as_secs_f64();
    assert!((d1 - d0).abs() < 0.15, "interleaved exits: {d0} vs {d1}");
    // Slice-driven switches: at least 4 rotations.
    assert!(k.metrics_registry().snapshot().counter("kernel.context_switches") >= 4);
}

#[test]
fn fifo_beats_rr_and_runs_to_completion() {
    let mut k = kernel_1cpu();
    let rr = k.spawn(
        "rr",
        SchedPolicy::Rr,
        Box::new(ScriptedProgram::compute_once(0.1)),
        SpawnOptions { rt_priority: 10, ..Default::default() },
    );
    let fifo = k.spawn(
        "fifo",
        SchedPolicy::Fifo,
        Box::new(ScriptedProgram::compute_once(0.1)),
        SpawnOptions { rt_priority: 20, ..Default::default() },
    );
    k.run_until_exited(&[rr, fifo], SimDuration::from_secs(10)).expect("finishes");
    assert!(
        k.task(fifo).exited_at.unwrap() < k.task(rr).exited_at.unwrap(),
        "higher RT priority finishes first"
    );
}

#[test]
fn policy_change_at_runtime_reclasses_the_task() {
    // A task starts SCHED_NORMAL, promotes itself to SCHED_FIFO mid-run,
    // and then outcompetes a CPU hog it previously shared with.
    let chip = Chip::new(Topology::single_core_st());
    let mut k = Kernel::new(chip, KernelConfig::default());
    let hog = k.spawn(
        "hog",
        SchedPolicy::Normal,
        Box::new(ScriptedProgram::compute_once(0.5)),
        SpawnOptions::default(),
    );
    let mut phase = 0;
    let climber = k.spawn(
        "climber",
        SchedPolicy::Normal,
        Box::new(FnProgram(move |api: &mut KernelApi<'_>| {
            phase += 1;
            match phase {
                1 => Action::Compute(0.05),
                2 => {
                    api.set_scheduler(SchedPolicy::Fifo);
                    Action::Compute(0.2)
                }
                _ => Action::Exit,
            }
        })),
        SpawnOptions { rt_priority: 5, ..Default::default() },
    );
    k.run_until_exited(&[hog, climber], SimDuration::from_secs(10)).expect("finishes");
    assert_eq!(k.task(climber).policy, SchedPolicy::Fifo);
    // After promotion the climber runs uninterrupted, so it exits first
    // even though the hog has equal remaining work.
    assert!(k.task(climber).exited_at.unwrap() < k.task(hog).exited_at.unwrap());
}

#[test]
fn multi_chip_topology_runs_and_spreads() {
    // 2 chips × 2 cores × 2 SMT = 8 CPUs.
    let chip = Chip::new(Topology::new(2, 2, 2));
    let mut k = Kernel::new(chip, KernelConfig::default());
    let ids: Vec<_> = (0..8)
        .map(|i| {
            k.spawn(
                format!("t{i}"),
                SchedPolicy::Normal,
                Box::new(ScriptedProgram::compute_once(0.1)),
                SpawnOptions::default(),
            )
        })
        .collect();
    let end = k.run_until_exited(&ids, SimDuration::from_secs(10)).expect("finishes");
    // All eight in parallel at SMT speed 0.8 → 0.125s.
    assert!((0.12..0.14).contains(&end.as_secs_f64()), "end {end}");
    let cpus: std::collections::BTreeSet<_> =
        ids.iter().map(|&t| k.task(t).cpu.unwrap()).collect();
    assert_eq!(cpus.len(), 8, "one task per CPU");
}

#[test]
fn cfs_idle_pull_balances_queued_work() {
    // Six tasks pinned-free on a 4-CPU machine: the two extra tasks queue,
    // and as CPUs free up they must be pulled so total time is near the
    // work-conserving optimum.
    let chip = Chip::new(Topology::openpower_710());
    let mut k = Kernel::new(chip, KernelConfig::default());
    let ids: Vec<_> = (0..6)
        .map(|i| {
            k.spawn(
                format!("t{i}"),
                SchedPolicy::Normal,
                Box::new(ScriptedProgram::compute_once(0.08)),
                SpawnOptions::default(),
            )
        })
        .collect();
    let end = k.run_until_exited(&ids, SimDuration::from_secs(10)).expect("finishes");
    // Work-conserving bound: 6 × 0.08 / (4 × 0.8) = 0.15s; allow slack for
    // SMT effects and switch costs but catch a serialization bug (≥0.3s).
    assert!(end.as_secs_f64() < 0.30, "end {end}");
}

#[test]
fn affinity_is_never_violated() {
    let chip = Chip::new(Topology::openpower_710());
    let mut k = Kernel::new(chip, KernelConfig::default());
    let pinned = k.spawn(
        "pinned",
        SchedPolicy::Normal,
        Box::new(ScriptedProgram::compute_once(0.2)),
        SpawnOptions { affinity: Some(vec![CpuId(3)]), ..Default::default() },
    );
    // Competition on cpu3 to tempt the balancer.
    for i in 0..3 {
        k.spawn(
            format!("c{i}"),
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.2)),
            SpawnOptions { affinity: Some(vec![CpuId(3)]), ..Default::default() },
        );
    }
    k.run_until_exited(&[pinned], SimDuration::from_secs(30)).expect("finishes");
    assert_eq!(k.task(pinned).cpu, Some(CpuId(3)));
}

#[test]
fn zero_work_compute_makes_progress() {
    let mut k = kernel_1cpu();
    let t = k.spawn(
        "zero",
        SchedPolicy::Normal,
        Box::new(ScriptedProgram::new(vec![
            Action::Compute(0.0),
            Action::Compute(0.0),
            Action::Compute(0.01),
            Action::Exit,
        ])),
        SpawnOptions::default(),
    );
    let end = k.run_until_exited(&[t], SimDuration::from_secs(5)).expect("finishes");
    assert!(end.as_secs_f64() < 0.02, "zero-work segments are instant: {end}");
}
