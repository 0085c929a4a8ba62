//! Scheduler micro-benchmarks: the hot data structures and paths of the
//! simulated kernel.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use power5::{CpuId, Topology};
use schedsim::program::ScriptedProgram;
use schedsim::{Action, KernelApi, KernelBuilder, SchedPolicy, SpawnOptions, TaskId};
use simcore::{EventQueue, SimDuration, SimTime};

/// The CFS run queue's data structure: a `BTreeSet` of `(vruntime, task
/// id)` under insert-then-drain churn.
fn bench_cfs_runqueue(c: &mut Criterion) {
    let mut g = c.benchmark_group("cfs_runqueue");
    g.bench_function("std_btreeset_churn_256", |b| {
        b.iter(|| {
            let mut t = std::collections::BTreeSet::new();
            for i in 0..256u64 {
                t.insert(((i * 2654435761) % 1_000_003, i));
            }
            while let Some(k) = t.pop_first() {
                black_box(k);
            }
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    g.bench_function("schedule_pop_4k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..4096u64 {
                q.schedule(simcore::SimTime((i * 37) % 10_000), i);
            }
            while let Some(ev) = q.pop() {
                black_box(ev.payload);
            }
        })
    });
    g.finish();
}

/// The kernel's hottest queue pattern: after every event each CPU's
/// completion timer is re-armed. Four CPUs, so four periodic ticks and four
/// armed completion timers are pending at all times, each in its own timer
/// lane: lanes 0–3 tick, lanes 4–7 are the completion timers.
fn bench_rearm_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("rearm_churn");
    g.sample_size(10);
    g.bench_function("4_timers_1e5_pops", |b| {
        b.iter(|| {
            let tick = SimDuration::from_millis(1);
            let mut q = EventQueue::with_lanes((0..8u64).collect());
            for cpu in 0..4 {
                q.arm(cpu, SimTime::ZERO + tick + SimDuration::from_nanos(cpu as u64));
            }
            for cpu in 0..4 {
                q.arm(4 + cpu, SimTime::ZERO + SimDuration::from_millis(5));
            }
            for _ in 0..100_000 {
                let Some(ev) = q.pop() else { break };
                if ev.payload < 4 {
                    q.arm(ev.payload as usize, ev.time + tick);
                }
                for cpu in 0..4 {
                    let left = SimDuration::from_micros(1_500 + 37 * cpu as u64);
                    q.arm(4 + cpu, ev.time + left);
                }
            }
            black_box(q.len())
        })
    });
    g.finish();
}

/// The kernel's steady state end to end: a CFS-only OpenPower 710 (four
/// CPUs) running CPU-bound tasks for ~10 s of simulated time, ~40k ticks.
/// With eight tasks, two per CPU, each tick is followed by a
/// completion-timer re-arm on every CPU, plus the CFS preemptions and
/// context switches. With four, one per CPU, the tick rounds are quiet and
/// the kernel replays them without the event queue.
fn bench_tick_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("tick_path");
    g.sample_size(10);
    for (name, tasks, work) in [("4cpu_8tasks_10s", 8, 4.0), ("4cpu_4tasks_quiet_10s", 4, 8.0)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut k = KernelBuilder::new()
                    .topology(Topology::openpower_710())
                    .without_hpc_class()
                    .build();
                let ids: Vec<TaskId> = (0..tasks)
                    .map(|i| {
                        k.spawn(
                            format!("cpu-bound-{i}"),
                            SchedPolicy::Normal,
                            Box::new(ScriptedProgram::compute_once(work)),
                            SpawnOptions::default(),
                        )
                    })
                    .collect();
                black_box(k.run_until_exited(&ids, SimDuration::from_secs(1_000)))
            })
        });
    }
    g.finish();
}

fn bench_kernel_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);

    // Full context-switch cycle: two CPU-bound tasks sharing one CPU under
    // CFS, 100ms of simulated time (≈ tens of switches + ticks).
    g.bench_function("cfs_timeslice_cycle_100ms", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new()
                .topology(Topology::single_core_st())
                .without_hpc_class()
                .build();
            for i in 0..2 {
                k.spawn(
                    format!("t{i}"),
                    SchedPolicy::Normal,
                    Box::new(ScriptedProgram::compute_once(10.0)),
                    SpawnOptions::default(),
                );
            }
            k.run_for(SimDuration::from_millis(100));
            black_box(k.metrics_registry().snapshot().counter("kernel.context_switches"))
        })
    });

    // Wakeup → priority decision → dispatch: an HPC ping-pong pair.
    g.bench_function("hpc_iteration_pipeline_64_iters", |b| {
        b.iter(|| {
            let mut k = KernelBuilder::new().build();
            let mpi = mpisim::Mpi::new(2, mpisim::MpiConfig::default());
            let mut ids = Vec::new();
            for rank in 0..2usize {
                let mpi = mpi.clone();
                let mut compute = true;
                let mut left = 64u32;
                let load = if rank == 0 { 0.0002 } else { 0.0008 };
                ids.push(k.spawn(
                    format!("r{rank}"),
                    SchedPolicy::Hpc,
                    Box::new(schedsim::program::FnProgram(move |api: &mut KernelApi<'_>| {
                        if compute {
                            compute = false;
                            Action::Compute(load)
                        } else if left > 0 {
                            left -= 1;
                            compute = true;
                            Action::Block(mpi.barrier(api, rank))
                        } else {
                            Action::Exit
                        }
                    })),
                    SpawnOptions { affinity: Some(vec![CpuId(rank)]), ..Default::default() },
                ));
            }
            black_box(k.run_until_exited(&ids, SimDuration::from_secs(10)))
        })
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_cfs_runqueue,
    bench_event_queue,
    bench_rearm_churn,
    bench_tick_path,
    bench_kernel_paths
);
criterion_main!(benches);
