//! End-to-end batch runs: determinism, discipline behaviour, fault
//! degradation, and per-job kernel conformance.

use batchsim::{
    heavy_light_mix, run_batch, BatchConfig, BatchEvent, BatchFault, BatchJob, Discipline,
    FleetStats, JobSpec, LocalSched,
};
use faultsim::TaskAbortSpec;

fn cfg(discipline: Discipline) -> BatchConfig {
    BatchConfig { discipline, ..Default::default() }
}

fn start_order(out: &batchsim::BatchOutcome) -> Vec<u64> {
    out.events
        .iter()
        .filter_map(|e| match e {
            BatchEvent::Start { job, .. } => Some(*job),
            _ => None,
        })
        .collect()
}

#[test]
fn fcfs_stream_completes_and_is_deterministic() {
    let jobs = heavy_light_mix(2008, 24);
    let a = run_batch(&jobs, &cfg(Discipline::Fcfs), None);
    let b = run_batch(&jobs, &cfg(Discipline::Fcfs), None);
    assert_eq!(a.jobs.len(), 24);
    assert!(a.jobs.iter().all(|j| !j.outcome.degraded));
    assert_eq!(a.render_trace(), b.render_trace(), "byte-identical traces");
    let stats = FleetStats::from_outcome(&a);
    assert_eq!(stats.completed, 24);
    assert!(stats.makespan > 0.0 && stats.utilization > 0.0);
    assert_eq!(a.metrics.counter("batch.jobs.submitted"), 24);
    assert_eq!(a.metrics.counter("batch.jobs.completed"), 24);
    assert_eq!(a.metrics.counter("batch.jobs.degraded"), 0);
}

#[test]
fn fcfs_starts_in_arrival_order() {
    let jobs = heavy_light_mix(5, 16);
    let out = run_batch(&jobs, &cfg(Discipline::Fcfs), None);
    let order = start_order(&out);
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(order, sorted, "FCFS never reorders: {order:?}");
}

#[test]
fn sjf_runs_the_shortest_queued_job_first() {
    // One node; three jobs queue up behind the first while it runs.
    let mk = |id: u64, iters: u32, arrival: f64| {
        BatchJob::new(id, JobSpec::new(format!("j{id}"), vec![0.05; 4], iters), arrival)
    };
    let jobs = vec![mk(0, 2, 0.01), mk(1, 6, 0.02), mk(2, 1, 0.03), mk(3, 3, 0.04)];
    let one_node = BatchConfig { num_nodes: 1, discipline: Discipline::Sjf, ..Default::default() };
    let out = run_batch(&jobs, &one_node, None);
    assert_eq!(start_order(&out), vec![0, 2, 3, 1], "shortest first after the head");
}

#[test]
fn easy_backfills_and_lowers_mean_wait_vs_fcfs() {
    let jobs = heavy_light_mix(2008, 40);
    let fcfs = FleetStats::from_outcome(&run_batch(&jobs, &cfg(Discipline::Fcfs), None));
    let easy_out = run_batch(&jobs, &cfg(Discipline::Easy), None);
    let easy = FleetStats::from_outcome(&easy_out);
    assert!(easy.backfilled > 0, "mix must exercise backfill");
    assert!(
        easy.mean_wait < fcfs.mean_wait,
        "EASY wait {:.4}s must beat FCFS {:.4}s",
        easy.mean_wait,
        fcfs.mean_wait
    );
    assert_eq!(
        easy_out.metrics.counter("batch.jobs.backfilled"),
        easy.backfilled as u64
    );
}

#[test]
fn easy_backfills_a_candidate_that_ends_exactly_at_the_shadow() {
    // Two nodes, everything arriving at t=0. A takes one node; the wide
    // head H needs both, so its shadow is A's end. C has A's spec, so its
    // service is A's to the nanosecond: it ends exactly at the shadow,
    // and with no spare node it backfills only because ending *at* the
    // shadow cannot delay the head.
    let narrow = JobSpec::new("narrow", vec![0.05; 4], 2);
    let jobs = vec![
        BatchJob::new(0, narrow.clone(), 0.0),
        BatchJob::new(1, JobSpec::new("wide", vec![0.05; 8], 2), 0.0),
        BatchJob::new(2, narrow, 0.0),
    ];
    let two = BatchConfig { num_nodes: 2, discipline: Discipline::Easy, ..Default::default() };
    let out = run_batch(&jobs, &two, None);
    let (a, h, c) = (&out.jobs[0], &out.jobs[1], &out.jobs[2]);
    assert_eq!(c.first_start, Some(0.0), "C starts beside A");
    assert!(c.backfilled, "C jumped the head");
    assert_eq!(c.end, a.end, "same spec, same service");
    assert_eq!(h.first_start, Some(a.end), "the head still starts at its shadow");
    assert_eq!(start_order(&out), vec![0, 2, 1]);
}

#[test]
fn node_failure_mid_queue_degrades_cleanly() {
    let jobs = heavy_light_mix(11, 20);
    let fault = BatchFault { node: 1, after_completions: 3, max_retries: 2, restart_secs: 0.2 };
    for discipline in Discipline::ALL {
        let out = run_batch(&jobs, &cfg(discipline), Some(&fault));
        assert_eq!(out.failed_nodes, vec![1], "{discipline:?}");
        assert_eq!(out.jobs.len(), 20, "{discipline:?}: every job accounted");
        // Wide (3-node) jobs still fit the 3 survivors; everything that
        // degrades must say so in its ClusterOutcome, never panic.
        for j in &out.jobs {
            if j.outcome.degraded {
                assert!(j.outcome.failure.is_some() || j.first_start.is_none());
            }
        }
        assert_eq!(out.metrics.counter("batch.nodes.failed"), 1);
    }
}

#[test]
fn fleet_shrunk_below_widest_job_drops_it_degraded() {
    // 2-node fleet, wide job needs 2 nodes; after the failure it can
    // never be placed and must degrade instead of deadlocking.
    let jobs = vec![
        BatchJob::new(0, JobSpec::new("narrow", vec![0.05; 4], 2), 0.01),
        BatchJob::new(1, JobSpec::new("wide", vec![0.05; 8], 2), 0.02),
        BatchJob::new(2, JobSpec::new("tail", vec![0.05; 2], 1), 0.03),
    ];
    let two = BatchConfig { num_nodes: 2, ..Default::default() };
    let fault = BatchFault { node: 0, after_completions: 1, max_retries: 1, restart_secs: 0.1 };
    let out = run_batch(&jobs, &two, Some(&fault));
    let wide = &out.jobs[1];
    assert!(wide.outcome.degraded, "wide job cannot fit one survivor");
    let tail = &out.jobs[2];
    assert!(!tail.outcome.degraded, "narrow tail still completes");
}

#[test]
fn requeued_job_pays_restart_and_finishes_absorbed() {
    // Single long job running when its node dies; it requeues onto the
    // survivor and completes with an absorbed NodeFailureRecord.
    let jobs = vec![
        BatchJob::new(0, JobSpec::new("a", vec![0.05; 4], 1), 0.01),
        BatchJob::new(1, JobSpec::new("b", vec![0.05; 4], 6), 0.02),
    ];
    let two = BatchConfig { num_nodes: 2, ..Default::default() };
    let fault = BatchFault { node: 1, after_completions: 1, max_retries: 2, restart_secs: 0.3 };
    let out = run_batch(&jobs, &two, Some(&fault));
    let b = &out.jobs[1];
    assert_eq!(b.requeues, 1, "job 1 is running on node 1 when it dies");
    assert!(!b.outcome.degraded, "survivor absorbs the requeue");
    let rec = b.outcome.failure.expect("failure recorded");
    assert!(rec.absorbed);
    assert_eq!(rec.node, 1);
    assert_eq!(out.metrics.counter("batch.jobs.requeues"), 1);
    let clean = &run_batch(&jobs, &two, None).jobs[1];
    assert!(
        b.end >= clean.end + fault.restart_secs - 1e-6,
        "recovery pays at least the restart overhead: {} vs {}",
        b.end,
        clean.end
    );
}

#[test]
fn per_job_kernels_are_conformance_clean() {
    let jobs = heavy_light_mix(3, 8);
    for sched in LocalSched::ALL {
        let c = BatchConfig { verify_jobs: true, sched, ..Default::default() };
        let out = run_batch(&jobs, &c, None);
        assert!(!out.conformance.is_empty(), "{sched:?}: traces collected");
        for (id, rep) in &out.conformance {
            assert!(rep.is_clean(), "{sched:?} job {id}:\n{}", rep.render());
        }
    }
}

#[test]
fn transient_task_abort_is_absorbed_byte_identically() {
    // Aborts within the retry budget: the supervisor retries the pure
    // kernel, so the whole run is byte-identical to an unfaulted one.
    let jobs = heavy_light_mix(2008, 12);
    let clean = run_batch(&jobs, &cfg(Discipline::Easy), None);
    let abort = TaskAbortSpec { job: 5, node: 0, aborts: 2, hang: false };
    let c = BatchConfig { abort: Some(abort), discipline: Discipline::Easy, ..Default::default() };
    assert!(abort.aborts <= c.retry_limit, "fault sized to be absorbable");
    let faulted = run_batch(&jobs, &c, None);
    assert_eq!(faulted.render_trace(), clean.render_trace());
    assert_eq!(faulted.metrics, clean.metrics);
}

#[test]
fn exhausted_task_abort_quarantines_the_job() {
    let jobs = heavy_light_mix(2008, 12);
    let abort = TaskAbortSpec { job: 5, node: 0, aborts: 9, hang: false };
    let c = BatchConfig { abort: Some(abort), ..Default::default() };
    assert!(abort.aborts > c.retry_limit, "fault sized to exhaust the budget");
    let out = run_batch(&jobs, &c, None);
    let victim = out.jobs.iter().find(|j| j.id == 5).expect("job 5 accounted");
    assert!(victim.outcome.degraded, "quarantined, not panicked");
    assert!(out
        .events
        .iter()
        .any(|e| matches!(e, BatchEvent::Degraded { job: 5, reason: "task-quarantined", .. })));
    assert_eq!(out.metrics.counter("batch.jobs.degraded"), 1);
    assert!(out.jobs.iter().filter(|j| j.id != 5).all(|j| !j.outcome.degraded));
    // Deterministic: a rerun quarantines identically.
    assert_eq!(run_batch(&jobs, &c, None).render_trace(), out.render_trace());
}

#[test]
fn hung_task_times_out_under_the_watchdog() {
    let jobs = heavy_light_mix(2008, 6);
    let abort = TaskAbortSpec { job: 2, node: 0, aborts: 1, hang: true };
    let c = BatchConfig {
        abort: Some(abort),
        watchdog_secs: Some(0.05),
        ..Default::default()
    };
    let out = run_batch(&jobs, &c, None);
    assert!(out
        .events
        .iter()
        .any(|e| matches!(e, BatchEvent::Degraded { job: 2, reason: "task-timeout", .. })));
    let victim = out.jobs.iter().find(|j| j.id == 2).expect("job 2 accounted");
    assert!(victim.outcome.degraded);
    assert!(out.jobs.iter().filter(|j| j.id != 2).all(|j| !j.outcome.degraded));
}

#[test]
fn telemetry_wait_histogram_reconciles_with_records() {
    let jobs = heavy_light_mix(17, 15);
    let out = run_batch(&jobs, &cfg(Discipline::Easy), None);
    let hist = out.metrics.histogram("batch.wait_us").expect("wait histogram present");
    assert_eq!(hist.count as usize, out.jobs.len(), "one wait sample per completed job");
}

#[test]
fn heterogeneous_shapes_change_service_but_stay_deterministic() {
    use batchsim::FleetShape;
    let jobs = heavy_light_mix(2008, 12);
    let uniform = run_batch(&jobs, &cfg(Discipline::Fcfs), None);
    for shape in [FleetShape::parse("2-socket").unwrap(), FleetShape::Mixed] {
        let c = BatchConfig { shape, ..cfg(Discipline::Fcfs) };
        let a = run_batch(&jobs, &c, None);
        let b = run_batch(&jobs, &c, None);
        assert_eq!(a.jobs.len(), 12, "{shape:?}");
        assert!(a.jobs.iter().all(|j| !j.outcome.degraded), "{shape:?}");
        assert_eq!(a.render_trace(), b.render_trace(), "{shape:?}: deterministic");
        assert_ne!(
            a.render_trace(),
            uniform.render_trace(),
            "{shape:?}: different hardware must change service times"
        );
    }
}

#[test]
fn uniform_shape_is_the_legacy_engine() {
    // `FleetShape::Uniform` must be byte-identical to the default config —
    // the seed-trace compatibility gate at unit-test granularity.
    let jobs = heavy_light_mix(7, 10);
    let legacy = run_batch(&jobs, &cfg(Discipline::Easy), None);
    let explicit = run_batch(
        &jobs,
        &BatchConfig { shape: batchsim::FleetShape::Uniform, ..cfg(Discipline::Easy) },
        None,
    );
    assert_eq!(legacy.render_trace(), explicit.render_trace());
    assert_eq!(legacy.metrics, explicit.metrics);
}

#[test]
fn mixed_fleet_checkpoint_resumes_byte_identically() {
    use batchsim::{resume_batch, run_batch_until, BatchCheckpoint, FleetShape};
    let jobs = heavy_light_mix(11, 16);
    let c = BatchConfig {
        shape: FleetShape::Mixed,
        discipline: Discipline::Easy,
        ..Default::default()
    };
    let full = run_batch(&jobs, &c, None);
    let ckpt = run_batch_until(&jobs, &c, None, 9).expect("cut exists");
    let ckpt = BatchCheckpoint::decode(&ckpt.encode()).expect("shape survives the wire");
    let resumed = resume_batch(&ckpt);
    assert_eq!(resumed.render_trace(), full.render_trace());
    assert_eq!(resumed.metrics, full.metrics);
}
