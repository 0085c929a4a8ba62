//! The batch oracle's node memo against direct node runs.
//!
//! The oracle runs each distinct node content — (node kind under the
//! fleet shape, iterations, load bits) — once per engine and reuses the
//! result for every later node with the same content. These tests check
//! that a memoised result is exactly what a fresh [`run_node`] call
//! computes, pin how many node runs the 200-job study makes, and check
//! that an injected `taskabort` still reaches a job whose nodes are all
//! memoised.

use std::collections::BTreeSet;

use batchsim::{
    heavy_light_mix, run_batch, run_node, BatchConfig, BatchEvent, BatchJob, BatchOutcome,
    Discipline, FleetShape, JobSpec, LocalSched,
};
use faultsim::TaskAbortSpec;

/// Every completed job's per-node seconds, bit for bit, against a direct
/// node run on that node's loads and gang-local shape. Without faults a
/// job runs one segment over its full spec.
fn assert_node_secs_match_direct_runs(jobs: &[BatchJob], cfg: &BatchConfig) {
    let out = run_batch(jobs, cfg, None);
    assert_eq!(out.jobs.len(), jobs.len());
    let mut checked = 0;
    for rec in &out.jobs {
        assert!(!rec.outcome.degraded, "job {} degraded", rec.id);
        let spec = &jobs
            .iter()
            .find(|j| j.id == rec.id)
            .expect("job in stream")
            .spec;
        let result = &rec.outcome.result;
        assert_eq!(result.node_secs.len(), result.placement.nodes.len());
        for (i, slots) in result.placement.nodes.iter().enumerate() {
            if slots.is_empty() {
                assert_eq!(
                    result.node_secs[i], 0.0,
                    "job {} node {i}: empty node",
                    rec.id
                );
                continue;
            }
            let loads: Vec<f64> = slots.iter().map(|&r| spec.rank_loads[r]).collect();
            let direct = run_node(
                &loads,
                spec.iterations,
                cfg.sched,
                &cfg.shape.node_shape(i),
                false,
            )
            .expect("valid node");
            assert_eq!(
                result.node_secs[i].to_bits(),
                direct.exec_secs.to_bits(),
                "job {} node {i} ({:?}): engine {} vs direct {}",
                rec.id,
                cfg.shape,
                result.node_secs[i],
                direct.exec_secs
            );
            checked += 1;
        }
    }
    assert!(checked >= jobs.len(), "every job has at least one node");
}

#[test]
fn memoised_node_secs_equal_direct_runs_on_the_uniform_study() {
    let cfg = BatchConfig {
        discipline: Discipline::Easy,
        ..Default::default()
    };
    assert_node_secs_match_direct_runs(&heavy_light_mix(2008, 200), &cfg);
}

#[test]
fn memoised_node_secs_equal_direct_runs_on_a_mixed_fleet() {
    // Mixed cycles three node kinds by gang-local position, so equal loads
    // on different positions are different node runs. The stream's own
    // jobs never put one load vector on two kinds; the two flat jobs
    // appended to it do: the 4-rank job fills node 0 (the 2-NUMA box) with
    // four 0.05 loads, and the 12-rank job places the same four on node 1
    // (the 1.25x wide-SMT core).
    let mut jobs = heavy_light_mix(2008, 30);
    let last = jobs.last().map_or(0.0, |j| j.arrival);
    for (k, ranks) in [4, 12].into_iter().enumerate() {
        let spec = JobSpec::new(format!("flat{ranks}"), vec![0.05; ranks], 3);
        jobs.push(BatchJob::new(30 + k as u64, spec, last + 1.0 + k as f64));
    }
    let cfg = BatchConfig {
        discipline: Discipline::Easy,
        shape: FleetShape::Mixed,
        ..Default::default()
    };
    assert_node_secs_match_direct_runs(&jobs, &cfg);
}

/// Node runs the seed-2008 200-job study makes per discipline. Each
/// engine runs only the distinct node contents it meets (about 160 of the
/// 290 nodes its jobs occupy).
#[test]
fn the_200_job_study_runs_each_distinct_node_once() {
    let jobs = heavy_light_mix(2008, 200);
    for (discipline, expected) in [
        (Discipline::Fcfs, 160),
        (Discipline::Sjf, 160),
        (Discipline::Easy, 160),
    ] {
        let cfg = BatchConfig {
            discipline,
            ..Default::default()
        };
        let out = run_batch(&jobs, &cfg, None);
        assert_eq!(supervisor_counts(&out)[0], expected, "{}", discipline.label());
    }
}

/// The first job (in id order, which is FCFS measurement order) whose every
/// node content an earlier job has already run: without the abort bypass
/// its whole segment would come from the memo.
fn fully_memoised_job(jobs: &[BatchJob]) -> u64 {
    let clean = run_batch(jobs, &BatchConfig::default(), None);
    let mut seen = BTreeSet::new();
    for rec in &clean.jobs {
        let spec = &jobs
            .iter()
            .find(|j| j.id == rec.id)
            .expect("job in stream")
            .spec;
        let keys: Vec<(u32, Vec<u64>)> = rec
            .outcome
            .result
            .placement
            .nodes
            .iter()
            .map(|slots| {
                (
                    spec.iterations,
                    slots
                        .iter()
                        .map(|&r| spec.rank_loads[r].to_bits())
                        .collect(),
                )
            })
            .collect();
        if keys.iter().all(|k| seen.contains(k)) {
            return rec.id;
        }
        seen.extend(keys);
    }
    panic!("no job of the stream repeats earlier node contents");
}

#[test]
fn an_absorbed_abort_on_memoised_contents_still_retries() {
    let jobs = heavy_light_mix(2008, 40);
    let victim = fully_memoised_job(&jobs);
    let clean = run_batch(&jobs, &BatchConfig::default(), None);
    let abort = TaskAbortSpec {
        job: victim,
        node: 0,
        aborts: 2,
        hang: false,
    };
    let cfg = BatchConfig {
        abort: Some(abort),
        ..Default::default()
    };
    assert!(
        abort.aborts <= cfg.retry_limit,
        "fault sized to be absorbable"
    );
    let out = run_batch(&jobs, &cfg, None);
    assert_eq!(
        out.pool_metrics.counter("exec.pool.retries"),
        u64::from(abort.aborts),
        "job {victim}: every abort is a retry"
    );
    assert_eq!(
        out.render_trace(),
        clean.render_trace(),
        "absorbed byte-identically"
    );
    assert_eq!(out.metrics, clean.metrics);
}

#[test]
fn an_exhausted_abort_on_memoised_contents_still_quarantines() {
    let jobs = heavy_light_mix(2008, 40);
    let victim = fully_memoised_job(&jobs);
    let abort = TaskAbortSpec {
        job: victim,
        node: 0,
        aborts: 9,
        hang: false,
    };
    let cfg = BatchConfig {
        abort: Some(abort),
        ..Default::default()
    };
    assert!(
        abort.aborts > cfg.retry_limit,
        "fault sized to exhaust the budget"
    );
    let out = run_batch(&jobs, &cfg, None);
    assert!(
        out.events.iter().any(|e| matches!(
            e,
            BatchEvent::Degraded { job, reason: "task-quarantined", .. } if *job == victim
        )),
        "job {victim} quarantined"
    );
    assert_eq!(out.metrics.counter("batch.jobs.degraded"), 1);
    assert!(out
        .jobs
        .iter()
        .filter(|j| j.id != victim)
        .all(|j| !j.outcome.degraded));
    assert_eq!(out.pool_metrics.counter("exec.pool.quarantined"), 1);
}

/// Failures on segments whose two nodes share content (a "twin" job),
/// pinned at the figures the batch-submitting executor produced before
/// node runs became serial. An exhausted `taskabort` bypasses the memo:
/// both nodes run, only the targeted one quarantines, and neither outcome
/// enters the memo, so a later twin runs its node again.
#[test]
fn an_exhausted_abort_on_twin_nodes_matches_the_pinned_run() {
    let mut jobs = heavy_light_mix(2008, 12);
    let last = jobs.last().map_or(0.0, |j| j.arrival);
    jobs.push(BatchJob::new(12, twin(), last + 1.0));
    jobs.push(BatchJob::new(13, twin(), last + 2.0));
    let abort = TaskAbortSpec {
        job: 12,
        node: 0,
        aborts: 9,
        hang: false,
    };
    let cfg = BatchConfig {
        abort: Some(abort),
        ..Default::default()
    };
    let out = run_batch(&jobs, &cfg, None);
    assert_eq!(supervisor_counts(&out), [14, 2, 1], "node 1 and job 13 run too");
    // The hash pins the trace, including job 12's `task-quarantined` line.
    assert_eq!(out.trace_hash, 0x2f44_1925_37b9_5e91);
    assert!(out.jobs.iter().all(|j| j.outcome.degraded == (j.id == 12)));
}

/// A node run that fails outside any `taskabort` (here an unregistered
/// policy name) goes through the memo: the twin's second node shares its
/// first node's failure instead of running again, and the failure is not
/// memoised, so the second twin job runs once more.
#[test]
fn a_failed_node_run_is_shared_within_its_segment_only() {
    let jobs = vec![BatchJob::new(0, twin(), 0.0), BatchJob::new(1, twin(), 1.0)];
    let cfg = BatchConfig {
        sched: LocalSched::Policy("no-such-policy"),
        ..Default::default()
    };
    let out = run_batch(&jobs, &cfg, None);
    assert_eq!(supervisor_counts(&out), [2, 4, 2], "one run per segment");
    assert_eq!(out.trace_hash, 0xe42f_7f5e_91d3_ffc5);
    assert!(out.jobs.iter().all(|j| j.outcome.degraded));
}

/// Eight equal ranks: two nodes with the same content.
fn twin() -> JobSpec {
    JobSpec::new("twin", vec![0.05; 8], 3)
}

/// `exec.pool.{tasks, retries, quarantined}`; every test here expects no
/// watchdog timeouts.
fn supervisor_counts(out: &BatchOutcome) -> [u64; 3] {
    let m = &out.pool_metrics;
    assert_eq!(m.counter("exec.pool.timeouts"), 0);
    ["tasks", "retries", "quarantined"].map(|c| m.counter(&format!("exec.pool.{c}")))
}
