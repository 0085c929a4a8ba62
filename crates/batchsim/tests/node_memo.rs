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
    Discipline, FleetShape, JobSpec,
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

fn pool_tasks(out: &BatchOutcome) -> u64 {
    out.pool_metrics.counter("exec.pool.tasks")
}

/// Node runs the seed-2008 200-job study makes per discipline. Each
/// engine runs only the distinct node contents it meets (about 160 of the
/// 290 nodes its jobs occupy), and the count does not depend on the
/// thread count.
#[test]
fn the_200_job_study_runs_each_distinct_node_once() {
    let jobs = heavy_light_mix(2008, 200);
    for (discipline, expected) in [
        (Discipline::Fcfs, 160),
        (Discipline::Sjf, 160),
        (Discipline::Easy, 160),
    ] {
        for threads in [1, 4] {
            let cfg = BatchConfig {
                discipline,
                threads,
                ..Default::default()
            };
            let out = run_batch(&jobs, &cfg, None);
            assert_eq!(
                pool_tasks(&out),
                expected,
                "{} at {threads} thread(s)",
                discipline.label()
            );
        }
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
    for threads in [1, 4] {
        let out = run_batch(&jobs, &BatchConfig { threads, ..cfg }, None);
        assert_eq!(
            out.pool_metrics.counter("exec.pool.retries"),
            u64::from(abort.aborts),
            "job {victim}: every abort is a retry at {threads} thread(s)"
        );
        assert_eq!(
            out.render_trace(),
            clean.render_trace(),
            "absorbed byte-identically"
        );
        assert_eq!(out.metrics, clean.metrics);
    }
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
