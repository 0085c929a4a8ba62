//! Crash/resume byte-identity property.
//!
//! Checkpoint a run at a random event index — across random seeds, all
//! three disciplines, every local scheduler, optional node-failure plans,
//! and differing resume thread counts — push the image through the wire
//! format, resume it, and require the continued trace, metrics, and every
//! per-job record to match the uninterrupted run exactly. Plus the
//! durability half: a corrupted latest image must fall back to the
//! previous generation and still resume byte-identically.

use batchsim::{
    heavy_light_mix, resume_batch, run_batch, run_batch_until, BatchCheckpoint, BatchConfig,
    BatchFault, CheckpointStore, Discipline, LocalSched,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn resumed_runs_are_byte_identical(
        seed in any::<u64>(),
        njobs in 6usize..10,
        disc in 0usize..3,
        sched in 0usize..3,
        cut in 1usize..40,
        threads in 1usize..=8,
        with_fault in any::<bool>(),
        fail_node in 0usize..4,
        fail_after in 0u32..4,
    ) {
        let jobs = heavy_light_mix(seed, njobs);
        let fault = with_fault.then_some(BatchFault {
            node: fail_node,
            after_completions: fail_after,
            max_retries: 1,
            restart_secs: 0.05,
        });
        let cfg = BatchConfig {
            discipline: Discipline::ALL[disc],
            sched: [LocalSched::Hpc, LocalSched::Cfs, LocalSched::Static][sched],
            threads: 1,
            ..Default::default()
        };
        let full = run_batch(&jobs, &cfg, fault.as_ref());

        let Some(ckpt) = run_batch_until(&jobs, &cfg, fault.as_ref(), cut) else {
            // Stream drained before the cut: nothing to resume.
            return Ok(());
        };
        // Round-trip the wire format before resuming — what a real restart
        // after a crash would read off disk.
        let bytes = ckpt.encode();
        let decoded = BatchCheckpoint::decode(&bytes);
        prop_assert!(decoded.is_ok(), "decode failed: {:?}", decoded.err());
        // INVARIANT: checked ok on the line above.
        let mut ckpt = decoded.expect("checked ok");
        prop_assert_eq!(ckpt.encode(), bytes, "decode → encode is the identity");
        ckpt.set_threads(threads);
        let resumed = resume_batch(&ckpt);

        prop_assert_eq!(
            full.render_trace(), resumed.render_trace(),
            "trace diverged: cut={} resume threads={}", cut, threads
        );
        prop_assert_eq!(&full.metrics, &resumed.metrics, "metrics diverged");
        prop_assert_eq!(full.makespan, resumed.makespan);
        prop_assert_eq!(full.failed_nodes.clone(), resumed.failed_nodes.clone());
        prop_assert_eq!(full.jobs.len(), resumed.jobs.len());
        for (a, b) in full.jobs.iter().zip(&resumed.jobs) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.wait, b.wait, "job {} wait", a.id);
            prop_assert_eq!(a.turnaround, b.turnaround, "job {} turnaround", a.id);
            prop_assert_eq!(a.slowdown, b.slowdown, "job {} slowdown", a.id);
            prop_assert_eq!(a.requeues, b.requeues, "job {} requeues", a.id);
            prop_assert_eq!(a.node_secs_held, b.node_secs_held, "job {} held", a.id);
            prop_assert_eq!(
                &a.outcome.result.node_secs, &b.outcome.result.node_secs,
                "job {} node_secs", a.id
            );
        }
    }
}

#[test]
fn corrupted_latest_checkpoint_recovers_from_the_previous_generation() {
    let dir = std::env::temp_dir()
        .join(format!("batchsim-prop-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let jobs = heavy_light_mix(42, 16);
    let cfg = BatchConfig { discipline: Discipline::Easy, ..Default::default() };
    let full = run_batch(&jobs, &cfg, None);

    let early = run_batch_until(&jobs, &cfg, None, 4).expect("early cut exists");
    let late = run_batch_until(&jobs, &cfg, None, 20).expect("late cut exists");
    let mut store = CheckpointStore::new(&dir).corrupt_nth_save(2);
    store.save(&early).expect("save early");
    store.save(&late).expect("save late (then corrupted)");

    let (recovered, fell_back) = CheckpointStore::load_latest(&dir).expect("fallback");
    assert!(fell_back, "the torn latest image must be skipped");
    assert_eq!(recovered.encode(), early.encode(), "fallback is the previous good image");
    assert_eq!(
        resume_batch(&recovered).render_trace(),
        full.render_trace(),
        "resume from the fallback still reproduces the uninterrupted trace"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
