//! Serial-vs-parallel byte-identity property.
//!
//! `run_batch` must be a pure function of `(stream, config, fault)` with
//! [`BatchConfig::threads`] changing nothing but wall-clock time: the
//! rendered event trace, the metrics snapshot, and every per-job record
//! must match the serial run exactly — across random seeds, all three
//! disciplines, thread counts 2–8, and with a node-failure plan active.

use batchsim::{heavy_light_mix, run_batch, BatchConfig, BatchFault, Discipline, LocalSched};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn parallel_batch_runs_are_byte_identical(
        seed in any::<u64>(),
        njobs in 6usize..10,
        disc in 0usize..3,
        threads in 2usize..=8,
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
            sched: LocalSched::Cfs,
            threads: 1,
            ..Default::default()
        };
        let serial = run_batch(&jobs, &cfg, fault.as_ref());
        let par = run_batch(&jobs, &BatchConfig { threads, ..cfg }, fault.as_ref());

        prop_assert_eq!(
            serial.render_trace(), par.render_trace(),
            "trace diverged at threads={}", threads
        );
        prop_assert_eq!(&serial.metrics, &par.metrics, "metrics diverged");
        prop_assert_eq!(serial.makespan, par.makespan);
        prop_assert_eq!(serial.failed_nodes.clone(), par.failed_nodes.clone());
        prop_assert_eq!(serial.jobs.len(), par.jobs.len());
        for (a, b) in serial.jobs.iter().zip(&par.jobs) {
            prop_assert_eq!(a.id, b.id);
            prop_assert_eq!(a.wait, b.wait, "job {} wait", a.id);
            prop_assert_eq!(a.turnaround, b.turnaround, "job {} turnaround", a.id);
            prop_assert_eq!(a.slowdown, b.slowdown, "job {} slowdown", a.id);
            prop_assert_eq!(a.node_secs_held, b.node_secs_held, "job {} held", a.id);
            prop_assert_eq!(
                &a.outcome.result.node_secs, &b.outcome.result.node_secs,
                "job {} node_secs", a.id
            );
        }
    }
}
