//! Fleet-scale integration tests: checkpoint/resume byte-identity at 10k
//! jobs over a 1000-node fleet, with the O(1) accumulator agreeing with
//! itself across interruption points. These
//! run the production `scaled_config` shape, so the EASY release index,
//! the windowed backfill pass, and the streaming stats all sit on the
//! tested path.

use batchsim::{resume_batch, run_fleet, run_fleet_until, scaled_config};

/// Cut a 10k-job fleet run at several points (including inside the warm
/// queue), resume each checkpoint, and require the finished fingerprint,
/// accumulator, and metrics to match the uninterrupted run exactly.
#[test]
fn checkpoint_resume_is_byte_identical_at_10k_jobs() {
    let cfg = scaled_config(10_000, 1000, 2008);
    let whole = run_fleet(&cfg);
    assert_eq!(whole.accum.jobs, 10_000);
    assert!(whole.metrics.counter("batch.reservations") > 0, "EASY heads block at this load");

    for cut in [1usize, 997, 15_000] {
        let ckpt = run_fleet_until(&cfg, cut)
            .unwrap_or_else(|| panic!("run finished before event {cut}"));
        let resumed = resume_batch(&ckpt);
        assert_eq!(resumed.trace_hash, whole.trace_hash, "hash diverged at cut {cut}");
        assert_eq!(resumed.trace_events, whole.trace_events, "event count at cut {cut}");
        assert_eq!(resumed.accum, whole.accum, "accumulator at cut {cut}");
        assert_eq!(resumed.metrics, whole.metrics, "metrics at cut {cut}");
        assert_eq!(
            resumed.metrics.counter("batch.reservations"),
            whole.metrics.counter("batch.reservations"),
            "reservations at cut {cut}"
        );
    }
}
