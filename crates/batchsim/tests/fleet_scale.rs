//! Fleet-scale integration tests: checkpoint/resume byte-identity at 10k
//! jobs over a 1000-node fleet, thread-count invariance, and the O(1)
//! accumulator agreeing with itself across interruption points. These
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

/// A checkpoint taken serially and resumed on 8 worker threads still
/// lands on the uninterrupted serial fingerprint: thread count is not
/// simulation state, even across a crash boundary.
#[test]
fn resume_at_different_thread_count_is_identical() {
    let cfg = scaled_config(3_000, 1000, 7);
    let whole = run_fleet(&cfg);

    let mut ckpt = run_fleet_until(&cfg, 2_500).expect("checkpoint mid-run");
    ckpt.set_threads(8);
    let resumed = resume_batch(&ckpt);
    assert_eq!(resumed.trace_hash, whole.trace_hash);
    assert_eq!(resumed.accum, whole.accum);
}

/// The whole fleet run is thread-count-invariant, not just the resumed
/// tail.
#[test]
fn fleet_run_is_thread_count_invariant() {
    let mut cfg = scaled_config(2_000, 1000, 2008);
    let serial = run_fleet(&cfg);
    cfg.batch.threads = 8;
    let parallel = run_fleet(&cfg);
    assert_eq!(serial.trace_hash, parallel.trace_hash);
    assert_eq!(serial.accum, parallel.accum);
    assert_eq!(serial.metrics, parallel.metrics);
}
