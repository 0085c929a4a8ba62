//! Property tests for the streaming arrival generators and the fleet
//! engine's equivalence to the materialised path:
//!
//! * the heavy/light mix is prefix-stable — `mix(seed, k)` is the first
//!   `k` jobs of `mix(seed, n)`, for any `k <= n` and seed;
//! * `FleetJobs::replay(cfg, k)` resumes the stream exactly where a
//!   fresh generator left off after `k` jobs (the checkpoint contract);
//! * running the batch engine over the *materialised* fleet stream
//!   produces, byte for byte, the trace whose fingerprint the streaming
//!   fleet engine folds up — the two paths are the same simulation.

use batchsim::{
    heavy_light_mix, run_batch, run_fleet, text_fnv1a, BatchConfig, Discipline, FleetConfig,
    FleetJobs, FleetStats, FleetStreamConfig,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The heavy/light mix is prefix-stable: a shorter stream of the same
    /// seed is exactly the first jobs of a longer one.
    #[test]
    fn heavy_light_mix_is_prefix_equivalent(
        seed in any::<u64>(),
        jobs in 1usize..60,
        k in 0usize..60,
    ) {
        let all = heavy_light_mix(seed, jobs);
        let k = k.min(all.len());
        let prefix = heavy_light_mix(seed, k);
        prop_assert_eq!(format!("{prefix:?}"), format!("{:?}", &all[..k]));
    }

    /// A replayed fleet generator continues exactly where a fresh one
    /// stopped: `replay(cfg, k)` yields the same suffix a fresh generator
    /// yields after `k` next() calls — the checkpoint image contract.
    #[test]
    fn fleet_replay_resumes_the_stream_exactly(
        seed in any::<u64>(),
        jobs in 1u64..200,
        k in 0u64..200,
    ) {
        let cfg = FleetStreamConfig { seed, jobs, ..Default::default() };
        let k = k.min(jobs);
        let mut fresh = FleetJobs::new(&cfg);
        for _ in 0..k {
            fresh.next();
        }
        prop_assert_eq!(fresh.emitted(), k);
        let replayed = FleetJobs::replay(&cfg, k);
        let rest_fresh: Vec<_> = fresh.collect();
        let rest_replayed: Vec<_> = replayed.collect();
        prop_assert_eq!(format!("{rest_fresh:?}"), format!("{rest_replayed:?}"));
    }

    /// The streaming fleet engine and the materialising batch engine are
    /// the same simulation: run the batch path over the collected fleet
    /// stream and the folded fingerprint must equal the hash of its
    /// rendered trace, with matching aggregate statistics (exact counts
    /// and maxima; means equal up to summation-order reassociation).
    #[test]
    fn fleet_hash_equals_materialised_batch_trace(
        seed in any::<u64>(),
        jobs in 20u64..120,
        disc in 0usize..3,
    ) {
        let cfg = FleetConfig {
            stream: FleetStreamConfig { seed, jobs, classes: 6, mean_interarrival: 0.01 },
            batch: BatchConfig {
                num_nodes: 48,
                discipline: Discipline::ALL[disc],
                ..Default::default()
            },
        };
        let fleet = run_fleet(&cfg);

        let stream: Vec<_> = FleetJobs::new(&cfg.stream).collect();
        let batch = run_batch(&stream, &cfg.batch, None);

        prop_assert_eq!(fleet.trace_hash, text_fnv1a(&batch.render_trace()));
        prop_assert_eq!(fleet.trace_events, batch.events.len());
        prop_assert_eq!(fleet.accum.jobs, batch.jobs.len() as u64);

        // Counts and maxima are exact; the sums behind the means fold in
        // completion order on the streaming path and id order on the
        // materialised one, so they agree only up to float reassociation.
        let b = FleetStats::from_outcome(&batch);
        let f = FleetStats::from_outcome(&fleet);
        prop_assert_eq!(
            (f.jobs, f.completed, f.degraded, f.backfilled, f.requeued),
            (b.jobs, b.completed, b.degraded, b.backfilled, b.requeued)
        );
        prop_assert_eq!(f.max_wait, b.max_wait);
        prop_assert_eq!(f.makespan, b.makespan);
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0);
        prop_assert!(close(f.mean_wait, b.mean_wait), "mean_wait {} vs {}", f.mean_wait, b.mean_wait);
        prop_assert!(close(f.mean_turnaround, b.mean_turnaround));
        prop_assert!(close(f.mean_slowdown, b.mean_slowdown));
        prop_assert!(close(f.utilization, b.utilization));
        prop_assert!(close(f.throughput, b.throughput));
    }
}
