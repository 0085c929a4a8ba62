//! Property tests for placement under churn (the batch-level invariants):
//!
//! * fleet capacity is never exceeded and no node is double-booked;
//! * no gang is ever placed on a failed node;
//! * EASY backfill never delays the head-of-queue reservation (the
//!   classic backfill invariant).
//!
//! All three are checked by *replaying the event trace*, independently of
//! the engine's internal bookkeeping.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use batchsim::{
    heavy_light_mix, run_batch, text_fnv1a, BatchConfig, BatchEvent, BatchFault, Discipline,
    LocalSched,
};
use proptest::prelude::*;

fn small_cfg(discipline: Discipline) -> BatchConfig {
    BatchConfig { discipline, sched: LocalSched::Cfs, ..Default::default() }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Under any discipline, with a node failure injected mid-queue, the
    /// replayed trace never books a busy or failed node, never exceeds
    /// the fleet, and accounts for every submitted job exactly once.
    #[test]
    fn capacity_and_failed_node_invariants(
        seed in any::<u64>(),
        njobs in 6usize..12,
        disc in 0usize..3,
        fail_node in 0usize..4,
        fail_after in 0u32..5,
    ) {
        let jobs = heavy_light_mix(seed, njobs);
        let cfg = small_cfg(Discipline::ALL[disc]);
        let fault = BatchFault {
            node: fail_node,
            after_completions: fail_after,
            max_retries: 1,
            restart_secs: 0.05,
        };
        let out = run_batch(&jobs, &cfg, Some(&fault));

        let mut busy: BTreeMap<usize, u64> = BTreeMap::new();
        let mut failed: BTreeSet<usize> = BTreeSet::new();
        for e in &out.events {
            match e {
                BatchEvent::Start { job, nodes, .. } => {
                    for &n in nodes {
                        prop_assert!(n < cfg.num_nodes, "node {n} out of range");
                        prop_assert!(!failed.contains(&n), "job {job} placed on failed node {n}");
                        prop_assert!(
                            busy.insert(n, *job).is_none(),
                            "node {n} double-booked by job {job}"
                        );
                    }
                    prop_assert!(busy.len() <= cfg.num_nodes, "capacity exceeded");
                }
                BatchEvent::Finish { job, .. } => {
                    busy.retain(|_, j| j != job);
                }
                BatchEvent::NodeFail { node, .. } => {
                    failed.insert(*node);
                    // The victim job (if any) releases all its nodes.
                    if let Some(victim) = busy.get(node).copied() {
                        busy.retain(|_, j| *j != victim);
                    }
                }
                _ => {}
            }
        }
        prop_assert_eq!(out.jobs.len(), jobs.len(), "every job accounted exactly once");
        let done = out.jobs.iter().filter(|j| !j.outcome.degraded).count();
        let degraded = out.jobs.iter().filter(|j| j.outcome.degraded).count();
        prop_assert_eq!(done + degraded, jobs.len());
        prop_assert_eq!(out.failed_nodes, vec![fail_node]);
        // The running fold is public: it must match the rendering.
        prop_assert_eq!(out.trace_hash, text_fnv1a(&out.render_trace()));
        prop_assert_eq!(out.trace_events, out.events.len());
    }

    /// The EASY no-delay invariant: the head of queue starts no later
    /// than the shadow time of its first reservation.
    #[test]
    fn easy_never_delays_the_reserved_head(seed in any::<u64>()) {
        let jobs = heavy_light_mix(seed, 12);
        let out = run_batch(&jobs, &small_cfg(Discipline::Easy), None);
        prop_assert_eq!(out.trace_hash, text_fnv1a(&out.render_trace()));
        prop_assert_eq!(out.trace_events, out.events.len());
        for r in &out.reservations {
            let start = out.events.iter().find_map(|e| match e {
                BatchEvent::Start { t, job, .. } if *job == r.job => Some(*t),
                _ => None,
            });
            // Without faults a reserved head always starts. Timestamps are
            // exact nanoseconds now, so the invariant needs no slack.
            prop_assert!(start.is_some(), "reserved job {} never started", r.job);
            let start = start.unwrap_or(simcore::SimTime::MAX);
            prop_assert!(
                start <= r.shadow,
                "job {} reserved at {} for shadow {} but started {}",
                r.job, r.at, r.shadow, start
            );
        }
    }

    /// Backfilled jobs genuinely jump the queue (start before an
    /// earlier-arrived job) yet the run completes everything.
    #[test]
    fn easy_trace_is_internally_consistent(seed in any::<u64>()) {
        let jobs = heavy_light_mix(seed ^ 0xb00c, 10);
        let out = run_batch(&jobs, &small_cfg(Discipline::Easy), None);
        prop_assert!(out.jobs.iter().all(|j| !j.outcome.degraded));
        // Monotone event times (the batch-level C002 analogue) — exact.
        let times: Vec<simcore::SimTime> = out.events.iter().map(|e| match e {
            BatchEvent::Submit { t, .. } | BatchEvent::Start { t, .. }
            | BatchEvent::Finish { t, .. } | BatchEvent::NodeFail { t, .. }
            | BatchEvent::Requeue { t, .. } | BatchEvent::Degraded { t, .. } => *t,
        }).collect();
        for w in times.windows(2) {
            prop_assert!(w[1] >= w[0], "event time went backwards");
        }
    }
}
