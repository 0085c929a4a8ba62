//! Property tests for MPI message matching against a reference model.

use mpisim::{Mpi, MpiConfig};
use proptest::prelude::*;
use schedsim::program::MockApi;
use simcore::{SimDuration, SimTime};

#[derive(Clone, Debug)]
enum Op {
    /// (from, to, tag)
    Send(usize, usize, i32),
    /// (me, src, tag)
    Recv(usize, usize, i32),
}

fn ops(n_ranks: usize) -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (0..n_ranks, 0..n_ranks, 0i32..3).prop_map(|(f, t, tag)| Op::Send(f, t, tag)),
        (0..n_ranks, 0..n_ranks, 0i32..3).prop_map(|(m, s, tag)| Op::Recv(m, s, tag)),
    ];
    proptest::collection::vec(op, 1..60)
}

proptest! {
    /// Every receive completes iff the model says a matching message
    /// exists, and completions respect FIFO per (src, dst, tag).
    #[test]
    fn matching_agrees_with_reference_model(ops in ops(3)) {
        let mpi = Mpi::new(3, MpiConfig::default());
        let mut m = MockApi::new();
        // Reference model: per (dst, src, tag) counters of unmatched sends
        // and pending recvs.
        use std::collections::BTreeMap;
        let mut unmatched_sends: BTreeMap<(usize, usize, i32), u32> = BTreeMap::new();
        let mut pending_recvs: BTreeMap<(usize, usize, i32), u32> = BTreeMap::new();
        let mut expected_completions = 0usize;

        for (step, op) in ops.iter().enumerate() {
            m.now = SimTime::ZERO + SimDuration::from_micros(step as u64 * 10);
            match *op {
                Op::Send(f, t, tag) => {
                    mpi.send(&mut m.api(), f, t, tag, 16);
                    let key = (t, f, tag);
                    let pend = pending_recvs.entry(key).or_default();
                    if *pend > 0 {
                        *pend -= 1;
                        expected_completions += 1;
                    } else {
                        *unmatched_sends.entry(key).or_default() += 1;
                    }
                }
                Op::Recv(me, src, tag) => {
                    let req = mpi.irecv(&mut m.api(), me, Some(src), Some(tag));
                    let _tok = mpi.wait(&mut m.api(), req);
                    let key = (me, src, tag);
                    let sends = unmatched_sends.entry(key).or_default();
                    if *sends > 0 {
                        *sends -= 1;
                        expected_completions += 1;
                    } else {
                        *pending_recvs.entry(key).or_default() += 1;
                    }
                }
            }
            // Every completed receive scheduled exactly one signal.
            prop_assert_eq!(m.deferred_signals.len(), expected_completions);
        }
    }

    /// Message arrival times are monotone in payload size and never before
    /// the send.
    #[test]
    fn arrival_times_physical(bytes in 0u64..10_000_000, when_us in 0u64..1_000_000) {
        let mpi = Mpi::new(2, MpiConfig::default());
        let mut m = MockApi::new();
        m.now = SimTime::ZERO + SimDuration::from_micros(when_us);
        mpi.send(&mut m.api(), 0, 1, 0, bytes);
        let tok = mpi.recv(&mut m.api(), 1, Some(0), Some(0));
        let (at, t) = m.deferred_signals[0];
        prop_assert_eq!(t, tok);
        prop_assert!(at > m.now, "arrival strictly after send");
        let expected = m.now + MpiConfig::default().transfer_time(bytes);
        prop_assert_eq!(at, expected);
    }

    /// A barrier over n ranks releases everyone at one instant after the
    /// last arrival, regardless of arrival order.
    #[test]
    fn barrier_release_uniform(mut order in Just(vec![0usize,1,2,3]).prop_shuffle(), gaps in proptest::collection::vec(0u64..5_000, 4)) {
        let mpi = Mpi::new(4, MpiConfig::default());
        let mut m = MockApi::new();
        let mut toks = Vec::new();
        let mut now_us = 0;
        for (i, rank) in order.drain(..).enumerate() {
            now_us += gaps[i];
            m.now = SimTime::ZERO + SimDuration::from_micros(now_us);
            toks.push(mpi.barrier(&mut m.api(), rank));
        }
        let last_arrival = m.now;
        let times: Vec<SimTime> = toks
            .iter()
            .map(|tok| m.deferred_signals.iter().find(|(_, t)| t == tok).expect("released").0)
            .collect();
        for &t in &times {
            prop_assert_eq!(t, times[0], "uniform release");
            prop_assert!(t > last_arrival);
        }
    }
}
