//! Property tests for the discrete-event core.

use proptest::prelude::*;
use simcore::{
    EventId, EventQueue, OnlineStats, SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter,
};

/// Reference model of [`EventQueue`]: a plain `Vec` of pending events kept
/// sorted by `(time, seq)`, with `seq` counted exactly as the queue counts
/// it. Every operation is a linear scan; nothing about it is clever.
#[derive(Default)]
struct Model {
    pending: Vec<(SimTime, u64, u64, EventId)>,
    next_seq: u64,
}

impl Model {
    fn schedule(&mut self, time: SimTime, payload: u64, id: EventId) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self.pending.partition_point(|&(t, s, ..)| (t, s) < (time, seq));
        self.pending.insert(at, (time, seq, payload, id));
    }

    fn cancel(&mut self, id: EventId) -> bool {
        match self.pending.iter().position(|e| e.3 == id) {
            Some(i) => {
                self.pending.remove(i);
                true
            }
            None => false,
        }
    }

    fn pop(&mut self) -> Option<(SimTime, EventId, u64)> {
        (!self.pending.is_empty()).then(|| {
            let (t, _, p, id) = self.pending.remove(0);
            (t, id, p)
        })
    }
}

fn snapshot_restore(q: &EventQueue<u64>) -> EventQueue<u64> {
    let mut w = SnapshotWriter::new();
    q.snapshot(&mut w);
    let bytes = w.finish();
    let mut r = SnapshotReader::new(&bytes).expect("own image verifies");
    let back = EventQueue::restore(&mut r).expect("own image restores");
    r.finish().expect("image consumed exactly");
    let mut w = SnapshotWriter::new();
    back.snapshot(&mut w);
    assert_eq!(w.finish(), bytes, "snapshot∘restore is the identity on bytes");
    back
}

/// Apply one operation, coded as `(op, arg)`, to both the queue and the
/// model and compare every observable result. `dead` collects ids that
/// were cancelled, fired or cleared; with slots reused last-freed first,
/// the newest of them usually name a slot a later event now occupies.
fn step(
    q: &mut EventQueue<u64>,
    m: &mut Model,
    dead: &mut Vec<EventId>,
    now: &mut SimTime,
    op: u8,
    arg: u64,
) {
    match op {
        // schedule, biased so the queue tends to fill.
        0..=3 => {
            let time = *now + SimDuration::from_nanos(arg % 40);
            let id = q.schedule(time, m.next_seq);
            m.schedule(time, m.next_seq, id);
        }
        // cancel a live id
        4 | 5 => {
            if !m.pending.is_empty() {
                let id = m.pending[arg as usize % m.pending.len()].3;
                assert!(m.cancel(id));
                assert!(q.cancel(id), "live id must cancel");
                dead.push(id);
            }
        }
        // cancel a dead id: already cancelled, fired, cleared, or stale
        // with its slot reused; the newest are the likeliest reuses.
        6 => {
            if !dead.is_empty() {
                let back = (arg as usize % 4).min(dead.len() - 1);
                let id = dead[dead.len() - 1 - back];
                assert!(!m.cancel(id));
                assert!(!q.cancel(id), "dead id {id:?} must not cancel");
            }
        }
        7 => assert!(!q.cancel(EventId::NONE)),
        8 | 9 => {
            let want = m.pop();
            let got = q.pop().map(|e| (e.time, e.id, e.payload));
            assert_eq!(got, want, "pop");
            if let Some((t, id, _)) = got {
                *now = t;
                dead.push(id);
            }
        }
        10 => assert_eq!(q.peek_time(), m.pending.first().map(|e| e.0)),
        11 => {
            if arg.is_multiple_of(8) {
                q.clear();
                dead.extend(m.pending.drain(..).map(|e| e.3));
            }
        }
        _ => *q = snapshot_restore(q),
    }
    assert_eq!(q.len(), m.pending.len(), "len after op {op}");
    assert_eq!(q.is_empty(), m.pending.is_empty());
}

proptest! {
    /// Events pop in (time, insertion-order) order regardless of insertion
    /// pattern.
    #[test]
    fn queue_pops_in_time_then_fifo_order(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push((ev.time.as_nanos(), ev.payload));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO within a timestamp");
            }
        }
    }

    /// Cancelling an arbitrary subset suppresses exactly those events.
    #[test]
    fn cancellation_is_exact(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times.iter().enumerate().map(|(i, &t)| q.schedule(SimTime(t), i)).collect();
        let mut expected: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            let cancel = *cancel_mask.get(i).unwrap_or(&false);
            if cancel {
                prop_assert!(q.cancel(*id));
            } else {
                expected.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some(ev) = q.pop() {
            popped.push(ev.payload);
        }
        popped.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(popped, expected);
    }

    /// The queue and the sorted-`Vec` model agree on pop order, `cancel`
    /// results, `peek_time` and `len` over any interleaving of schedule,
    /// cancel (live, dead, stale, `NONE`), pop, peek, clear and a
    /// snapshot/restore round trip.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..13, 0u64..1_000), 1..600),
    ) {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        let mut dead = Vec::new();
        let mut now = SimTime::ZERO;
        for (op, arg) in ops {
            step(&mut q, &mut m, &mut dead, &mut now, op, arg);
        }
        while let Some(want) = m.pop() {
            prop_assert_eq!(q.pop().map(|e| (e.time, e.id, e.payload)), Some(want));
        }
        prop_assert!(q.pop().is_none());
        for id in dead {
            prop_assert!(!q.cancel(id), "every id ever issued is now dead");
        }
    }

    /// Welford statistics agree with the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..400)) {
        let mut s = OnlineStats::new();
        xs.iter().for_each(|&x| s.push(x));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() <= 1e-6 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-5 * var.abs().max(1.0));
    }

    /// Merging split accumulators equals accumulating the whole sequence.
    #[test]
    fn stats_merge_associative(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..200),
        split in 1usize..100,
    ) {
        let split = split.min(xs.len() - 1);
        let mut whole = OnlineStats::new();
        xs.iter().for_each(|&x| whole.push(x));
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        xs[..split].iter().for_each(|&x| a.push(x));
        xs[split..].iter().for_each(|&x| b.push(x));
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9 * whole.mean().abs().max(1.0));
    }

    /// Duration arithmetic: mul/div round-trips within rounding error.
    #[test]
    fn duration_scale_roundtrip(ns in 1u64..1_000_000_000_000, factor in 0.001f64..1000.0) {
        let d = SimDuration::from_nanos(ns);
        let scaled = d.mul_f64(factor).div_f64(factor);
        let err = scaled.as_nanos().abs_diff(ns);
        // One ns of rounding per operation, amplified by 1/factor.
        let tolerance = (2.0 / factor).ceil() as u64 + 2;
        prop_assert!(err <= tolerance, "err {err} tolerance {tolerance}");
    }
}

/// A long history: ids stay unique per occupant however many times the
/// slots are recycled, so no dead id ever cancels a later event.
#[test]
fn long_history_never_aliases_stale_ids() {
    let mut q = EventQueue::new();
    let mut m = Model::default();
    let mut dead = Vec::new();
    let mut now = SimTime::ZERO;
    let mut rng = SimRng::seed_from_u64(2008);
    for i in 0..200_000u64 {
        let op = rng.range_u64(0, 13) as u8;
        // Snapshot only now and then: it copies the whole queue.
        let op = if op == 12 && !i.is_multiple_of(64) { 8 } else { op };
        step(&mut q, &mut m, &mut dead, &mut now, op, rng.range_u64(0, 1_000));
        if dead.len() > 4096 {
            dead.drain(..2048);
        }
    }
}
