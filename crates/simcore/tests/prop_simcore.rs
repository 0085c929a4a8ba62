//! Property tests for the discrete-event core.

use proptest::prelude::*;
use simcore::{
    EventId, EventQueue, SimDuration, SimRng, SimTime, SnapshotReader, SnapshotWriter,
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

fn snapshot_bytes(q: &EventQueue<u64>) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    q.snapshot(&mut w);
    w.finish()
}

fn snapshot_restore(q: &EventQueue<u64>) -> EventQueue<u64> {
    let bytes = snapshot_bytes(q);
    let mut r = SnapshotReader::new(&bytes).expect("own image verifies");
    let back = EventQueue::restore(&mut r).expect("own image restores");
    r.finish().expect("image consumed exactly");
    assert_eq!(snapshot_bytes(&back), bytes, "snapshot∘restore is the identity on bytes");
    back
}

/// The queue under test, the reference model, and a twin queue that never
/// calls [`EventQueue::reschedule`]: it performs every re-arm as a literal
/// cancel followed by a schedule of the same payload.
#[derive(Default)]
struct Harness {
    q: EventQueue<u64>,
    twin: EventQueue<u64>,
    m: Model,
    /// Ids that were cancelled, re-armed, fired or cleared; with slots
    /// reused last-freed first, the newest of them usually name a slot a
    /// later event now occupies.
    dead: Vec<EventId>,
    now: SimTime,
}

impl Harness {
    /// An id of the kind `arg` selects: live, dead (cancelled, fired,
    /// cleared or stale), or [`EventId::NONE`].
    fn pick_id(&self, arg: u64) -> EventId {
        match arg % 4 {
            0 | 1 if !self.m.pending.is_empty() => {
                self.m.pending[(arg / 4) as usize % self.m.pending.len()].3
            }
            2 if !self.dead.is_empty() => {
                let back = ((arg / 4) as usize % 4).min(self.dead.len() - 1);
                self.dead[self.dead.len() - 1 - back]
            }
            _ => EventId::NONE,
        }
    }

    /// Apply one operation, coded as `(op, arg)`, to the queue, the twin
    /// and the model, and compare every observable result.
    fn step(&mut self, op: u8, arg: u64) {
        let Harness { q, twin, m, dead, now } = self;
        match op {
            // schedule, biased so the queue tends to fill.
            0..=3 => {
                let time = *now + SimDuration::from_nanos(arg % 40);
                let id = q.schedule(time, m.next_seq);
                assert_eq!(twin.schedule(time, m.next_seq), id);
                m.schedule(time, m.next_seq, id);
            }
            // cancel a live id
            4 | 5 => {
                if !m.pending.is_empty() {
                    let id = m.pending[arg as usize % m.pending.len()].3;
                    assert!(m.cancel(id));
                    assert!(q.cancel(id), "live id must cancel");
                    assert!(twin.cancel(id));
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
                    assert!(!twin.cancel(id));
                }
            }
            7 => assert!(!q.cancel(EventId::NONE)),
            8 | 9 => {
                let want = m.pop();
                let got = q.pop().map(|e| (e.time, e.id, e.payload));
                assert_eq!(got, want, "pop");
                assert_eq!(twin.pop().map(|e| (e.time, e.id, e.payload)), want, "twin pop");
                if let Some((t, id, _)) = got {
                    *now = t;
                    dead.push(id);
                }
            }
            10 => assert_eq!(q.peek_time(), m.pending.first().map(|e| e.0)),
            11 => {
                if arg.is_multiple_of(8) {
                    q.clear();
                    twin.clear();
                    dead.extend(m.pending.drain(..).map(|e| e.3));
                }
            }
            // re-arm a live, dead, stale or NONE id: the model and the
            // twin do cancel + schedule of the same payload.
            12 | 13 => {
                let id = self.pick_id(arg);
                let Harness { q, twin, m, dead, now } = self;
                let time = *now + SimDuration::from_nanos((arg / 16) % 40);
                let payload = m.pending.iter().find(|e| e.3 == id).map(|e| e.2);
                let got = q.reschedule(id, time);
                let want = twin.cancel(id).then(|| twin.schedule(time, payload.unwrap()));
                assert_eq!(got, want, "reschedule of {id:?} vs cancel + schedule");
                match payload {
                    Some(p) => {
                        assert!(m.cancel(id));
                        m.schedule(time, p, got.expect("live id re-arms"));
                        dead.push(id);
                    }
                    None => assert_eq!(got, None, "dead id {id:?} must not re-arm"),
                }
            }
            _ => {
                assert_eq!(snapshot_bytes(q), snapshot_bytes(twin), "twin image");
                *q = snapshot_restore(q);
            }
        }
        assert_eq!(self.q.len(), self.m.pending.len(), "len after op {op}");
        assert_eq!(self.q.is_empty(), self.m.pending.is_empty());
    }

    /// Drain all three and check that every id ever issued is now dead.
    fn finish(mut self) {
        assert_eq!(snapshot_bytes(&self.q), snapshot_bytes(&self.twin), "twin image");
        while let Some(want) = self.m.pop() {
            assert_eq!(self.q.pop().map(|e| (e.time, e.id, e.payload)), Some(want));
            assert_eq!(self.twin.pop().map(|e| (e.time, e.id, e.payload)), Some(want));
        }
        assert!(self.q.pop().is_none());
        assert!(self.twin.pop().is_none());
        for id in self.dead {
            assert!(!self.q.cancel(id), "every id ever issued is now dead");
        }
    }
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
    /// and `reschedule` results, `peek_time` and `len` over any
    /// interleaving of schedule, cancel and re-arm (live, dead, stale,
    /// `NONE`), pop, peek, clear and a snapshot/restore round trip; a twin
    /// queue doing every re-arm as cancel + schedule returns the same ids,
    /// pops the same events and snapshots to the same bytes.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..15, 0u64..1_000), 1..600),
    ) {
        let mut h = Harness::default();
        for (op, arg) in ops {
            h.step(op, arg);
        }
        h.finish();
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
/// slots are recycled or re-armed, so no dead id ever cancels a later event.
#[test]
fn long_history_never_aliases_stale_ids() {
    let mut h = Harness::default();
    let mut rng = SimRng::seed_from_u64(2008);
    for i in 0..200_000u64 {
        let op = rng.range_u64(0, 15) as u8;
        // Snapshot only now and then: it copies the whole queue.
        let op = if op == 14 && !i.is_multiple_of(64) { 8 } else { op };
        h.step(op, rng.range_u64(0, 1_000));
        if h.dead.len() > 4096 {
            h.dead.drain(..2048);
        }
    }
    h.finish();
}
