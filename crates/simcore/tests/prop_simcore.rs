//! Property tests for the discrete-event core.

use proptest::prelude::*;
use simcore::{
    EventId, EventQueue, EventQueueCounters, SimDuration, SimRng, SimTime, SnapshotReader,
    SnapshotWriter,
};

/// Timer lanes of the queue under test; lane `i` fires with payload
/// `LANE_PAYLOAD + i`.
const LANES: usize = 4;
/// Lanes `0..PERIODIC` are the ones [`EventQueue::replay_rounds`] replays
/// as periodic; the rest are its re-armed lanes.
const PERIODIC: usize = 2;
const LANE_PAYLOAD: u64 = 1 << 40;
/// Number of operation codes [`Harness::step`] knows; the last one is the
/// snapshot/restore round trip.
const OPS: u8 = 19;

fn lane_payloads() -> Vec<u64> {
    (0..LANES as u64).map(|i| LANE_PAYLOAD + i).collect()
}

/// One pending event of the [`Model`].
#[derive(Clone, Copy, Debug)]
struct Pending {
    time: SimTime,
    seq: u64,
    payload: u64,
    id: EventId,
    /// The timer lane holding it, `None` for a heap event.
    lane: Option<usize>,
}

/// Reference model of [`EventQueue`]: a plain `Vec` of pending events kept
/// sorted by `(time, seq)`, with `seq` and the three counters counted
/// exactly as the queue counts them, lane events included. Every operation
/// is a linear scan; nothing about it is clever.
#[derive(Default)]
struct Model {
    pending: Vec<Pending>,
    next_seq: u64,
    scheduled: u64,
    cancelled: u64,
    processed: u64,
    /// Pops since the queue was last restored.
    pops: u64,
}

impl Model {
    fn insert(&mut self, time: SimTime, payload: u64, id: EventId, lane: Option<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let at = self.pending.partition_point(|e| (e.time, e.seq) < (time, seq));
        self.pending.insert(at, Pending { time, seq, payload, id, lane });
    }

    fn schedule(&mut self, time: SimTime, payload: u64, id: EventId) {
        self.insert(time, payload, id, None);
    }

    /// Cancel a heap event; a lane's event is not cancelled by id.
    fn cancel(&mut self, id: EventId) -> bool {
        match self.pending.iter().position(|e| e.id == id && e.lane.is_none()) {
            Some(i) => {
                self.pending.remove(i);
                self.cancelled += 1;
                true
            }
            None => false,
        }
    }

    fn disarm(&mut self, lane: usize) -> bool {
        match self.pending.iter().position(|e| e.lane == Some(lane)) {
            Some(i) => {
                self.pending.remove(i);
                self.cancelled += 1;
                true
            }
            None => false,
        }
    }

    /// Arming is a disarm (counted as a cancel when armed) and a schedule.
    fn arm(&mut self, lane: usize, time: SimTime, id: EventId) {
        self.disarm(lane);
        self.insert(time, LANE_PAYLOAD + lane as u64, id, Some(lane));
    }

    fn lane_time(&self, lane: usize) -> Option<SimTime> {
        self.pending.iter().find(|e| e.lane == Some(lane)).map(|e| e.time)
    }

    fn pop(&mut self) -> Option<Pending> {
        (!self.pending.is_empty()).then(|| {
            self.processed += 1;
            self.pops += 1;
            self.pending.remove(0)
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
    let back = EventQueue::restore_with_lanes(&mut r, lane_payloads()).expect("own image restores");
    r.finish().expect("image consumed exactly");
    assert_eq!(snapshot_bytes(&back), bytes, "snapshot∘restore is the identity on bytes");
    back
}

/// The queue under test, with [`LANES`] timer lanes and counters attached,
/// and the reference model.
struct Harness {
    q: EventQueue<u64>,
    m: Model,
    registry: telemetry::MetricsRegistry,
    counters: EventQueueCounters,
    /// Ids that were cancelled, re-armed, fired or cleared; with slots
    /// reused last-freed first, the newest of them usually name a slot a
    /// later event now occupies.
    dead: Vec<EventId>,
    now: SimTime,
}

impl Default for Harness {
    fn default() -> Self {
        let registry = telemetry::MetricsRegistry::new();
        let counters = EventQueueCounters::register(&registry, "q");
        let mut q = EventQueue::with_lanes(lane_payloads());
        q.attach_counters(counters.clone());
        Harness { q, m: Model::default(), registry, counters, dead: Vec::new(), now: SimTime::ZERO }
    }
}

impl Harness {
    /// An id of the kind `arg` selects: live (a heap or a lane event),
    /// dead (cancelled, fired, cleared or stale), or [`EventId::NONE`].
    fn pick_id(&self, arg: u64) -> EventId {
        match arg % 4 {
            0 | 1 if !self.m.pending.is_empty() => {
                self.m.pending[(arg / 4) as usize % self.m.pending.len()].id
            }
            2 if !self.dead.is_empty() => {
                let back = ((arg / 4) as usize % 4).min(self.dead.len() - 1);
                self.dead[self.dead.len() - 1 - back]
            }
            _ => EventId::NONE,
        }
    }

    /// Arm `lane` at `time` in the queue and the model.
    fn arm(&mut self, lane: usize, time: SimTime) {
        if let Some(old) = self.m.pending.iter().find(|e| e.lane == Some(lane)) {
            self.dead.push(old.id);
        }
        let id = self.q.arm(lane, time);
        self.m.arm(lane, time, id);
    }

    /// Replay `rounds` rounds of the periodic lanes at `period` in the
    /// queue, and the same rounds as literal pops and re-arms in the
    /// model, when the periodic lanes are armed at one instant in order
    /// and nothing else would pop before the last round ends. The
    /// re-armed lanes end at `end`, past the last round.
    fn replay(&mut self, rounds: u64, period: SimDuration, spread: u64) {
        let times: Vec<_> = (0..PERIODIC).map(|lane| self.m.lane_time(lane)).collect();
        let Some(t) = times[0] else { return };
        let seqs: Vec<u64> = (0..PERIODIC)
            .filter_map(|lane| self.m.pending.iter().find(|e| e.lane == Some(lane)).map(|e| e.seq))
            .collect();
        let last = t + period * (rounds - 1);
        let in_order = times.iter().all(|&x| x == Some(t)) && seqs.windows(2).all(|w| w[0] < w[1]);
        let others_later = self.m.pending.iter().all(|e| match e.lane {
            Some(lane) if lane < PERIODIC => true,
            Some(_) => e.time > t,
            None => e.time > last,
        });
        if !(in_order && others_later) {
            return;
        }
        let end = |lane: usize| last + SimDuration::from_nanos(1 + (lane as u64 * 3 + spread) % 7);
        self.q.replay_rounds(rounds, period, 0..PERIODIC, PERIODIC..LANES, end);
        let armed: Vec<usize> =
            (PERIODIC..LANES).filter(|&lane| self.m.lane_time(lane).is_some()).collect();
        // The replay hands out no ids, so the model keeps `NONE` for the
        // events it arms; they are checked by pop order, time and payload.
        for _ in 0..rounds {
            for _ in 0..PERIODIC {
                // INVARIANT: checked above, the periodic lanes pop first.
                let ev = self.m.pop().expect("a periodic lane pops");
                let lane = ev.lane.expect("a periodic lane pops");
                self.dead.push(ev.id);
                self.now = ev.time;
                let payload = LANE_PAYLOAD + lane as u64;
                self.m.insert(ev.time + period, payload, EventId::NONE, Some(lane));
                for &r in &armed {
                    self.m.disarm(r);
                    self.m.insert(end(r), LANE_PAYLOAD + r as u64, EventId::NONE, Some(r));
                }
            }
        }
        // Replayed pops are processed, not popped.
        self.m.pops -= rounds * PERIODIC as u64;
    }

    /// Apply one operation, coded as `(op, arg)`, to the queue and the
    /// model, and compare every observable result.
    fn step(&mut self, op: u8, arg: u64) {
        let lane = (arg / 16) as usize % LANES;
        let later = |now: SimTime| now + SimDuration::from_nanos((arg / 64) % 40);
        match op {
            // schedule, biased so the queue tends to fill.
            0..=3 => {
                let time = self.now + SimDuration::from_nanos(arg % 40);
                let id = self.q.schedule(time, self.m.next_seq);
                self.m.schedule(time, self.m.next_seq, id);
            }
            // cancel a live heap id
            4 | 5 => {
                let heap: Vec<EventId> =
                    self.m.pending.iter().filter(|e| e.lane.is_none()).map(|e| e.id).collect();
                if !heap.is_empty() {
                    let id = heap[arg as usize % heap.len()];
                    assert!(self.m.cancel(id));
                    assert!(self.q.cancel(id), "live id must cancel");
                    self.dead.push(id);
                }
            }
            // cancel a dead id (already cancelled, fired, cleared, or
            // stale with its slot reused; the newest are the likeliest
            // reuses), a live lane event's id, or NONE.
            6 | 7 => {
                let id = self.pick_id(arg);
                let want = self.m.cancel(id);
                assert_eq!(self.q.cancel(id), want, "cancel of {id:?}");
                if want {
                    self.dead.push(id);
                }
            }
            8 | 9 => {
                let want = self.m.pop();
                let got = self.q.pop();
                match (got, want) {
                    (Some(got), Some(want)) => {
                        assert_eq!((got.time, got.payload), (want.time, want.payload), "pop");
                        if want.id != EventId::NONE {
                            assert_eq!(got.id, want.id, "pop id");
                        }
                        self.now = got.time;
                        self.dead.push(got.id);
                    }
                    (got, want) => assert!(got.is_none() && want.is_none(), "pop"),
                }
            }
            10 => {
                assert_eq!(self.q.peek_time(), self.m.pending.first().map(|e| e.time));
                let heap = self.m.pending.iter().find(|e| e.lane.is_none()).map(|e| e.time);
                assert_eq!(self.q.peek_heap_time(), heap);
            }
            11 => {
                if arg.is_multiple_of(8) {
                    self.q.clear();
                    self.dead.extend(self.m.pending.drain(..).map(|e| e.id));
                }
            }
            // arm or re-arm a lane
            12 | 13 => self.arm(lane, later(self.now)),
            14 => {
                if let Some(old) = self.m.pending.iter().find(|e| e.lane == Some(lane)) {
                    self.dead.push(old.id);
                }
                assert_eq!(self.q.disarm(lane), self.m.disarm(lane), "disarm lane {lane}");
            }
            // arm the periodic lanes at one instant, in order
            15 => {
                let time = later(self.now);
                for lane in 0..PERIODIC {
                    self.arm(lane, time);
                }
            }
            16 => {
                let rounds = 1 + arg % 5;
                let period = SimDuration::from_nanos(1 + (arg / 8) % 10);
                self.replay(rounds, period, arg / 128);
            }
            17 => {
                for lane in 0..LANES {
                    assert_eq!(self.q.lane_time(lane), self.m.lane_time(lane), "lane {lane}");
                }
            }
            _ => {
                self.q.publish();
                self.q = snapshot_restore(&self.q);
                self.q.attach_counters(self.counters.clone());
                self.m.pops = 0;
            }
        }
        assert_eq!(self.q.len(), self.m.pending.len(), "len after op {op}");
        assert_eq!(self.q.is_empty(), self.m.pending.is_empty());
        assert_eq!(self.q.pops(), self.m.pops, "pops after op {op}");
        self.q.publish();
        let snap = self.registry.snapshot();
        let counts =
            ["scheduled", "cancelled", "processed"].map(|c| snap.counter(&format!("q.{c}")));
        assert_eq!(counts, [self.m.scheduled, self.m.cancelled, self.m.processed], "op {op}");
    }

    /// Drain both and check that every id ever issued is now dead.
    fn finish(mut self) {
        while let Some(want) = self.m.pop() {
            let got = self.q.pop().expect("the queue holds what the model holds");
            assert_eq!((got.time, got.payload), (want.time, want.payload));
        }
        assert!(self.q.pop().is_none());
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

    /// The queue and the sorted-`Vec` model agree on pop order, `cancel`,
    /// `disarm` and lane-time results, `peek_time`, `len`, pops and the
    /// three counters over any interleaving of heap schedule and cancel
    /// (live, dead, stale, a lane event's id, `NONE`), lane arm, re-arm and
    /// disarm, pop, peek, clear, a lane replay (literal pops and re-arms in
    /// the model) and a snapshot/restore round trip.
    #[test]
    fn queue_matches_reference_model(
        ops in proptest::collection::vec((0u8..OPS, 0u64..1_000), 1..600),
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
        let op = rng.range_u64(0, u64::from(OPS)) as u8;
        // Snapshot only now and then: it copies the whole queue.
        let op = if op == OPS - 1 && !i.is_multiple_of(64) { 8 } else { op };
        h.step(op, rng.range_u64(0, 1_000));
        if h.dead.len() > 4096 {
            h.dead.drain(..2048);
        }
    }
    h.finish();
}
