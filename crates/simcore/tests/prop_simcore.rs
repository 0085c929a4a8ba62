//! Property tests for the discrete-event core.

use proptest::prelude::*;
use simcore::{EventQueue, EventQueueCounters, SimDuration, SimRng, SimTime};

/// Timer lanes of the queue under test; lane `i` fires with payload
/// `LANE_PAYLOAD + i`.
const LANES: usize = 4;
/// Lanes `0..PERIODIC` are the ones [`EventQueue::replay_rounds`] replays
/// as periodic; the rest are its re-armed lanes.
const PERIODIC: usize = 2;
const LANE_PAYLOAD: u64 = 1 << 40;
/// Number of operation codes [`Harness::step`] knows.
const OPS: u8 = 15;

/// One pending event of the [`Model`].
#[derive(Clone, Copy, Debug)]
struct Pending {
    time: SimTime,
    seq: u64,
    payload: u64,
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
    pops: u64,
}

impl Model {
    fn insert(&mut self, time: SimTime, payload: u64, lane: Option<usize>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        let at = self.pending.partition_point(|e| (e.time, e.seq) < (time, seq));
        self.pending.insert(at, Pending { time, seq, payload, lane });
    }

    fn disarm(&mut self, lane: usize) -> bool {
        let pending = self.pending.len();
        self.pending.retain(|e| e.lane != Some(lane));
        let armed = self.pending.len() < pending;
        self.cancelled += u64::from(armed);
        armed
    }

    /// Arming is a disarm (counted as a cancel when armed) and a schedule.
    fn arm(&mut self, lane: usize, time: SimTime) {
        self.disarm(lane);
        self.insert(time, LANE_PAYLOAD + lane as u64, Some(lane));
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

/// The queue under test, with [`LANES`] timer lanes and counters attached,
/// and the reference model.
struct Harness {
    q: EventQueue<u64>,
    m: Model,
    registry: telemetry::MetricsRegistry,
    now: SimTime,
}

impl Default for Harness {
    fn default() -> Self {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = EventQueue::with_lanes((0..LANES as u64).map(|i| LANE_PAYLOAD + i).collect());
        q.attach_counters(registry.register(|r| EventQueueCounters::register(r, "q")));
        Harness { q, m: Model::default(), registry, now: SimTime::ZERO }
    }
}

impl Harness {
    /// Arm `lane` at `time` in the queue and the model.
    fn arm(&mut self, lane: usize, time: SimTime) {
        self.q.arm(lane, time);
        self.m.arm(lane, time);
    }

    /// Replay `rounds` rounds of the periodic lanes at `period` in the
    /// queue, and the same rounds as literal pops and re-arms in the
    /// model, when the periodic lanes are armed at one instant in order
    /// and nothing else would pop before the last round ends. The
    /// re-armed lanes end at `end`, past the last round.
    fn replay(&mut self, rounds: u64, period: SimDuration, spread: u64) {
        let keys: Vec<_> = (0..PERIODIC)
            .filter_map(|lane| self.m.pending.iter().find(|e| e.lane == Some(lane)))
            .map(|e| (e.time, e.seq))
            .collect();
        let Some(&(t, _)) = keys.first() else { return };
        let last = t + period * (rounds - 1);
        let in_order =
            keys.len() == PERIODIC && keys.windows(2).all(|w| w[0].0 == w[1].0 && w[0].1 < w[1].1);
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
        for _ in 0..rounds {
            for _ in 0..PERIODIC {
                // INVARIANT: checked above, the periodic lanes pop first.
                let ev = self.m.pop().expect("a periodic lane pops");
                self.now = ev.time;
                self.m.arm(ev.lane.expect("a periodic lane pops"), ev.time + period);
                for &r in &armed {
                    self.m.arm(r, end(r));
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
            // schedule; as likely as a pop, so the queue neither drains
            // nor grows without bound.
            0..=3 => {
                let time = self.now + SimDuration::from_nanos(arg % 40);
                self.q.schedule(time, self.m.next_seq);
                self.m.insert(time, self.m.next_seq, None);
            }
            4..=7 => {
                let got = self.q.pop().map(|e| (e.time, e.payload));
                assert_eq!(got, self.m.pop().map(|e| (e.time, e.payload)), "pop");
                if let Some((time, _)) = got {
                    self.now = time;
                }
            }
            8 => {
                assert_eq!(self.q.peek_time(), self.m.pending.first().map(|e| e.time));
                let heap = self.m.pending.iter().find(|e| e.lane.is_none()).map(|e| e.time);
                assert_eq!(self.q.peek_heap_time(), heap);
            }
            // arm or re-arm a lane
            9 | 10 => self.arm(lane, later(self.now)),
            11 => assert_eq!(self.q.disarm(lane), self.m.disarm(lane), "disarm lane {lane}"),
            // arm the periodic lanes at one instant, in order
            12 => {
                let time = later(self.now);
                for lane in 0..PERIODIC {
                    self.arm(lane, time);
                }
            }
            13 => {
                let rounds = 1 + arg % 5;
                let period = SimDuration::from_nanos(1 + (arg / 8) % 10);
                self.replay(rounds, period, arg / 128);
            }
            _ => {
                for lane in 0..LANES {
                    assert_eq!(self.q.lane_time(lane), self.m.lane_time(lane), "lane {lane}");
                }
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

    /// Drain both and check they agree to the end.
    fn finish(mut self) {
        while !self.m.pending.is_empty() {
            self.step(4, 0);
        }
        assert!(self.q.pop().is_none());
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

    /// The queue and the sorted-`Vec` model agree on pop order, `disarm`
    /// and lane-time results, `peek_time`, `peek_heap_time`, `len`, pops
    /// and the three counters over any interleaving of heap schedule, lane
    /// arm, re-arm and disarm, pop, peek, and a lane replay (literal pops
    /// and re-arms in the model).
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

/// A long history of seeded operations: queue and model still agree after
/// 200k steps of schedules, pops, re-arms and replays.
#[test]
fn long_history_matches_the_model() {
    let mut h = Harness::default();
    let mut rng = SimRng::seed_from_u64(2008);
    for _ in 0..200_000u64 {
        let op = rng.range_u64(0, u64::from(OPS)) as u8;
        h.step(op, rng.range_u64(0, 1_000));
    }
    h.finish();
}
