//! Deterministic event queue.
//!
//! A discrete-event-simulation future-event list ordered by `(time, seq)`.
//! It keeps its events in two places: a binary min-heap
//! ([`std::collections::BinaryHeap`]) for events scheduled one by one, and
//! a fixed set of **timer lanes**, each an optional `(time, seq)` slot
//! outside the heap for a periodic or re-armed timer whose payload never
//! changes. Three properties matter for this workspace:
//!
//! 1. **Determinism** — every scheduled or armed event gets the next value
//!    of one `u64` sequence counter, and events pop in `(time, seq)` order:
//!    the earliest time first, FIFO among equal times. `seq` is unique, so
//!    that order is total and pop order is a function of it alone, never
//!    of heap internals or of where an event is kept. [`EventQueue::pop`]
//!    takes the lesser of the heap top and the earliest armed lane.
//! 2. **O(1) re-arm, no cancel** — a heap event, once scheduled, fires.
//!    The only events that are ever moved or withdrawn are timers, and
//!    timers live in lanes: [`EventQueue::arm`] stores a lane's new
//!    `(time, seq)` with exactly the effect of withdrawing its pending
//!    event and scheduling the payload anew, so the kernel's re-arm of
//!    per-CPU completion timers after every event is a store, not a heap
//!    operation. [`EventQueue::replay_rounds`] writes the outcome of many
//!    rounds of periodic lane pops and re-arms at once, as the literal
//!    operations would leave it, without touching the heap.
//! 3. **Memory O(live events)** — the heap holds exactly the pending
//!    events scheduled into it; nothing about fired events is retained.

use crate::time::{SimDuration, SimTime};
use std::cell::Cell;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::ops::Range;

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub payload: E,
}

/// The `(time, seq)` ordering key of a pending event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
}

/// The key of a disarmed lane: after every armed key, since no event is
/// ever given the last `seq`.
const IDLE: Key = Key { time: SimTime::MAX, seq: u64::MAX };

/// One heap event, ordered by its key alone (`seq` is unique, so no two
/// entries compare equal).
struct Entry<E> {
    key: Key,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// Telemetry handles for one event queue: `<prefix>.scheduled`,
/// `.cancelled` and `.processed`, as one block. Operations count into
/// plain tallies; [`EventQueue::publish`] adds them to these counters.
#[derive(Clone)]
pub struct EventQueueCounters {
    /// Indexed by [`QueueCount`].
    counters: telemetry::Counters,
}

/// The counters of an [`EventQueueCounters`] block, in registration order.
#[derive(Clone, Copy)]
enum QueueCount {
    Scheduled,
    Cancelled,
    Processed,
}

impl EventQueueCounters {
    /// Registers the three queue counters under `prefix` (e.g.
    /// `sim.events`), as part of a component's registration.
    pub fn register(r: &mut telemetry::Registrar<'_>, prefix: &str) -> Self {
        EventQueueCounters {
            counters: r.counters([
                (prefix, ".scheduled"),
                (prefix, ".cancelled"),
                (prefix, ".processed"),
            ]),
        }
    }
}

/// Future-event list: a binary min-heap beside a fixed set of timer lanes.
pub struct EventQueue<E> {
    /// Pending events scheduled one by one, a min-heap on `(time, seq)`.
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The pending event of each timer lane, [`IDLE`] while disarmed.
    lanes: Vec<Key>,
    /// The payload each lane fires with, fixed at construction.
    lane_payloads: Vec<E>,
    /// Number of armed lanes.
    armed: usize,
    next_seq: u64,
    last_popped: SimTime,
    /// Operations since the last [`EventQueue::publish`].
    tally: Tally,
    /// Events taken by [`EventQueue::pop`] (see [`EventQueue::pops`]).
    pops: u64,
}

/// Per-operation counts not yet published, in plain cells so that an
/// owner can publish them through a shared reference.
#[derive(Default)]
struct Tally {
    scheduled: Cell<u64>,
    cancelled: Cell<u64>,
    processed: Cell<u64>,
}

/// Add `n` to the count in `cell`.
fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// A queue without timer lanes.
    pub fn new() -> Self {
        Self::with_lanes(Vec::new())
    }

    /// A queue with one timer lane per entry of `payloads`, numbered in
    /// order from 0, all disarmed. Lane `i` fires with `payloads[i]`.
    pub fn with_lanes(payloads: Vec<E>) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: vec![IDLE; payloads.len()],
            lane_payloads: payloads,
            armed: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            tally: Tally::default(),
            pops: 0,
        }
    }

    /// Add the operations counted since the last publish to `counters`.
    /// Operations bump plain tallies, not the shared atomic counters, so
    /// a reader sees them only after this call; an owner that exposes the
    /// counters publishes before handing control back. An owner that
    /// registers the counters only once someone reads them publishes
    /// everything counted until then with its first call.
    pub fn publish(&self, counters: &EventQueueCounters) {
        let t = &self.tally;
        for (count, tally) in [
            (QueueCount::Scheduled, &t.scheduled),
            (QueueCount::Cancelled, &t.cancelled),
            (QueueCount::Processed, &t.processed),
        ] {
            let n = tally.take();
            if n > 0 {
                counters.counters.add(count as usize, n);
            }
        }
    }

    /// Number of pending events, armed lanes included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next `seq`; checks, in debug builds, that `time` is not before
    /// the last popped event: scheduling into the past is always a
    /// simulation bug.
    fn take_seq(&mut self, time: SimTime) -> u64 {
        debug_assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        bump(&self.tally.scheduled, 1);
        seq
    }

    /// Schedule `payload` to fire at absolute time `time`. It will fire:
    /// a heap event cannot be withdrawn.
    ///
    /// # Panics
    /// In debug builds, if `time` is before the last popped event.
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let seq = self.take_seq(time);
        self.heap.push(Reverse(Entry { key: Key { time, seq }, payload }));
    }

    /// Arm timer lane `lane` to fire at `time`, exactly as withdrawing its
    /// pending event (if any) and scheduling its payload would: the event
    /// takes the next `seq` and counts as one schedule, plus one cancel
    /// when the lane was armed.
    ///
    /// # Panics
    /// If `lane` is not a lane of this queue; in debug builds, as
    /// `schedule` does for a time before the last popped event.
    pub fn arm(&mut self, lane: usize, time: SimTime) {
        let seq = self.take_seq(time);
        let key = &mut self.lanes[lane];
        if *key == IDLE {
            self.armed += 1;
        } else {
            bump(&self.tally.cancelled, 1);
        }
        *key = Key { time, seq };
    }

    /// Disarm timer lane `lane`. Returns `true`, and counts a cancel, if
    /// the lane was armed; a disarmed lane is left as it is.
    pub fn disarm(&mut self, lane: usize) -> bool {
        let key = &mut self.lanes[lane];
        if *key == IDLE {
            return false;
        }
        *key = IDLE;
        self.armed -= 1;
        bump(&self.tally.cancelled, 1);
        true
    }

    /// Time at which timer lane `lane` fires, or `None` while disarmed.
    #[inline]
    pub fn lane_time(&self, lane: usize) -> Option<SimTime> {
        let key = self.lanes[lane];
        (key != IDLE).then_some(key.time)
    }

    /// Replays `rounds` rounds of a fixed firing pattern over the lanes in
    /// one pass and leaves the queue exactly as the literal operations
    /// would: the same times, `seq`s, `last_popped` and counts, with no
    /// work per round and no heap entry touched.
    ///
    /// The lanes of `periodic` must all be armed at one instant `t`, in
    /// `seq` order. Round `r` (from 0) runs at `t + r × period`: each lane
    /// of `periodic`, in order, pops and is armed again one `period`
    /// later, and after each such pop every armed lane of `rearmed` is
    /// armed again, in order; a disarmed one is left alone, as the re-arm
    /// of a timer that is not pending would leave it. Only the last
    /// round's times survive: `end(lane)` gives the time each armed lane
    /// of `rearmed` ends at. The caller guarantees that no other event
    /// would pop before the last round ends.
    pub fn replay_rounds(
        &mut self,
        rounds: u64,
        period: SimDuration,
        periodic: Range<usize>,
        rearmed: Range<usize>,
        mut end: impl FnMut(usize) -> SimTime,
    ) {
        if rounds == 0 || periodic.is_empty() {
            return;
        }
        let width = periodic.len() as u64;
        let armed = self.lanes[rearmed.clone()].iter().filter(|&&k| k != IDLE).count() as u64;
        let pops = rounds * width;
        // Each pop arms its successor, then re-arms every armed lane.
        let per_pop = 1 + armed;
        let mut seq = self.next_seq + (pops - width) * per_pop;
        let first = self.lanes[periodic.start];
        for lane in periodic {
            let key = &mut self.lanes[lane];
            debug_assert!(
                key.time == first.time && key.seq >= first.seq && *key != IDLE,
                "periodic lane {lane} is not armed at one instant in order"
            );
            let fired_at = key.time + period * (rounds - 1);
            self.last_popped = self.last_popped.max(fired_at);
            *key = Key { time: fired_at + period, seq };
            seq += per_pop;
        }
        // The re-arms after the last pop take the newest `seq`s.
        seq -= armed;
        for lane in rearmed {
            if self.lanes[lane] != IDLE {
                let time = end(lane);
                debug_assert!(time >= self.last_popped, "lane {lane} re-armed into the past");
                self.lanes[lane] = Key { time, seq };
                seq += 1;
            }
        }
        self.next_seq += pops * per_pop;
        bump(&self.tally.processed, pops);
        bump(&self.tally.scheduled, pops * per_pop);
        bump(&self.tally.cancelled, pops * armed);
    }

    /// The armed lane that fires first, with its key.
    #[inline]
    fn first_lane(&self) -> Option<(usize, Key)> {
        let mut first = None;
        let mut best = IDLE;
        for (lane, &key) in self.lanes.iter().enumerate() {
            if key < best {
                best = key;
                first = Some(lane);
            }
        }
        first.map(|lane| (lane, best))
    }

    /// Key of the earliest heap event.
    #[inline]
    fn heap_key(&self) -> Option<Key> {
        self.heap.peek().map(|Reverse(e)| e.key)
    }

    /// Events this queue has taken with [`EventQueue::pop`], off the heap
    /// or a lane: the cost proxy of a run, where the `processed` counter is
    /// its logical event count, which also counts the pops
    /// [`EventQueue::replay_rounds`] replays. A plain count, never
    /// published.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.peek_heap_time();
        match self.first_lane() {
            Some((_, key)) => Some(heap.map_or(key.time, |t| t.min(key.time))),
            None => heap,
        }
    }

    /// Timestamp of the next pending event outside the lanes, if any.
    pub fn peek_heap_time(&self) -> Option<SimTime> {
        self.heap_key().map(|k| k.time)
    }
}

impl<E: Clone> EventQueue<E> {
    /// Pop the next pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let lane = self.first_lane().filter(|&(_, key)| self.heap_key().is_none_or(|h| key < h));
        let (time, payload) = match lane {
            Some((lane, key)) => {
                self.lanes[lane] = IDLE;
                self.armed -= 1;
                (key.time, self.lane_payloads[lane].clone())
            }
            None => {
                let Reverse(entry) = self.heap.pop()?;
                (entry.key.time, entry.payload)
            }
        };
        self.last_popped = time;
        bump(&self.tally.processed, 1);
        self.pops += 1;
        Some(ScheduledEvent { time, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn payloads<E: Clone>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect()
    }

    /// The scheduled, cancelled and processed counts published under `q`.
    fn counts(registry: &telemetry::MetricsRegistry, q: &str) -> [u64; 3] {
        let snap = registry.snapshot();
        ["scheduled", "cancelled", "processed"].map(|c| snap.counter(&format!("{q}.{c}")))
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(payloads(&mut q), ["a", "b", "c"]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        assert_eq!(payloads(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::with_lanes(vec![0]);
        assert!(q.is_empty());
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.arm(0, t(3));
        assert_eq!(q.len(), 3);
        q.arm(0, t(4));
        assert_eq!(q.len(), 3, "a re-arm replaces the lane's event");
        q.pop();
        assert!(q.disarm(0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_rearm_loop_keeps_backlog_bounded() {
        // The kernel's pattern: a tick (lanes 0–3) and a completion timer
        // (lanes 4–7) per CPU; every pop re-arms every completion timer.
        // Nothing reaches the heap and the backlog stays at eight timers.
        let mut q = laned(8);
        (0..8).for_each(|lane| q.arm(lane, t(1 + 250 * lane as u64)));
        for i in 0..10_000u64 {
            let ev = q.pop().unwrap();
            if ev.payload < 1004 {
                q.arm((ev.payload - 1000) as usize, ev.time + SimDuration::from_millis(1));
            }
            for c in 4..8u64 {
                q.arm(c as usize, ev.time + SimDuration::from_millis(5 + (i + c) % 7));
            }
            assert_eq!((q.len(), q.heap.len()), (8, 0));
        }
    }

    /// A queue with `n` lanes; lane `i` fires with payload `1000 + i`.
    fn laned(n: u64) -> EventQueue<u64> {
        EventQueue::with_lanes((0..n).map(|i| 1000 + i).collect())
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.time, e.payload))).collect()
    }

    #[test]
    fn rearming_a_lane_equals_cancel_then_schedule() {
        // Twins: a queue re-arms 20 lanes in place; a sorted list of
        // `(time, seq, payload)` withdraws each timer, counting a cancel,
        // and re-inserts it with the next `seq`.
        let registry = telemetry::MetricsRegistry::new();
        let mut a = laned(20);
        let ca = registry.register(|r| EventQueueCounters::register(r, "a"));
        let mut b: Vec<(SimTime, u64, u64)> = Vec::new();
        let mut cancels = 0;
        for seq in 0..220u64 {
            let (lane, at) = (seq * 7 % 20, t(100 + (seq * 13) % 90));
            a.arm(lane as usize, at);
            let pending = b.len();
            b.retain(|e| e.2 != 1000 + lane);
            cancels += (pending - b.len()) as u64;
            b.push((at, seq, 1000 + lane));
            b.sort();
            assert_eq!(a.lane_time(lane as usize), Some(at));
            assert_eq!((a.len(), a.peek_time()), (b.len(), b.first().map(|e| e.0)));
        }
        assert_eq!((a.peek_heap_time(), a.next_seq), (None, 220), "one seq per arm, no heap");
        let want: Vec<_> = b.iter().map(|&(time, _, payload)| (time, payload)).collect();
        assert_eq!(drain(&mut a), want);
        a.publish(&ca);
        assert_eq!(counts(&registry, "a"), [220, cancels, 20]);
    }

    #[test]
    fn lanes_and_heap_pop_in_one_seq_order() {
        let mut q = laned(2);
        q.schedule(t(5), 1);
        q.arm(0, t(5));
        q.schedule(t(5), 2);
        q.arm(1, t(3));
        assert_eq!(q.len(), 4);
        assert_eq!((q.peek_time(), q.peek_heap_time()), (Some(t(3)), Some(t(5))));
        assert_eq!(payloads(&mut q), [1001, 1, 1000, 2]);
        assert_eq!((q.lane_time(0), q.lane_time(1)), (None, None), "a popped lane is idle");
    }

    #[test]
    fn replay_rounds_equals_literal_rounds() {
        let period = SimDuration::from_millis(1);
        for (n, rounds) in [(1u64, 1u64), (1, 7), (4, 1), (4, 63), (3, 5)] {
            let registry = telemetry::MetricsRegistry::new();
            // Lanes 0..n are periodic, lanes n..2n re-armed timers, armed
            // for every periodic lane but the last.
            let mut a = laned(2 * n);
            let mut b = laned(2 * n);
            let ca = registry.register(|r| EventQueueCounters::register(r, "a"));
            let cb = registry.register(|r| EventQueueCounters::register(r, "b"));
            // A far heap event, then the lanes.
            for q in [&mut a, &mut b] {
                q.schedule(t(500), 99);
                for i in 0..n {
                    q.arm(i as usize, t(1));
                }
                for i in 0..n - 1 {
                    q.arm((n + i) as usize, t(400 + i));
                }
            }
            let end = |lane: usize| t(300 + 2 * (lane as u64 - n));
            for r in 0..rounds {
                for _ in 0..n {
                    // INVARIANT: the periodic lanes are the earliest
                    // pending, and each pop arms its successor.
                    let ev = b.pop().expect("periodic lane pops");
                    assert_eq!(ev.time, t(1 + r));
                    b.arm((ev.payload - 1000) as usize, ev.time + period);
                    for lane in n..2 * n - 1 {
                        // Intermediate re-arm times do not survive.
                        let lane = lane as usize;
                        let at = if r + 1 == rounds { end(lane) } else { t(200 + r) };
                        b.arm(lane, at);
                    }
                }
            }
            let (n_, all) = (n as usize, 2 * n as usize);
            a.replay_rounds(rounds, period, 0..n_, n_..all, end);
            assert_eq!(a.heap.len(), 1, "no heap entry moves");
            assert_eq!(a.lanes, b.lanes, "n {n}, rounds {rounds}");
            assert_eq!((a.next_seq, a.last_popped), (b.next_seq, b.last_popped));
            assert_eq!(a.lane_time(all - 1), None, "an idle lane stays idle");
            a.publish(&ca);
            b.publish(&cb);
            assert_eq!(counts(&registry, "a"), counts(&registry, "b"));
            // Replayed pops are processed events but are never popped.
            assert_eq!((a.pops(), b.pops()), (0, rounds * n), "pops");
            assert_eq!(drain(&mut a), drain(&mut b));
        }
    }

    #[test]
    fn peek_heap_time_skips_the_lanes() {
        let mut q = laned(3);
        assert_eq!((q.peek_time(), q.peek_heap_time()), (None, None));
        for i in 0..40u64 {
            q.schedule(t(10 + (i * 17) % 40), i);
        }
        assert_eq!((q.peek_time(), q.peek_heap_time()), (Some(t(10)), Some(t(10))));
        q.arm(2, t(4));
        q.arm(0, t(7));
        assert_eq!(q.peek_time(), Some(t(4)), "the earliest lane");
        assert_eq!(q.peek_heap_time(), Some(t(10)), "lanes are not in the heap");
        assert_eq!([0, 1, 2].map(|lane| q.lane_time(lane)), [Some(t(7)), None, Some(t(4))]);
        assert_eq!(q.pop().map(|e| e.payload), Some(1002));
        assert_eq!(q.lane_time(2), None, "fired");
        assert!(q.disarm(0));
        assert_eq!(q.peek_time(), q.peek_heap_time());
    }

    #[test]
    fn disarming_an_idle_lane_touches_nothing() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = laned(2);
        let cq = registry.register(|r| EventQueueCounters::register(r, "q"));
        q.arm(0, t(5));
        q.arm(1, t(10));
        assert!(q.disarm(1));
        assert_eq!(q.pop().unwrap().payload, 1000);
        let before = (q.next_seq, q.lanes.clone(), q.armed);
        for lane in [0, 1] {
            assert!(!q.disarm(lane), "lane {lane} is idle");
        }
        assert_eq!((q.next_seq, q.lanes.clone(), q.armed), before, "nothing consumed or moved");
        q.publish(&cq);
        assert_eq!(counts(&registry, "q"), [2, 1, 1]);
        assert!(q.is_empty());
    }

    #[test]
    fn counts_reach_counters_only_on_publish() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = laned(1);
        q.schedule(t(1), 0u64);
        let cq = registry.register(|r| EventQueueCounters::register(r, "q"));
        q.schedule(t(2), 1);
        q.arm(0, t(3));
        q.arm(0, t(4));
        q.disarm(0);
        q.pop();
        assert_eq!(counts(&registry, "q"), [0, 0, 0], "not yet published");
        q.publish(&cq);
        // Counts run from the queue's construction, not from the
        // counters' registration; a re-arm and a disarm each count a
        // cancel.
        assert_eq!(counts(&registry, "q"), [4, 2, 1]);
        q.publish(&cq);
        assert_eq!(counts(&registry, "q"), [4, 2, 1], "publishing twice adds nothing");
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    #[cfg(debug_assertions)]
    fn scheduling_into_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "a");
        q.pop();
        q.schedule(t(5), "late");
    }
}
