//! Deterministic, cancellable event queue.
//!
//! A discrete-event-simulation future-event list ordered by `(time, seq)`.
//! It keeps its events in two places: an **indexed binary min-heap** for
//! events scheduled one by one, and a fixed set of **timer lanes**, each an
//! optional `(time, seq)` slot outside the heap for a periodic or re-armed
//! timer whose payload never changes. Four properties matter for this
//! workspace:
//!
//! 1. **Determinism** — every scheduled or armed event gets the next value
//!    of one `u64` sequence counter, and events pop in `(time, seq)` order:
//!    the earliest time first, FIFO among equal times. `seq` is unique, so
//!    that order is total and pop order is a function of it alone, never
//!    of heap internals or of where an event is kept. [`EventQueue::pop`]
//!    takes the lesser of the heap top and the earliest armed lane.
//! 2. **O(log n) cancellation, O(1) re-arm** — each pending heap event
//!    occupies a slot in a slot table, and the slot records the event's
//!    current heap position. [`EventQueue::cancel`] removes the entry from
//!    the heap on the spot; there are no dead entries to skip at pop time
//!    and nothing to compact. [`EventQueue::arm`] stores a lane's new
//!    `(time, seq)` with exactly the effect of cancelling its pending event
//!    and scheduling the payload anew, so the kernel's re-arm of per-CPU
//!    completion timers after every event is a store, not a heap fix-up.
//!    [`EventQueue::replay_rounds`] writes the outcome of many rounds of
//!    periodic lane pops and re-arms at once, as the literal operations
//!    would leave it, without touching the heap.
//! 3. **Memory O(live events)** — the heap holds exactly the pending
//!    events scheduled into it, and freed slots are reused, so the slot
//!    table never grows past the peak number of simultaneously pending
//!    heap events. Nothing about fired or cancelled events is retained.
//! 4. **Stale ids are harmless** — an [`EventId`] names a slot *and* the
//!    unique `seq` of the event scheduled into it. `cancel` acts only if
//!    the slot is occupied by that very `seq`, so cancelling an id twice,
//!    after it fired, after [`EventQueue::clear`], or after its slot was
//!    reused by a later event returns `false` and touches nothing, however
//!    long the history. `seq` is never reused (a `u64` counter does not
//!    wrap in any feasible run), unlike a wrapping per-slot generation.
//!    A lane event's id names no slot; a lane is disarmed by its index.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};
use std::ops::Range;

/// Handle to a scheduled event, usable for cancellation: the event's slot
/// and its unique sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

impl EventId {
    /// A handle that never corresponds to a live event. Useful as an
    /// initializer for "no timer armed" fields.
    pub const NONE: EventId = EventId { seq: u64::MAX, slot: VACANT };
}

/// An event popped from the queue: when it fires and its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    pub time: SimTime,
    pub id: EventId,
    pub payload: E,
}

/// Heap position of a slot that holds no pending event; also the one slot
/// index never handed out, so [`EventId::NONE`] and the ids of lane events
/// can never match a slot.
const VACANT: u32 = u32::MAX;

/// The `(time, seq)` ordering key of a pending event.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Key {
    time: SimTime,
    seq: u64,
}

/// The key of a disarmed lane: after every armed key, since no event is
/// ever given the last `seq`.
const IDLE: Key = Key { time: SimTime::MAX, seq: u64::MAX };

/// One heap entry. The ordering key is stored inline so sifting compares
/// without touching the slot table.
#[derive(Clone, Copy)]
struct Node {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl Node {
    #[inline]
    fn before(&self, other: &Node) -> bool {
        (self.time, self.seq) < (other.time, other.seq)
    }
}

struct Slot<E> {
    /// `seq` of the occupying event; meaningless while vacant.
    seq: u64,
    /// Index of the occupying event in `heap`, or [`VACANT`].
    pos: u32,
    payload: Option<E>,
}

impl<E> Slot<E> {
    fn vacant() -> Self {
        Slot { seq: 0, pos: VACANT, payload: None }
    }
}

/// Telemetry handles for one event queue. Operations count into plain
/// tallies; [`EventQueue::publish`] adds them to these counters.
#[derive(Clone)]
pub struct EventQueueCounters {
    pub scheduled: telemetry::Counter,
    pub cancelled: telemetry::Counter,
    pub processed: telemetry::Counter,
}

impl EventQueueCounters {
    /// Registers the three queue counters under `prefix` (e.g.
    /// `sim.events`) in `registry`.
    pub fn register(registry: &telemetry::MetricsRegistry, prefix: &str) -> Self {
        EventQueueCounters {
            scheduled: registry.counter(&format!("{prefix}.scheduled")),
            cancelled: registry.counter(&format!("{prefix}.cancelled")),
            processed: registry.counter(&format!("{prefix}.processed")),
        }
    }
}

/// Future-event list: an indexed binary min-heap with O(log n) cancel,
/// beside a fixed set of timer lanes.
pub struct EventQueue<E> {
    /// Pending events, a binary min-heap on `(time, seq)`.
    heap: Vec<Node>,
    /// Slot table; `slots[n.slot].pos` is `n`'s index in `heap`.
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused last-freed first.
    free: Vec<u32>,
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
    counters: Option<EventQueueCounters>,
    /// Events taken by [`EventQueue::pop`] (see [`EventQueue::pops`]).
    pops: u64,
}

/// Per-operation counts not yet added to the attached counters.
#[derive(Default)]
struct Tally {
    scheduled: u64,
    cancelled: u64,
    processed: u64,
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
            heap: Vec::new(),
            slots: Vec::new(),
            // Sized as the first release would size it, so that a queue
            // whose heap sees only a few events makes this allocation up
            // front rather than mid-run, at its first pop or cancel.
            free: Vec::with_capacity(4),
            lanes: vec![IDLE; payloads.len()],
            lane_payloads: payloads,
            armed: 0,
            next_seq: 0,
            last_popped: SimTime::ZERO,
            tally: Tally::default(),
            counters: None,
            pops: 0,
        }
    }

    /// Attach telemetry counters; subsequent schedule/cancel/pop operations
    /// are counted. Counts start from this call (not retroactive).
    pub fn attach_counters(&mut self, counters: EventQueueCounters) {
        self.publish();
        self.counters = Some(counters);
    }

    /// Add the operations counted since the last publish to the attached
    /// counters. Operations bump plain tallies, not the shared atomic
    /// counters, so a reader sees them only after this call; an owner that
    /// exposes the counters publishes before handing control back.
    pub fn publish(&mut self) {
        let t = std::mem::take(&mut self.tally);
        if let Some(c) = &self.counters {
            c.scheduled.add(t.scheduled);
            c.cancelled.add(t.cancelled);
            c.processed.add(t.processed);
        }
    }

    /// Number of pending events, armed lanes included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.armed
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedule `payload` to fire at absolute time `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is before the last popped event —
    /// scheduling into the past is always a simulation bug. Panics if more
    /// than `u32::MAX - 1` events are pending at once.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        debug_assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != VACANT)
                    .expect("more than u32::MAX - 1 pending events");
                self.slots.push(Slot::vacant());
                slot
            }
        };
        let s = &mut self.slots[slot as usize];
        s.seq = seq;
        s.payload = Some(payload);
        self.heap.push(Node { time, seq, slot });
        self.sift_up(self.heap.len() - 1);
        self.tally.scheduled += 1;
        EventId { seq, slot }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. this call prevented it from firing); `false` for
    /// [`EventId::NONE`] and for an event already cancelled, fired or
    /// cleared, including one whose slot a later event now occupies.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(pos) = self.pos_of(id) else { return false };
        self.remove_at(pos);
        self.release(id.slot);
        self.tally.cancelled += 1;
        true
    }

    /// Arm timer lane `lane` to fire at `time`, exactly as
    /// [`EventQueue::cancel`] of its pending event (if any) followed by
    /// [`EventQueue::schedule`] of its payload would: the event takes the
    /// next `seq` and counts as one schedule, plus one cancel when the lane
    /// was armed. Returns the id [`EventQueue::pop`] reports for the event.
    ///
    /// # Panics
    /// If `lane` is not a lane of this queue; in debug builds, as
    /// `schedule` does for a time before the last popped event.
    pub fn arm(&mut self, lane: usize, time: SimTime) -> EventId {
        debug_assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = &mut self.lanes[lane];
        if *key == IDLE {
            self.armed += 1;
        } else {
            self.tally.cancelled += 1;
        }
        *key = Key { time, seq };
        self.tally.scheduled += 1;
        EventId { seq, slot: VACANT }
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
        self.tally.cancelled += 1;
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
        self.tally.processed += pops;
        self.tally.scheduled += pops * per_pop;
        self.tally.cancelled += pops * armed;
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

    /// Heap position of the pending event `id`, or `None` when `id` is
    /// not pending.
    fn pos_of(&self, id: EventId) -> Option<usize> {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.pos != VACANT && s.seq == id.seq => Some(s.pos as usize),
            _ => None,
        }
    }

    /// Events this queue has taken with [`EventQueue::pop`], off the heap
    /// or a lane: the cost proxy of a run, where the `processed` counter is
    /// its logical event count, which also counts the pops
    /// [`EventQueue::replay_rounds`] replays. A plain count, neither
    /// published nor snapshotted; a restored queue starts from zero.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let heap = self.heap.first().map(|n| n.time);
        match self.first_lane() {
            Some((_, key)) => Some(heap.map_or(key.time, |t| t.min(key.time))),
            None => heap,
        }
    }

    /// Timestamp of the next pending event outside the lanes, if any.
    pub fn peek_heap_time(&self) -> Option<SimTime> {
        self.heap.first().map(|n| n.time)
    }
}

impl<E: Clone> EventQueue<E> {
    /// Pop the next pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if let Some((lane, key)) = self.first_lane() {
            if self.heap.first().is_none_or(|n| key < Key { time: n.time, seq: n.seq }) {
                self.lanes[lane] = IDLE;
                self.armed -= 1;
                self.last_popped = key.time;
                self.tally.processed += 1;
                self.pops += 1;
                return Some(ScheduledEvent {
                    time: key.time,
                    id: EventId { seq: key.seq, slot: VACANT },
                    payload: self.lane_payloads[lane].clone(),
                });
            }
        }
        if self.heap.is_empty() {
            return None;
        }
        let node = self.remove_at(0);
        let payload = self.release(node.slot)?;
        self.last_popped = node.time;
        self.tally.processed += 1;
        self.pops += 1;
        Some(ScheduledEvent {
            time: node.time,
            id: EventId { seq: node.seq, slot: node.slot },
            payload,
        })
    }
}

impl<E> EventQueue<E> {
    /// Drop all pending events and disarm every lane. Sequence numbers keep
    /// counting, so an id issued before the clear never matches an event
    /// scheduled after it.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.lanes.fill(IDLE);
        self.armed = 0;
    }

    /// Remove and return the heap entry at `pos`, restoring heap order.
    fn remove_at(&mut self, pos: usize) -> Node {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        let removed = self.heap.pop().unwrap_or_else(|| unreachable!("heap holds `pos`"));
        if pos < last {
            // The former last entry now sits at `pos`.
            self.restore_order(pos);
        }
        removed
    }

    /// Sift the entry at `pos`, whose key just changed, to its place: it
    /// may belong above or below `pos`, never both.
    fn restore_order(&mut self, pos: usize) {
        if pos > 0 && self.heap[pos].before(&self.heap[(pos - 1) / 2]) {
            self.sift_up(pos);
        } else {
            self.sift_down(pos);
        }
    }

    /// Vacate `slot` and hand back its payload.
    fn release(&mut self, slot: u32) -> Option<E> {
        let s = &mut self.slots[slot as usize];
        s.pos = VACANT;
        self.free.push(slot);
        s.payload.take()
    }

    fn place(&mut self, pos: usize, node: Node) {
        self.heap[pos] = node;
        self.slots[node.slot as usize].pos = pos as u32;
    }

    fn sift_up(&mut self, mut pos: usize) {
        let node = self.heap[pos];
        while pos > 0 {
            let parent = (pos - 1) / 2;
            let p = self.heap[parent];
            if !node.before(&p) {
                break;
            }
            self.place(pos, p);
            pos = parent;
        }
        self.place(pos, node);
    }

    fn sift_down(&mut self, mut pos: usize) {
        let node = self.heap[pos];
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let child =
                if right < len && self.heap[right].before(&self.heap[left]) { right } else { left };
            let c = self.heap[child];
            if !c.before(&node) {
                break;
            }
            self.place(pos, c);
            pos = child;
        }
        self.place(pos, node);
    }
}

impl<E: Snapshot> EventQueue<E> {
    /// Byte-stable encoding of the queue's state:
    ///
    /// ```text
    /// slot_count len | next_seq u64 | last_popped | live len
    /// live × (time | seq u64 | slot u32 | payload), in (time, seq) order
    /// (slot_count − live) × free slot u32, in reuse order
    /// lanes × (time | seq u64), a disarmed lane as (SimTime::MAX | u64::MAX)
    /// ```
    ///
    /// Heap layout is an implementation detail, so pending events are
    /// emitted sorted by their total order; the free list is state (it
    /// decides which slot the next event gets), so it rides along in order.
    /// The lanes' payloads are the queue's shape, fixed at construction
    /// like its payload type, so only their arm state is imaged, and a
    /// queue without lanes images exactly as the heap alone.
    pub fn snapshot(&self, w: &mut SnapshotWriter) {
        let mut live = self.heap.clone();
        live.sort_unstable_by_key(|n| (n.time, n.seq));
        w.put_len(self.slots.len());
        w.put_u64(self.next_seq);
        w.put(&self.last_popped);
        w.put_len(live.len());
        for n in &live {
            w.put(&n.time);
            w.put_u64(n.seq);
            w.put_u32(n.slot);
            match &self.slots[n.slot as usize].payload {
                Some(p) => w.put(p),
                None => unreachable!("a heap entry's slot holds its payload"),
            }
        }
        for &slot in &self.free {
            w.put_u32(slot);
        }
        for key in &self.lanes {
            w.put(&key.time);
            w.put_u64(key.seq);
        }
    }

    /// Rebuild a queue without lanes from [`EventQueue::snapshot`] bytes.
    /// Counters and unpublished tallies are not restored (attach fresh
    /// counters if wanted); pop order, slot assignment and cancellation
    /// semantics are exactly those of the snapshotted queue. A structurally
    /// invalid image — a slot index out of range, two events on one slot,
    /// more events than slots, events out of order or with a not-yet-issued
    /// `seq` — is a typed error.
    pub fn restore(r: &mut SnapshotReader<'_>) -> Result<EventQueue<E>, SnapshotError> {
        Self::restore_with_lanes(r, Vec::new())
    }

    /// [`EventQueue::restore`] for a queue built by
    /// [`EventQueue::with_lanes`]`(payloads)`: the image's lanes must be as
    /// many, and each disarmed or armed with a `seq` no other pending event
    /// holds, at or after the last popped time.
    pub fn restore_with_lanes(
        r: &mut SnapshotReader<'_>,
        payloads: Vec<E>,
    ) -> Result<EventQueue<E>, SnapshotError> {
        use SnapshotError::Malformed;
        let slot_count = r.get_len()?;
        let next_seq = r.get_u64()?;
        let last_popped: SimTime = r.get()?;
        let live = r.get_len()?;
        if live > slot_count {
            return Err(Malformed("event queue: more live events than slots"));
        }
        // Every slot costs at least four image bytes (a slot index), so a
        // count the rest of the image cannot hold is corruption, and must
        // not become an allocation request.
        if slot_count >= VACANT as usize || slot_count > r.remaining() / 4 {
            return Err(Malformed("event queue: slot count exceeds the image"));
        }
        let mut slots: Vec<Slot<E>> = (0..slot_count).map(|_| Slot::vacant()).collect();
        let mut claimed = vec![false; slot_count];
        let mut claim = |slot: u32| -> Result<usize, SnapshotError> {
            let i = slot as usize;
            match claimed.get_mut(i) {
                None => Err(Malformed("event queue: slot index out of range")),
                Some(true) => Err(Malformed("event queue: slot used twice")),
                Some(c) => {
                    *c = true;
                    Ok(i)
                }
            }
        };
        let mut heap = Vec::with_capacity(live);
        let mut seqs = Vec::with_capacity(live);
        for pos in 0..live {
            let time: SimTime = r.get()?;
            let seq = r.get_u64()?;
            let slot = r.get_u32()?;
            let payload: E = r.get()?;
            if seq >= next_seq {
                return Err(Malformed("event queue: seq not yet issued"));
            }
            if time < last_popped {
                return Err(Malformed("event queue: event before the last popped time"));
            }
            if heap.last().is_some_and(|p: &Node| !p.before(&Node { time, seq, slot })) {
                return Err(Malformed("event queue: events out of (time, seq) order"));
            }
            slots[claim(slot)?] = Slot { seq, pos: pos as u32, payload: Some(payload) };
            // Sorted ascending is already a valid min-heap.
            heap.push(Node { time, seq, slot });
            seqs.push(seq);
        }
        let mut free = Vec::with_capacity(slot_count - live);
        for _ in live..slot_count {
            let slot = r.get_u32()?;
            claim(slot)?;
            free.push(slot);
        }
        let mut lanes = Vec::with_capacity(payloads.len());
        for _ in 0..payloads.len() {
            let key = Key { time: r.get()?, seq: r.get_u64()? };
            if key != IDLE {
                if key.seq >= next_seq {
                    return Err(Malformed("event queue: seq not yet issued"));
                }
                if key.time < last_popped {
                    return Err(Malformed("event queue: event before the last popped time"));
                }
                seqs.push(key.seq);
            }
            lanes.push(key);
        }
        seqs.sort_unstable();
        if seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(Malformed("event queue: duplicate seq"));
        }
        Ok(EventQueue {
            heap,
            slots,
            free,
            armed: lanes.iter().filter(|&&k| k != IDLE).count(),
            lanes,
            lane_payloads: payloads,
            next_seq,
            last_popped,
            tally: Tally::default(),
            counters: None,
            pops: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    /// Heap order and the slot back-pointers agree everywhere.
    fn assert_invariants<E>(q: &EventQueue<E>) {
        for (pos, n) in q.heap.iter().enumerate() {
            if pos > 0 {
                assert!(!n.before(&q.heap[(pos - 1) / 2]), "heap order at {pos}");
            }
            let s = &q.slots[n.slot as usize];
            assert_eq!(s.pos as usize, pos);
            assert_eq!(s.seq, n.seq);
            assert!(s.payload.is_some());
        }
        assert_eq!(q.heap.len() + q.free.len(), q.slots.len());
        for &f in &q.free {
            assert_eq!(q.slots[f as usize].pos, VACANT);
        }
        assert_eq!(q.lanes.len(), q.lane_payloads.len());
        assert_eq!(q.armed, q.lanes.iter().filter(|&&k| k != IDLE).count());
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn same_time_pops_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_suppresses_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().payload, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn double_cancel_and_cancel_after_fire_return_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));

        let b = q.schedule(t(20), "b");
        let fired = q.pop().unwrap();
        assert_eq!((fired.payload, fired.id), ("b", b));
        assert!(!q.cancel(b));
    }

    #[test]
    fn stale_id_never_cancels_the_slots_next_occupant() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        // `b` reuses `a`'s slot.
        let b = q.schedule(t(20), "b");
        assert_eq!(b.slot, a.slot);
        assert!(!q.cancel(a), "stale id must not alias the new occupant");
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
    }

    #[test]
    fn ids_issued_before_clear_stay_dead() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), 1);
        q.clear();
        assert!(!q.cancel(a));
        let b = q.schedule(t(10), 2);
        assert!(!q.cancel(a), "same slot, older seq");
        assert!(q.cancel(b));
    }

    #[test]
    fn cancel_none_is_noop() {
        let mut q = EventQueue::<()>::new();
        assert!(!q.cancel(EventId::NONE));
        q.schedule(t(1), ());
        assert!(!q.cancel(EventId::NONE));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(20)));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_rearm_loop_keeps_backlog_bounded() {
        // The kernel's pattern: a tick and a completion timer per CPU; on
        // every pop each completion timer is cancelled and re-armed. The
        // slot table must stay at the peak live count.
        let mut q = EventQueue::new();
        let mut armed: Vec<EventId> = (0..4).map(|c| q.schedule(t(1000 + c), c)).collect();
        for c in 0..4 {
            q.schedule(t(1 + c), 100 + c);
        }
        for i in 0..10_000u64 {
            let ev = q.pop().unwrap();
            if ev.payload >= 100 {
                q.schedule(ev.time + SimDuration::from_millis(1), ev.payload);
            }
            for (c, id) in armed.iter_mut().enumerate() {
                assert!(q.cancel(*id));
                let left = SimDuration::from_millis(5 + (i + c as u64) % 7);
                *id = q.schedule(ev.time + left, c as u64);
            }
            assert_eq!(q.len(), 8);
            assert!(q.slots.len() <= 9, "slot table grew to {}", q.slots.len());
        }
        assert_invariants(&q);
    }

    /// A queue with `n` lanes; lane `i` fires with payload `1000 + i`.
    fn laned(n: u64) -> EventQueue<u64> {
        EventQueue::with_lanes((0..n).map(|i| 1000 + i).collect())
    }

    fn drain(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64, u64)> {
        std::iter::from_fn(|| q.pop().map(|e| (e.time, e.id.seq, e.payload))).collect()
    }

    #[test]
    fn rearming_a_lane_equals_cancel_then_schedule() {
        // Twin queues: one keeps 20 timers in lanes and re-arms them in
        // place, one keeps them in its heap and cancels and re-schedules.
        let registry = telemetry::MetricsRegistry::new();
        let mut a = laned(20);
        let mut b = EventQueue::new();
        a.attach_counters(EventQueueCounters::register(&registry, "a"));
        b.attach_counters(EventQueueCounters::register(&registry, "b"));
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let at = t(100 + (i * 37) % 50);
            let id = a.arm(i as usize, at);
            let twin = b.schedule(at, 1000 + i);
            assert_eq!(id.seq, twin.seq);
            ids.push(twin);
        }
        for round in 0..200u64 {
            let k = (round * 7) as usize % ids.len();
            let at = t(100 + (round * 13) % 90);
            if round % 9 == 4 {
                // Disarm ≡ cancel, and an idle lane re-arms as a schedule.
                assert_eq!(a.disarm(k), b.cancel(ids[k]));
                assert_eq!((a.disarm(k), b.cancel(ids[k])), (false, false), "already idle");
                assert_eq!(a.lane_time(k), None);
            }
            let moved = a.arm(k, at);
            b.cancel(ids[k]);
            ids[k] = b.schedule(at, 1000 + k as u64);
            assert_eq!(moved.seq, ids[k].seq, "same seq");
            assert!(!a.cancel(moved), "a lane event is not cancelled by id");
            assert_eq!(a.lane_time(k), Some(at));
            assert_eq!((a.len(), a.peek_time()), (b.len(), b.peek_time()));
            assert_invariants(&a);
        }
        assert_eq!(a.peek_heap_time(), None, "nothing is in the heap");
        assert_eq!(drain(&mut a), drain(&mut b));
        a.publish();
        b.publish();
        let snap = registry.snapshot();
        for c in ["scheduled", "cancelled", "processed"] {
            assert_eq!(snap.counter(&format!("a.{c}")), snap.counter(&format!("b.{c}")), "{c}");
        }
        assert_eq!(a.pops(), b.pops());
        assert_eq!(a.schedule(t(600), 7).seq, b.schedule(t(600), 7).seq, "same next seq");
    }

    #[test]
    fn lanes_and_heap_pop_in_one_seq_order() {
        let mut q = laned(2);
        let s0 = q.schedule(t(5), 1);
        let l0 = q.arm(0, t(5));
        let s1 = q.schedule(t(5), 2);
        let l1 = q.arm(1, t(3));
        assert_eq!(q.len(), 4);
        assert_eq!((q.peek_time(), q.peek_heap_time()), (Some(t(3)), Some(t(5))));
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.id, e.payload))).collect();
        assert_eq!(popped, [(l1, 1001), (s0, 1), (l0, 1000), (s1, 2)]);
        assert_eq!((q.lane_time(0), q.lane_time(1)), (None, None), "a popped lane is idle");
        q.arm(1, t(9));
        q.schedule(t(9), 3);
        q.clear();
        assert!(q.is_empty());
        assert_eq!((q.lane_time(1), q.pop()), (None, None), "clear disarms the lanes");
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
            a.attach_counters(EventQueueCounters::register(&registry, "a"));
            b.attach_counters(EventQueueCounters::register(&registry, "b"));
            // A far heap event and a dead slot, then the lanes.
            for q in [&mut a, &mut b] {
                q.schedule(t(500), 99);
                let dead = q.schedule(t(2), 98);
                q.cancel(dead);
                for i in 0..n {
                    q.arm(i as usize, t(1));
                }
                for i in 0..n - 1 {
                    q.arm((n + i) as usize, t(400 + i));
                }
            }
            let end = |lane: usize| t(300 + 2 * (lane as u64 - n));
            let heap_before = a.heap.clone();
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
            assert_invariants(&a);
            let untouched = a
                .heap
                .iter()
                .zip(&heap_before)
                .all(|(x, y)| (x.time, x.seq, x.slot) == (y.time, y.seq, y.slot));
            assert!(untouched && a.heap.len() == heap_before.len(), "no heap entry moves");
            assert_eq!(snap_bytes(&a), snap_bytes(&b), "n {n}, rounds {rounds}");
            assert_eq!(a.lane_time(all - 1), None, "an idle lane stays idle");
            a.publish();
            b.publish();
            let snap = registry.snapshot();
            for c in ["scheduled", "cancelled", "processed"] {
                assert_eq!(snap.counter(&format!("a.{c}")), snap.counter(&format!("b.{c}")), "{c}");
            }
            // Replayed pops are processed events but are never popped.
            assert_eq!((a.pops(), b.pops()), (0, rounds * n), "pops");
            assert_eq!(a.schedule(t(600), 7), b.schedule(t(600), 7), "same next seq and slot");
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
        assert_eq!(
            (q.lane_time(0), q.lane_time(1), q.lane_time(2)),
            (Some(t(7)), None, Some(t(4)))
        );
        assert_eq!(q.pop().map(|e| e.payload), Some(1002));
        assert_eq!(q.lane_time(2), None, "fired");
        assert!(q.disarm(0));
        assert_eq!(q.peek_time(), q.peek_heap_time());
    }

    #[test]
    fn disarming_an_idle_lane_touches_nothing() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = laned(2);
        q.attach_counters(EventQueueCounters::register(&registry, "q"));
        q.arm(0, t(5));
        q.arm(1, t(10));
        assert!(q.disarm(1));
        let fired = q.pop().unwrap();
        assert_eq!(fired.payload, 1000);
        let before = snap_bytes(&q);
        for lane in [0, 1] {
            assert!(!q.disarm(lane), "lane {lane} is idle");
        }
        assert!(!q.cancel(fired.id), "a fired lane event is dead");
        assert_eq!(snap_bytes(&q), before, "no seq consumed, nothing moved");
        q.publish();
        assert_eq!(registry.snapshot().counter("q.cancelled"), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn counts_reach_counters_only_on_publish() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = laned(1);
        q.schedule(t(1), 0u64);
        q.attach_counters(EventQueueCounters::register(&registry, "q"));
        let a = q.schedule(t(2), 1);
        q.arm(0, t(3));
        q.cancel(a);
        q.arm(0, t(4));
        q.pop();
        let read = |name: &str| registry.snapshot().counter(name);
        assert_eq!(read("q.scheduled"), 0, "not yet published");
        q.publish();
        assert_eq!(read("q.scheduled"), 3, "pre-attach schedule not counted");
        assert_eq!(read("q.cancelled"), 2);
        assert_eq!(read("q.processed"), 1);
        q.publish();
        assert_eq!(read("q.scheduled"), 3, "publishing twice adds nothing");
    }

    #[test]
    fn random_cancels_keep_heap_and_slots_consistent() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..500u64 {
            ids.push(q.schedule(t((i * 7919) % 613), i));
        }
        for (i, id) in ids.iter().enumerate() {
            if i % 3 != 0 {
                assert!(q.cancel(*id));
                if i % 17 == 0 {
                    assert_invariants(&q);
                }
            }
        }
        assert_invariants(&q);
        let mut keep: Vec<(u64, u64)> =
            (0..500u64).filter(|i| i % 3 == 0).map(|i| ((i * 7919) % 613, i)).collect();
        keep.sort();
        let popped: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.payload)).collect();
        assert_eq!(popped, keep.iter().map(|&(_, i)| i).collect::<Vec<_>>());
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

    fn snap_bytes(q: &EventQueue<u64>) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        q.snapshot(&mut w);
        w.finish()
    }

    fn restore_bytes(bytes: &[u8]) -> Result<EventQueue<u64>, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let q = EventQueue::restore(&mut r)?;
        r.finish()?;
        Ok(q)
    }

    #[test]
    fn snapshot_round_trips_pop_order_and_cancel_semantics() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(q.schedule(t(1000 - i), i));
        }
        // A popped event, a cancelled one, and plenty pending.
        let fired = q.schedule(t(1), 999);
        assert_eq!(q.pop().unwrap().payload, 999);
        let dead = ids[7];
        assert!(q.cancel(dead));

        let mut back = restore_bytes(&snap_bytes(&q)).unwrap();
        assert_invariants(&back);
        assert_eq!(back.len(), q.len());
        // Restored cancel semantics: re-cancelling the dead id and the
        // fired id still report false; a live id still cancels.
        assert!(!back.cancel(dead));
        assert!(!back.cancel(fired));
        let live = ids[3];
        assert!(back.cancel(live));
        assert!(q.cancel(live));
        // Slot assignment continues identically.
        assert_eq!(back.schedule(t(2000), 7), q.schedule(t(2000), 7));

        let a: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| (e.time, e.id, e.payload))).collect();
        let b: Vec<_> =
            std::iter::from_fn(|| back.pop().map(|e| (e.time, e.id, e.payload))).collect();
        assert_eq!(a, b, "pop order survives the round trip");
    }

    #[test]
    fn equal_queues_produce_equal_snapshot_bytes() {
        let mut a = EventQueue::new();
        for i in 0..10u64 {
            a.schedule(t(10 + i), i);
        }
        let mut b = EventQueue::new();
        for i in (0..10u64).rev() {
            b.schedule(t(10 + i), i);
        }
        // Histories differ, so the seq bookkeeping differs — but a queue
        // snapshotted twice without mutation is always byte-identical.
        assert_eq!(snap_bytes(&a), snap_bytes(&a));
        assert_ne!(snap_bytes(&a), snap_bytes(&b), "different seq assignment is visible state");

        // And a restore of a restores bytes exactly.
        let bytes = snap_bytes(&a);
        let back = restore_bytes(&bytes).unwrap();
        assert_eq!(snap_bytes(&back), bytes, "snapshot∘restore is the identity on bytes");
    }

    /// A hand-built image in the wire layout of [`EventQueue::snapshot`].
    fn image(slot_count: u64, next_seq: u64, live: &[(u64, u64, u32)], free: &[u32]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u64(slot_count);
        w.put_u64(next_seq);
        w.put(&SimTime::ZERO);
        w.put_u64(live.len() as u64);
        for &(time, seq, slot) in live {
            w.put(&SimTime(time));
            w.put_u64(seq);
            w.put_u32(slot);
            w.put_u64(seq * 10);
        }
        for &slot in free {
            w.put_u32(slot);
        }
        w.finish()
    }

    #[test]
    fn hand_built_image_restores() {
        let q = restore_bytes(&image(3, 5, &[(1, 4, 2), (2, 0, 0)], &[1])).unwrap();
        assert_invariants(&q);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn corrupt_images_are_typed_errors() {
        let malformed = |bytes: Vec<u8>| match restore_bytes(&bytes) {
            Err(SnapshotError::Malformed(what)) => what,
            other => panic!("expected Malformed, got {:?}", other.map(|q| q.len())),
        };
        // Slot index out of range, for a live entry and for a free one.
        assert!(malformed(image(2, 5, &[(1, 0, 2)], &[0])).contains("out of range"));
        assert!(malformed(image(2, 5, &[(1, 0, 0)], &[7])).contains("out of range"));
        // Two live entries on one slot; a live slot also listed free.
        assert!(malformed(image(2, 5, &[(1, 0, 1), (2, 1, 1)], &[])).contains("twice"));
        assert!(malformed(image(2, 5, &[(1, 0, 1)], &[1])).contains("twice"));
        // More live entries than the slot table holds.
        assert!(malformed(image(1, 5, &[(1, 0, 0), (2, 1, 1)], &[])).contains("more live"));
        // A slot count the image cannot back.
        assert!(malformed(image(1 << 40, 5, &[], &[])).contains("exceeds"));
        // Out of order, duplicate seq, unissued seq.
        assert!(malformed(image(2, 5, &[(2, 0, 0), (1, 1, 1)], &[])).contains("order"));
        assert!(malformed(image(2, 5, &[(1, 3, 0), (2, 3, 1)], &[])).contains("duplicate"));
        assert!(malformed(image(1, 5, &[(1, 5, 0)], &[])).contains("not yet issued"));
    }

    #[test]
    fn laned_snapshot_round_trips() {
        let mut q = laned(3);
        for i in 0..6u64 {
            q.schedule(t(20 - i), i);
        }
        q.arm(0, t(4));
        q.arm(2, t(15));
        q.pop();
        let bytes = snap_bytes(&q);
        let restore = |bytes: &[u8], lanes: u64| -> Result<EventQueue<u64>, SnapshotError> {
            let mut r = SnapshotReader::new(bytes)?;
            let q = EventQueue::restore_with_lanes(&mut r, (0..lanes).map(|i| 1000 + i).collect())?;
            r.finish()?;
            Ok(q)
        };
        let mut back = restore(&bytes, 3).unwrap();
        assert_invariants(&back);
        assert_eq!(snap_bytes(&back), bytes, "snapshot∘restore is the identity on bytes");
        assert_eq!((back.lane_time(0), back.lane_time(2)), (None, Some(t(15))));
        assert_eq!(back.arm(1, t(16)), q.arm(1, t(16)));
        assert_eq!(drain(&mut back), drain(&mut q));
        // The image holds as many lanes as the queue had, no more or fewer.
        assert!(restore(&bytes, 2).is_err());
        assert!(restore(&bytes, 4).is_err());
        assert!(restore_bytes(&bytes).is_err(), "a laned image is not a plain one");
    }

    #[test]
    fn corrupt_lanes_are_typed_errors() {
        // One heap event (seq 1), one lane, next seq 5, written by hand.
        let lane_image = |time: u64, seq: u64| {
            let mut bytes = image(1, 5, &[(3, 1, 0)], &[]);
            let mut w = SnapshotWriter::new();
            let payload = &bytes[crate::snapshot::SNAPSHOT_HEADER_LEN..];
            for &b in payload {
                w.put_u8(b);
            }
            w.put(&SimTime(time));
            w.put_u64(seq);
            bytes = w.finish();
            let mut r = SnapshotReader::new(&bytes)?;
            let q = EventQueue::<u64>::restore_with_lanes(&mut r, vec![7])?;
            r.finish()?;
            Ok::<_, SnapshotError>(q)
        };
        let malformed = |got: Result<EventQueue<u64>, SnapshotError>| match got {
            Err(SnapshotError::Malformed(what)) => what,
            other => panic!("expected Malformed, got {:?}", other.map(|q| q.len())),
        };
        assert_eq!(lane_image(4, 2).unwrap().lane_time(0), Some(SimTime(4)));
        assert_eq!(lane_image(u64::MAX, u64::MAX).unwrap().len(), 1, "a disarmed lane");
        assert!(malformed(lane_image(4, 5)).contains("not yet issued"));
        assert!(malformed(lane_image(4, 1)).contains("duplicate"));
        assert!(malformed(lane_image(9, u64::MAX)).contains("not yet issued"));
    }

    #[test]
    fn truncated_and_bit_flipped_images_are_typed_errors() {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.schedule(t(i % 7), i);
        }
        for _ in 0..5 {
            q.pop();
        }
        let bytes = snap_bytes(&q);
        for cut in 0..bytes.len() {
            assert!(restore_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(restore_bytes(&flipped).is_err(), "flip of bit {bit}");
        }
        // Past the checksum: a truncated payload still fails typed.
        let payload = {
            let mut w = SnapshotWriter::new();
            q.snapshot(&mut w);
            w.payload().to_vec()
        };
        for cut in 0..payload.len() {
            let mut w = SnapshotWriter::new();
            for &b in &payload[..cut] {
                w.put_u8(b);
            }
            assert!(restore_bytes(&w.finish()).is_err(), "payload cut at {cut}");
        }
    }
}
