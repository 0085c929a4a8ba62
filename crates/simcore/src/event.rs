//! Deterministic, cancellable event queue.
//!
//! A discrete-event-simulation future-event list kept as an **indexed
//! binary min-heap** over `(time, seq)`. Four properties matter for this
//! workspace:
//!
//! 1. **Determinism** — every scheduled event gets the next value of a
//!    `u64` sequence counter, and events pop in `(time, seq)` order: the
//!    earliest time first, FIFO among equal times. `seq` is unique, so
//!    that order is total and pop order is a function of it alone, never
//!    of heap internals.
//! 2. **O(log n) cancellation and re-arm** — each pending event occupies a
//!    slot in a slot table, and the slot records the event's current heap
//!    position. [`EventQueue::cancel`] removes the entry from the heap on
//!    the spot; there are no dead entries to skip at pop time and nothing
//!    to compact. [`EventQueue::reschedule`] moves a pending event in
//!    place, with exactly the effect of cancelling it and scheduling its
//!    payload anew, so the kernel's re-arm of per-CPU completion timers
//!    after every event costs one heap fix-up. [`EventQueue::replay_rounds`]
//!    writes the outcome of many rounds of periodic pops and re-arms at
//!    once, as the literal operations would leave it.
//! 3. **Memory O(live events)** — the heap holds exactly the pending
//!    events, and freed slots are reused, so the slot table never grows
//!    past the peak number of simultaneously pending events. Nothing about
//!    fired or cancelled events is retained.
//! 4. **Stale ids are harmless** — an [`EventId`] names a slot *and* the
//!    unique `seq` of the event scheduled into it. `cancel` acts only if
//!    the slot is occupied by that very `seq`, so cancelling an id twice,
//!    after it fired, after [`EventQueue::clear`], or after its slot was
//!    reused by a later event returns `false` and touches nothing, however
//!    long the history. `seq` is never reused (a `u64` counter does not
//!    wrap in any feasible run), unlike a wrapping per-slot generation.

use crate::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

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
/// index never handed out, so [`EventId::NONE`] can never match a slot.
const VACANT: u32 = u32::MAX;

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

/// Future-event list: an indexed binary min-heap with O(log n) cancel.
pub struct EventQueue<E> {
    /// Pending events, a binary min-heap on `(time, seq)`.
    heap: Vec<Node>,
    /// Slot table; `slots[n.slot].pos` is `n`'s index in `heap`.
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused last-freed first.
    free: Vec<u32>,
    next_seq: u64,
    last_popped: SimTime,
    /// Operations since the last [`EventQueue::publish`].
    tally: Tally,
    counters: Option<EventQueueCounters>,
    /// Events taken off the heap by [`EventQueue::pop`] (see
    /// [`EventQueue::pops`]).
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
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            // Sized as the first release would size it. A re-arm frees no
            // slot, so a queue whose timers are only ever re-armed may
            // otherwise make this allocation mid-run, at its first pop.
            free: Vec::with_capacity(4),
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

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// Move the pending event `id` to fire at `time`, exactly as
    /// [`EventQueue::cancel`] followed by [`EventQueue::schedule`] of the
    /// same payload would: the event takes the next `seq`, keeps its slot
    /// (the one cancel would free and schedule reuse), and counts as one
    /// cancel plus one schedule. Pop order and snapshot bytes are those of
    /// the cancel/schedule pair; only the heap does one fix-up, not two.
    /// Returns the event's new id, or `None` (touching nothing) when `id`
    /// is not pending, i.e. whenever `cancel` would return `false`.
    pub fn reschedule(&mut self, id: EventId, time: SimTime) -> Option<EventId> {
        let pos = self.pos_of(id)?;
        debug_assert!(
            time >= self.last_popped,
            "scheduling into the past: {time:?} < {:?}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.tally.cancelled += 1;
        self.tally.scheduled += 1;
        Some(self.move_to(pos, id.slot, time, seq))
    }

    /// Replays `rounds` rounds of a fixed firing pattern in one pass and
    /// leaves the queue exactly as the literal operations would: the same
    /// times, `seq`s, slots, `last_popped` and counts, with no heap work
    /// per round.
    ///
    /// The events of `periodic` must all be pending at one instant `t`.
    /// Round `r` (from 0) runs at `t + r × period`: each event of
    /// `periodic`, in order, pops and is scheduled again one `period`
    /// later, and after each such pop every pending event of `rearmed` is
    /// rescheduled, in order. Only the last round's times survive, so each
    /// `rearmed` entry carries the time it ends at; an entry whose id is
    /// not pending is skipped, as `reschedule` would skip it. Both slices
    /// are updated to the events' new ids. The caller guarantees that no
    /// other event would pop before the last round ends.
    pub fn replay_rounds(
        &mut self,
        rounds: u64,
        period: SimDuration,
        periodic: &mut [EventId],
        rearmed: &mut [(EventId, SimTime)],
    ) {
        if rounds == 0 || periodic.is_empty() {
            return;
        }
        let armed = rearmed.iter().filter(|(id, _)| self.pos_of(*id).is_some()).count() as u64;
        let pops = rounds * periodic.len() as u64;
        // Each pop schedules its successor, then re-arms every armed event.
        let per_pop = 1 + armed;
        let last_round = self.next_seq + (pops - periodic.len() as u64) * per_pop;
        let mut seq = last_round;
        for id in periodic.iter_mut() {
            let Some(pos) = self.pos_of(*id) else {
                debug_assert!(false, "replayed periodic event is not pending");
                continue;
            };
            let fired_at = self.heap[pos].time + period * (rounds - 1);
            self.last_popped = self.last_popped.max(fired_at);
            *id = self.move_to(pos, id.slot, fired_at + period, seq);
            seq += per_pop;
        }
        // The re-arms after the last pop take the newest `seq`s.
        seq -= armed;
        for (id, at) in rearmed.iter_mut() {
            if let Some(pos) = self.pos_of(*id) {
                *id = self.move_to(pos, id.slot, *at, seq);
                seq += 1;
            }
        }
        self.next_seq += pops * per_pop;
        self.tally.processed += pops;
        self.tally.scheduled += pops * per_pop;
        self.tally.cancelled += pops * armed;
    }

    /// Give the pending event at heap position `pos` (in `slot`) a new
    /// time and `seq`, and restore heap order.
    #[inline]
    fn move_to(&mut self, pos: usize, slot: u32, time: SimTime, seq: u64) -> EventId {
        self.slots[slot as usize].seq = seq;
        self.heap[pos] = Node { time, seq, slot };
        self.restore_order(pos);
        EventId { seq, slot }
    }

    /// Time at which the event `id` will fire, or `None` when `id` is not
    /// pending.
    pub fn time_of(&self, id: EventId) -> Option<SimTime> {
        self.pos_of(id).map(|pos| self.heap[pos].time)
    }

    /// Time of the earliest pending event whose payload satisfies `keep`.
    /// Only the subtrees under rejected events are searched, so the cost is
    /// proportional to the number of rejected events that come first.
    pub fn peek_time_where(&self, mut keep: impl FnMut(&E) -> bool) -> Option<SimTime> {
        self.first_kept(0, &mut keep)
    }

    fn first_kept(&self, pos: usize, keep: &mut impl FnMut(&E) -> bool) -> Option<SimTime> {
        let node = self.heap.get(pos)?;
        match &self.slots[node.slot as usize].payload {
            Some(payload) if !keep(payload) => {
                // Heap order: nothing below `pos` precedes it, but a kept
                // event may sit in either subtree.
                let left = self.first_kept(2 * pos + 1, keep);
                let right = self.first_kept(2 * pos + 2, keep);
                match (left, right) {
                    (Some(l), Some(r)) => Some(l.min(r)),
                    (l, r) => l.or(r),
                }
            }
            _ => Some(node.time),
        }
    }

    /// Heap position of the pending event `id`, or `None` when `id` is
    /// not pending.
    fn pos_of(&self, id: EventId) -> Option<usize> {
        match self.slots.get(id.slot as usize) {
            Some(s) if s.pos != VACANT && s.seq == id.seq => Some(s.pos as usize),
            _ => None,
        }
    }

    /// Events this queue has taken off its heap with [`EventQueue::pop`]:
    /// the cost proxy of a run, where the `processed` counter is its
    /// logical event count, which also counts the pops
    /// [`EventQueue::replay_rounds`] replays. A plain count, neither
    /// published nor snapshotted; a restored queue starts from zero.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|n| n.time)
    }

    /// Pop the next pending event.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
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

    /// Drop all pending events. Sequence numbers keep counting, so an id
    /// issued before the clear never matches an event scheduled after it.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
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
    /// ```
    ///
    /// Heap layout is an implementation detail, so pending events are
    /// emitted sorted by their total order; the free list is state (it
    /// decides which slot the next event gets), so it rides along in order.
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
    }

    /// Rebuild a queue from [`EventQueue::snapshot`] bytes. Counters and
    /// unpublished tallies are not restored (attach fresh counters if
    /// wanted); pop order, slot
    /// assignment and cancellation semantics are exactly those of the
    /// snapshotted queue. A structurally invalid image — a slot index out
    /// of range, two events on one slot, more events than slots, events
    /// out of order or with a not-yet-issued `seq` — is a typed error.
    pub fn restore(r: &mut SnapshotReader<'_>) -> Result<EventQueue<E>, SnapshotError> {
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
        seqs.sort_unstable();
        if seqs.windows(2).any(|w| w[0] == w[1]) {
            return Err(Malformed("event queue: duplicate seq"));
        }
        let mut free = Vec::with_capacity(slot_count - live);
        for _ in live..slot_count {
            let slot = r.get_u32()?;
            claim(slot)?;
            free.push(slot);
        }
        Ok(EventQueue {
            heap,
            slots,
            free,
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

    #[test]
    fn reschedule_equals_cancel_then_schedule() {
        // Twin queues: one re-arms in place, one cancels and re-schedules.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..20u64 {
            let id = a.schedule(t(100 + (i * 37) % 50), i);
            assert_eq!(b.schedule(t(100 + (i * 37) % 50), i), id);
            ids.push(id);
        }
        for round in 0..200u64 {
            let k = (round * 7) as usize % ids.len();
            let at = t(100 + (round * 13) % 90);
            let moved = a.reschedule(ids[k], at).expect("pending event moves");
            assert!(b.cancel(ids[k]));
            assert_eq!(b.schedule(at, k as u64), moved, "same seq, same slot");
            assert_eq!((a.cancel(ids[k]), b.cancel(ids[k])), (false, false), "old id is dead");
            ids[k] = moved;
            assert_invariants(&a);
            assert_eq!(snap_bytes(&a), snap_bytes(&b));
        }
        let pa: Vec<_> =
            std::iter::from_fn(|| a.pop().map(|e| (e.time, e.id, e.payload))).collect();
        let pb: Vec<_> =
            std::iter::from_fn(|| b.pop().map(|e| (e.time, e.id, e.payload))).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn replay_rounds_equals_literal_rounds() {
        let period = SimDuration::from_millis(1);
        for (n, rounds) in [(1u64, 1u64), (1, 7), (4, 1), (4, 63), (3, 5)] {
            let registry = telemetry::MetricsRegistry::new();
            let mut a = EventQueue::new();
            let mut b = EventQueue::new();
            a.attach_counters(EventQueueCounters::register(&registry, "a"));
            b.attach_counters(EventQueueCounters::register(&registry, "b"));
            // A far event, a dead slot, `n` periodic events at one instant
            // and a re-armed timer for every periodic event but the last.
            for q in [&mut a, &mut b] {
                q.schedule(t(500), 99);
                let dead = q.schedule(t(2), 98);
                q.cancel(dead);
            }
            let mut periodic: Vec<EventId> = (0..n).map(|i| a.schedule(t(1), i)).collect();
            let mut rearmed: Vec<(EventId, SimTime)> = (0..n)
                .map(|i| match i + 1 < n {
                    true => (a.schedule(t(400 + i), 10 + i), t(300 + 2 * i)),
                    false => (EventId::NONE, SimTime::ZERO),
                })
                .collect();
            for i in 0..n {
                b.schedule(t(1), i);
            }
            let mut twin: Vec<EventId> =
                (0..n.saturating_sub(1)).map(|i| b.schedule(t(400 + i), 10 + i)).collect();
            for r in 0..rounds {
                for _ in 0..n {
                    // INVARIANT: the periodic events are the earliest
                    // pending, and each pop schedules its successor.
                    let ev = b.pop().expect("periodic event pops");
                    assert_eq!(ev.time, t(1 + r));
                    b.schedule(ev.time + period, ev.payload);
                    for (i, id) in twin.iter_mut().enumerate() {
                        // Intermediate re-arm times do not survive.
                        let at = if r + 1 == rounds { t(300 + 2 * i as u64) } else { t(200 + r) };
                        // INVARIANT: twin timers only ever move, never fire.
                        *id = b.reschedule(*id, at).expect("armed");
                    }
                }
            }
            a.replay_rounds(rounds, period, &mut periodic, &mut rearmed);
            assert_invariants(&a);
            assert_eq!(snap_bytes(&a), snap_bytes(&b), "n {n}, rounds {rounds}");
            let armed: Vec<EventId> = rearmed.iter().map(|r| r.0).take(twin.len()).collect();
            assert_eq!(armed, twin);
            assert_eq!(rearmed[n as usize - 1].0, EventId::NONE);
            a.publish();
            b.publish();
            let snap = registry.snapshot();
            for c in ["scheduled", "cancelled", "processed"] {
                assert_eq!(snap.counter(&format!("a.{c}")), snap.counter(&format!("b.{c}")), "{c}");
            }
            // Replayed pops are processed events but never touch the heap.
            assert_eq!((a.pops(), b.pops()), (0, rounds * n), "heap pops");
            assert_eq!(a.schedule(t(600), 7), b.schedule(t(600), 7), "same next seq and slot");
            let pa: Vec<_> =
                std::iter::from_fn(|| a.pop().map(|e| (e.time, e.id, e.payload))).collect();
            let pb: Vec<_> =
                std::iter::from_fn(|| b.pop().map(|e| (e.time, e.id, e.payload))).collect();
            assert_eq!(pa, pb);
            assert!(pa.iter().any(|&(_, id, _)| periodic.contains(&id)), "new ids pop");
        }
    }

    #[test]
    fn peek_time_where_finds_the_earliest_kept_event() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_where(|_: &u64| true), None);
        for i in 0..40u64 {
            q.schedule(t(1 + (i * 17) % 40), i);
        }
        for m in [1u64, 2, 3, 7, 41] {
            let want = q
                .heap
                .iter()
                .filter(|n| q.slots[n.slot as usize].payload.is_some_and(|p| p % m == 0))
                .map(|n| n.time)
                .min();
            assert_eq!(q.peek_time_where(|p| p % m == 0), want, "multiples of {m}");
        }
        let first = q.schedule(t(0), 3);
        assert_eq!(q.time_of(first), Some(t(0)));
        assert_eq!(q.peek_time_where(|&p| p == 3), Some(t(0)));
        q.pop();
        assert_eq!(q.time_of(first), None, "fired");
    }

    #[test]
    fn reschedule_of_a_dead_id_touches_nothing() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), 1u64);
        assert!(q.cancel(a));
        let b = q.schedule(t(20), 2);
        let fired = q.schedule(t(5), 3);
        assert_eq!(q.pop().unwrap().id, fired);
        let before = snap_bytes(&q);
        for dead in [a, fired, EventId::NONE] {
            assert_eq!(q.reschedule(dead, t(30)), None);
        }
        assert_eq!(snap_bytes(&q), before, "no seq consumed, nothing moved");
        assert!(q.reschedule(b, t(30)).is_some());
    }

    #[test]
    fn counts_reach_counters_only_on_publish() {
        let registry = telemetry::MetricsRegistry::new();
        let mut q = EventQueue::new();
        q.schedule(t(1), 0u64);
        q.attach_counters(EventQueueCounters::register(&registry, "q"));
        let a = q.schedule(t(2), 1);
        let b = q.schedule(t(3), 2);
        q.cancel(a);
        q.reschedule(b, t(4));
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
