//! The release index: running segments ordered by completion instant.
//!
//! EASY backfill needs two queries on every scheduling pass: the next
//! completion instant (to advance the clock) and the *shadow time* — the
//! earliest instant enough nodes have freed up for the blocked queue
//! head. The engine used to answer both by sorting a scratch copy of the
//! running list, O(r log r) per pass and O(n·r log r) over a run.
//!
//! [`ReleaseIndex`] keeps `(end, admission_seq)` keys in an ordered set
//! with the freed node width attached, so:
//!
//! * the next completion is the first key — O(log r);
//! * the shadow walk visits releases in end order and stops as soon as
//!   the accumulated width satisfies the head — at most `need` entries,
//!   since every release frees at least one node;
//! * equal end times order by admission sequence, exactly the stable
//!   sort over the old admission-ordered `Vec` — byte-identical shadow
//!   choices.

use std::collections::{BTreeMap, BTreeSet};

use simcore::SimTime;

/// Ordered index of running segments keyed `(end, admission seq)`, with
/// the node width each release frees.
#[derive(Clone, Debug, Default)]
pub struct ReleaseIndex {
    by_end: BTreeSet<(SimTime, u64)>,
    /// seq → `(end, width)`, for O(log r) removal.
    entries: BTreeMap<u64, (SimTime, usize)>,
}

impl ReleaseIndex {
    pub fn new() -> ReleaseIndex {
        ReleaseIndex::default()
    }

    pub fn len(&self) -> usize {
        self.by_end.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_end.is_empty()
    }

    /// Track a segment admitted as `seq`, occupying `width` nodes until
    /// `end`.
    pub fn insert(&mut self, seq: u64, end: SimTime, width: usize) {
        self.by_end.insert((end, seq));
        self.entries.insert(seq, (end, width));
    }

    /// Stop tracking a segment (completion or failure-requeue); `false`
    /// when `seq` was not tracked.
    pub fn remove(&mut self, seq: u64) -> bool {
        match self.entries.remove(&seq) {
            Some((end, _)) => {
                self.by_end.remove(&(end, seq));
                true
            }
            None => false,
        }
    }

    /// Earliest completion instant over all running segments.
    pub fn next_release(&self) -> Option<SimTime> {
        self.by_end.first().map(|&(end, _)| end)
    }

    /// Remove the segments with `end <= now` and append their seqs to
    /// `out`, in `(end, seq)` order; the caller reuses one buffer.
    pub fn pop_released(&mut self, now: SimTime, out: &mut Vec<u64>) {
        while let Some(&(end, seq)) = self.by_end.first() {
            if end > now {
                break;
            }
            self.by_end.pop_first();
            self.entries.remove(&seq);
            out.push(seq);
        }
    }

    /// The EASY shadow computation: starting from `avail` free nodes,
    /// walk releases in end order until at least `need` nodes are
    /// available. Returns `(shadow instant, nodes available then)`, or
    /// `None` when even a fully drained fleet cannot satisfy the head.
    /// Visits at most `need` entries — every release frees ≥ 1 node.
    pub fn shadow(&self, mut avail: usize, need: usize) -> Option<(SimTime, usize)> {
        for &(end, seq) in &self.by_end {
            let width = self.entries.get(&seq).map_or(0, |&(_, w)| w);
            avail += width;
            if avail >= need {
                return Some((end, avail));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + simcore::SimDuration::from_nanos(secs * 1_000_000_000)
    }

    /// The seqs [`ReleaseIndex::pop_released`] pops at `now`.
    fn popped(ix: &mut ReleaseIndex, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        ix.pop_released(now, &mut out);
        out
    }

    #[test]
    fn next_release_and_pop_follow_end_then_seq_order() {
        let mut ix = ReleaseIndex::new();
        ix.insert(2, t(30), 1);
        ix.insert(0, t(10), 2);
        ix.insert(1, t(10), 3);
        assert_eq!(ix.next_release(), Some(t(10)));
        assert_eq!(popped(&mut ix, t(10)), vec![0, 1]);
        assert_eq!(ix.len(), 1);
        assert_eq!(popped(&mut ix, t(29)), Vec::<u64>::new());
        assert_eq!(popped(&mut ix, t(30)), vec![2]);
        assert!(ix.is_empty());
    }

    #[test]
    fn shadow_matches_the_sorted_linear_walk() {
        let mut ix = ReleaseIndex::new();
        // Admission order 0..3; ends out of order; a tie at t(20).
        let segs = [(0u64, 20u64, 2usize), (1, 10, 1), (2, 20, 1), (3, 40, 4)];
        for &(seq, end, w) in &segs {
            ix.insert(seq, t(end), w);
        }
        // The reference implementation the engine used to run.
        let reference = |avail: usize, need: usize| -> Option<(SimTime, usize)> {
            let mut ends: Vec<(SimTime, usize)> =
                segs.iter().map(|&(_, end, w)| (t(end), w)).collect();
            ends.sort_by_key(|&(end, _)| end);
            let mut a = avail;
            for (end, w) in ends {
                a += w;
                if a >= need {
                    return Some((end, a));
                }
            }
            None
        };
        for avail in 0..3 {
            for need in 1..10 {
                assert_eq!(ix.shadow(avail, need), reference(avail, need), "avail {avail} need {need}");
            }
        }
        assert_eq!(ix.shadow(0, 100), None);
    }

    #[test]
    fn remove_untracks_exactly_one_segment() {
        let mut ix = ReleaseIndex::new();
        ix.insert(0, t(5), 1);
        ix.insert(1, t(5), 1);
        assert!(ix.remove(0));
        assert!(!ix.remove(0));
        assert_eq!(popped(&mut ix, t(5)), vec![1]);
    }
}
