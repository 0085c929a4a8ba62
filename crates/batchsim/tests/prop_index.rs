//! Reference model for `ReleaseIndex`: random histories of inserts (with
//! many tied completion instants), removals of tracked and untracked
//! segments, `pop_released` sweeps and shadow queries, each checked
//! against a plain admission-ordered list walked in O(n²) — the minimum
//! remaining `(end, seq)` picked afresh at every step.

use batchsim::ReleaseIndex;
use proptest::prelude::*;
use simcore::{SimDuration, SimTime};

fn t(secs: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(secs)
}

/// Running segments `(seq, end, width)` in admission order.
#[derive(Default)]
struct Model {
    segs: Vec<(u64, SimTime, usize)>,
}

impl Model {
    /// Segments in `(end, seq)` order by repeated minimum selection.
    fn walk(&self) -> Vec<(u64, SimTime, usize)> {
        let mut left = self.segs.clone();
        let mut out = Vec::with_capacity(left.len());
        while !left.is_empty() {
            let mut min = 0;
            for i in 1..left.len() {
                if (left[i].1, left[i].0) < (left[min].1, left[min].0) {
                    min = i;
                }
            }
            out.push(left.remove(min));
        }
        out
    }

    fn remove(&mut self, seq: u64) -> bool {
        let before = self.segs.len();
        self.segs.retain(|&(s, _, _)| s != seq);
        self.segs.len() != before
    }

    fn pop_released(&mut self, now: SimTime) -> Vec<u64> {
        let out: Vec<u64> =
            self.walk().into_iter().filter(|&(_, end, _)| end <= now).map(|(s, _, _)| s).collect();
        self.segs.retain(|&(_, end, _)| end > now);
        out
    }

    fn shadow(&self, mut avail: usize, need: usize) -> Option<(SimTime, usize)> {
        for (_, end, width) in self.walk() {
            avail += width;
            if avail >= need {
                return Some((end, avail));
            }
        }
        None
    }
}

#[derive(Clone, Debug)]
enum Op {
    Insert { end: u64, width: usize },
    Remove { seq: u64 },
    Pop { now: u64 },
    Shadow { avail: usize, need: usize },
}

fn op() -> impl Strategy<Value = Op> {
    // A narrow end range, so ties are the common case; inserts listed
    // twice to outweigh the draining ops.
    let insert = || (0u64..8, 1usize..4).prop_map(|(end, width)| Op::Insert { end, width });
    prop_oneof![
        insert(),
        insert(),
        (0u64..48).prop_map(|seq| Op::Remove { seq }),
        (0u64..10).prop_map(|now| Op::Pop { now }),
        (0usize..4, 1usize..16).prop_map(|(avail, need)| Op::Shadow { avail, need }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn release_index_matches_the_quadratic_walk(ops in proptest::collection::vec(op(), 1..80)) {
        let mut ix = ReleaseIndex::new();
        let mut model = Model::default();
        let mut next_seq = 0u64;
        for op in ops {
            match op {
                Op::Insert { end, width } => {
                    ix.insert(next_seq, t(end), width);
                    model.segs.push((next_seq, t(end), width));
                    next_seq += 1;
                }
                Op::Remove { seq } => prop_assert_eq!(ix.remove(seq), model.remove(seq)),
                Op::Pop { now } => {
                    prop_assert_eq!(ix.pop_released(t(now)), model.pop_released(t(now)));
                }
                Op::Shadow { avail, need } => {
                    prop_assert_eq!(ix.shadow(avail, need), model.shadow(avail, need));
                }
            }
            prop_assert_eq!(ix.len(), model.segs.len());
            prop_assert_eq!(ix.is_empty(), model.segs.is_empty());
            prop_assert_eq!(ix.next_release(), model.walk().first().map(|&(_, end, _)| end));
        }
    }
}
