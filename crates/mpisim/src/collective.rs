//! Collective operations.
//!
//! Each collective call site is a *generation*: the g-th collective call of
//! rank r joins generation g (MPI requires all ranks to issue the same
//! collective sequence, which is asserted). Completion semantics:
//!
//! * synchronizing ops (barrier, allreduce, alltoall) release every rank a
//!   tree-latency after the **last** arrival;
//! * rooted fan-in ops (reduce, gather) release non-roots as soon as their
//!   contribution is handed off, and the root a tree-latency after the last
//!   arrival;
//! * bcast releases the root immediately and every other rank a
//!   tree-latency after the **root** arrives (or its own arrival, whichever
//!   is later).

use crate::config::MpiConfig;
use crate::world::Rank;
use schedsim::{KernelApi, WaitToken};
use simcore::SimTime;

/// The collective operations the substrate models.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CollectiveOp {
    Barrier,
    Bcast { root: Rank },
    Reduce { root: Rank },
    Gather { root: Rank },
    Allreduce,
    Alltoall,
}

impl CollectiveOp {
    /// Does `rank` have to wait for every other rank?
    fn waits_for_all(&self, rank: Rank) -> bool {
        match *self {
            CollectiveOp::Barrier | CollectiveOp::Allreduce | CollectiveOp::Alltoall => true,
            CollectiveOp::Reduce { root } | CollectiveOp::Gather { root } => rank == root,
            CollectiveOp::Bcast { .. } => false,
        }
    }
}

struct GenState {
    /// The generation this state tracks; `None` once it has completed,
    /// when the state waits to be reused by a later generation.
    gen: Option<u64>,
    op: CollectiveOp,
    arrivals: Vec<Option<SimTime>>,
    /// Ranks whose completion is deferred until a condition resolves.
    pending: Vec<(Rank, WaitToken)>,
    arrived_count: usize,
}

/// Per-world collective bookkeeping.
pub struct Collectives {
    size: usize,
    /// Next generation index per rank.
    next_gen: Vec<u64>,
    /// The open generations, and the completed ones whose vectors a new
    /// generation reuses: as many states as generations were ever open at
    /// once, which is a handful, so lookups scan.
    states: Vec<GenState>,
}

impl Collectives {
    pub fn new(size: usize) -> Self {
        Collectives { size, next_gen: vec![0; size], states: Vec::new() }
    }

    /// Rank `rank` arrives at its next collective, which must be `op`.
    /// Returns the token the rank should block on.
    pub fn arrive(
        &mut self,
        api: &mut KernelApi<'_>,
        rank: Rank,
        op: CollectiveOp,
        bytes: u64,
        cfg: &MpiConfig,
    ) -> WaitToken {
        assert!(rank < self.size, "rank out of range");
        let gen = self.next_gen[rank];
        self.next_gen[rank] += 1;
        let size = self.size;
        let slot = match self.states.iter().position(|s| s.gen == Some(gen)) {
            Some(open) => open,
            None => self.open(gen, op),
        };
        let state = &mut self.states[slot];
        assert_eq!(
            state.op, op,
            "collective mismatch at generation {gen}: rank {rank} issued {op:?}, others {:?}",
            state.op
        );
        debug_assert!(state.arrivals[rank].is_none(), "rank re-entered collective");
        let now = api.now();
        state.arrivals[rank] = Some(now);
        state.arrived_count += 1;

        let token = api.new_token();
        let tree = cfg.collective_time(size) + cfg.transfer_time(bytes) - cfg.latency;

        // Can this rank's completion be resolved right now?
        let resolved_at: Option<SimTime> = match op {
            CollectiveOp::Bcast { root } => {
                if rank == root {
                    // Root hands the data to the tree and proceeds.
                    Some(now + cfg.latency)
                } else {
                    state.arrivals[root].map(|r| (r + tree).max(now))
                }
            }
            CollectiveOp::Reduce { root } | CollectiveOp::Gather { root } if rank != root => {
                Some(now + cfg.latency)
            }
            _ => None, // waits for all; resolved below if we are last
        };

        match resolved_at {
            Some(at) => api.signal_at(at.max(now), token),
            None => state.pending.push((rank, token)),
        }

        // Resolve deferred completions this arrival unlocks.
        if state.arrived_count == size {
            #[expect(
                clippy::expect_used,
                clippy::unwrap_used,
                reason = "INVARIANT: arrived_count == size means every slot was filled by the \
                          assignment above, so each arrival is Some and the non-empty vec has \
                          a max."
            )]
            let last = state.arrivals.iter().map(|a| a.expect("all arrived")).max().unwrap();
            let release = last + tree;
            for (r, tok) in state.pending.drain(..) {
                debug_assert!(state.op.waits_for_all(r) || matches!(op, CollectiveOp::Bcast { .. }));
                api.signal_at(release.max(now), tok);
            }
            state.gen = None;
        } else if let CollectiveOp::Bcast { root } = op {
            if rank == root {
                // Root just arrived: release all waiting receivers.
                let release = now + tree;
                for (_, tok) in state.pending.drain(..) {
                    api.signal_at(release, tok);
                }
            }
        }
        token
    }

    /// Start tracking generation `gen` in the state of a completed one, or
    /// in a new state when every state is open; returns its index.
    fn open(&mut self, gen: u64, op: CollectiveOp) -> usize {
        let slot = self.states.iter().position(|s| s.gen.is_none()).unwrap_or_else(|| {
            self.states.push(GenState {
                gen: None,
                op,
                arrivals: Vec::new(),
                pending: Vec::new(),
                arrived_count: 0,
            });
            self.states.len() - 1
        });
        let state = &mut self.states[slot];
        state.gen = Some(gen);
        state.op = op;
        state.arrivals.clear();
        state.arrivals.resize(self.size, None);
        state.arrived_count = 0;
        slot
    }

    /// Abort support: signal every deferred rank at `now` and drop all
    /// in-progress generations. Ranks wake, observe the abort flag upstream
    /// and exit; no collective can complete normally after this.
    pub(crate) fn release_all(&mut self, api: &mut KernelApi<'_>) {
        let now = api.now();
        for state in &mut self.states {
            for (_, tok) in state.pending.drain(..) {
                api.signal_at(now, tok);
            }
            state.gen = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedsim::program::MockApi;
    use simcore::SimDuration;

    fn cfg() -> MpiConfig {
        MpiConfig::default()
    }

    fn signal_time(m: &MockApi, tok: WaitToken) -> Option<SimTime> {
        m.deferred_signals.iter().find(|(_, t)| *t == tok).map(|(at, _)| *at)
    }

    #[test]
    fn barrier_releases_all_after_last() {
        let mut c = Collectives::new(3);
        let mut m = MockApi::new();
        let t0 = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
        m.now = SimTime::ZERO + SimDuration::from_millis(2);
        let t1 = c.arrive(&mut m.api(), 1, CollectiveOp::Barrier, 0, &cfg());
        assert!(signal_time(&m, t0).is_none());
        assert!(signal_time(&m, t1).is_none());
        m.now = SimTime::ZERO + SimDuration::from_millis(9);
        let t2 = c.arrive(&mut m.api(), 2, CollectiveOp::Barrier, 0, &cfg());
        let r0 = signal_time(&m, t0).unwrap();
        let r1 = signal_time(&m, t1).unwrap();
        let r2 = signal_time(&m, t2).unwrap();
        assert_eq!(r0, r1);
        assert_eq!(r1, r2);
        assert!(r0 > m.now, "release strictly after last arrival");
    }

    #[test]
    fn consecutive_barriers_are_independent_generations() {
        let mut c = Collectives::new(2);
        let mut m = MockApi::new();
        let _ = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
        let _ = c.arrive(&mut m.api(), 1, CollectiveOp::Barrier, 0, &cfg());
        // Rank 0 proceeds into a second barrier before rank 1's token is
        // even consumed — this must open generation 1, not re-join gen 0.
        let t0b = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
        assert!(signal_time(&m, t0b).is_none(), "gen 1 incomplete");
        let t1b = c.arrive(&mut m.api(), 1, CollectiveOp::Barrier, 0, &cfg());
        assert!(signal_time(&m, t0b).is_some());
        assert!(signal_time(&m, t1b).is_some());
    }

    #[test]
    fn completed_generations_are_reused() {
        let mut c = Collectives::new(2);
        let mut m = MockApi::new();
        for _ in 0..50 {
            let _ = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
            let _ = c.arrive(&mut m.api(), 1, CollectiveOp::Barrier, 0, &cfg());
        }
        assert_eq!(c.states.len(), 1, "one generation open at a time needs one state");
        // A non-root leaves a reduce early and opens the next generation
        // while the first is still open: two states, then reused.
        for _ in 0..10 {
            let _ = c.arrive(&mut m.api(), 1, CollectiveOp::Reduce { root: 0 }, 8, &cfg());
            let _ = c.arrive(&mut m.api(), 1, CollectiveOp::Barrier, 0, &cfg());
            let _ = c.arrive(&mut m.api(), 0, CollectiveOp::Reduce { root: 0 }, 8, &cfg());
            let _ = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
        }
        assert_eq!(c.states.len(), 2);
        assert!(c.states.iter().all(|s| s.gen.is_none()), "every generation completed");
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn mismatched_collectives_panic() {
        let mut c = Collectives::new(2);
        let mut m = MockApi::new();
        let _ = c.arrive(&mut m.api(), 0, CollectiveOp::Barrier, 0, &cfg());
        let _ = c.arrive(&mut m.api(), 1, CollectiveOp::Allreduce, 8, &cfg());
    }

    #[test]
    fn reduce_non_roots_leave_early() {
        let mut c = Collectives::new(3);
        let mut m = MockApi::new();
        let t1 = c.arrive(&mut m.api(), 1, CollectiveOp::Reduce { root: 0 }, 8, &cfg());
        let r1 = signal_time(&m, t1).expect("non-root releases immediately");
        assert_eq!(r1, m.now + cfg().latency);
        m.now = SimTime::ZERO + SimDuration::from_millis(1);
        let t0 = c.arrive(&mut m.api(), 0, CollectiveOp::Reduce { root: 0 }, 8, &cfg());
        assert!(signal_time(&m, t0).is_none(), "root waits for rank 2");
        m.now = SimTime::ZERO + SimDuration::from_millis(5);
        let _t2 = c.arrive(&mut m.api(), 2, CollectiveOp::Reduce { root: 0 }, 8, &cfg());
        let r0 = signal_time(&m, t0).expect("root released by last arrival");
        assert!(r0 > m.now);
    }

    #[test]
    fn bcast_receivers_wait_for_root_only() {
        let mut c = Collectives::new(3);
        let mut m = MockApi::new();
        let t1 = c.arrive(&mut m.api(), 1, CollectiveOp::Bcast { root: 0 }, 64, &cfg());
        assert!(signal_time(&m, t1).is_none(), "root not arrived");
        m.now = SimTime::ZERO + SimDuration::from_millis(3);
        let t0 = c.arrive(&mut m.api(), 0, CollectiveOp::Bcast { root: 0 }, 64, &cfg());
        let r0 = signal_time(&m, t0).expect("root proceeds");
        assert_eq!(r0, m.now + cfg().latency);
        let r1 = signal_time(&m, t1).expect("receiver released by root arrival");
        assert!(r1 > r0);
        // A late receiver completes relative to the root, not the stragglers.
        m.now = SimTime::ZERO + SimDuration::from_millis(20);
        let t2 = c.arrive(&mut m.api(), 2, CollectiveOp::Bcast { root: 0 }, 64, &cfg());
        let r2 = signal_time(&m, t2).expect("root already arrived");
        assert!(r2 >= m.now);
    }

    #[test]
    fn allreduce_synchronizes_everyone() {
        let mut c = Collectives::new(2);
        let mut m = MockApi::new();
        let ta = c.arrive(&mut m.api(), 0, CollectiveOp::Allreduce, 1024, &cfg());
        m.now = SimTime::ZERO + SimDuration::from_millis(7);
        let tb = c.arrive(&mut m.api(), 1, CollectiveOp::Allreduce, 1024, &cfg());
        let ra = signal_time(&m, ta).unwrap();
        let rb = signal_time(&m, tb).unwrap();
        assert_eq!(ra, rb);
        // Payload size contributes to the completion time.
        assert!(ra > m.now + cfg().collective_time(2));
    }
}
