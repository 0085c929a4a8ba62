//! Scheduling policies, mirroring the Linux uapi constants the paper uses.

/// A task's scheduling policy. Policies map onto scheduling classes:
/// `Fifo`/`Rr` → real-time class, `Hpc` → the paper's HPC class (when
/// installed), `Normal`/`Batch` → CFS, `Idle` → idle class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SchedPolicy {
    /// `SCHED_FIFO`: real-time, runs until it yields or blocks.
    Fifo,
    /// `SCHED_RR`: real-time round-robin with a time slice.
    Rr,
    /// `SCHED_HPC`: the paper's new policy for HPC (MPI) processes.
    Hpc,
    /// `SCHED_NORMAL` (née `SCHED_OTHER`): ordinary CFS time-sharing.
    Normal,
    /// `SCHED_BATCH`: CFS, but never treated as interactive.
    Batch,
    /// `SCHED_IDLE`: only runs when nothing else is runnable.
    Idle,
}

impl SchedPolicy {
    /// Every policy, in declaration order: `ALL[p as usize] == p`.
    pub const ALL: [SchedPolicy; 6] = [
        SchedPolicy::Fifo,
        SchedPolicy::Rr,
        SchedPolicy::Hpc,
        SchedPolicy::Normal,
        SchedPolicy::Batch,
        SchedPolicy::Idle,
    ];

    /// True for the real-time policies whose semantics the class order
    /// must preserve (paper §III).
    pub const fn is_realtime(self) -> bool {
        matches!(self, SchedPolicy::Fifo | SchedPolicy::Rr)
    }

    /// True for policies handled by the CFS class.
    pub const fn is_fair(self) -> bool {
        matches!(self, SchedPolicy::Normal | SchedPolicy::Batch)
    }

    /// Kernel-style name.
    pub const fn name(self) -> &'static str {
        match self {
            SchedPolicy::Fifo => "SCHED_FIFO",
            SchedPolicy::Rr => "SCHED_RR",
            SchedPolicy::Hpc => "SCHED_HPC",
            SchedPolicy::Normal => "SCHED_NORMAL",
            SchedPolicy::Batch => "SCHED_BATCH",
            SchedPolicy::Idle => "SCHED_IDLE",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(SchedPolicy::Fifo.is_realtime());
        assert!(SchedPolicy::Rr.is_realtime());
        assert!(!SchedPolicy::Hpc.is_realtime());
        assert!(SchedPolicy::Normal.is_fair());
        assert!(SchedPolicy::Batch.is_fair());
        assert!(!SchedPolicy::Hpc.is_fair());
        assert!(!SchedPolicy::Idle.is_fair());
    }

    #[test]
    fn all_is_indexed_by_discriminant() {
        for (i, p) in SchedPolicy::ALL.into_iter().enumerate() {
            assert_eq!(p as usize, i);
        }
    }

    #[test]
    fn names() {
        assert_eq!(SchedPolicy::Hpc.name(), "SCHED_HPC");
        assert_eq!(SchedPolicy::Normal.name(), "SCHED_NORMAL");
    }
}
