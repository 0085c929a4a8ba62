//! Typed fault outcomes.
//!
//! Injected faults that end a job early must surface as *values*, never as
//! panics: the runner still returns partial results and the trace collected
//! up to the fault, tagged with one of these errors.

use std::fmt;

/// Why a fault-injected run terminated without completing normally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// A rank hit a `FailStop` crash directive and the job aborted cleanly
    /// after `iteration` completed iterations on that rank.
    RankFailStop { rank: usize, iteration: u32 },
    /// The faulted run did not reach completion before the runner's
    /// simulated-time deadline.
    Deadline { secs: u64 },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::RankFailStop { rank, iteration } => {
                write!(f, "rank {rank} fail-stopped after iteration {iteration}; job aborted")
            }
            FaultError::Deadline { secs } => {
                write!(f, "faulted run exceeded the {secs}s simulated deadline")
            }
        }
    }
}

impl std::error::Error for FaultError {}
