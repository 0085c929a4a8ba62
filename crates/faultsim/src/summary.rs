//! Per-run fault accounting: what was injected, what the stack absorbed,
//! and what aborted. Rendered in the experiment report's fault summary
//! section and persisted in `BENCH_faults.json`.

use crate::error::FaultError;
use std::fmt;

/// Injected / absorbed / aborted counts per fault class for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultSummary {
    /// Class 1: CPU steal bursts delivered to the kernel.
    pub steal_bursts_injected: u64,
    /// Class 2: per-task speed-multiplier changes delivered.
    pub slowdowns_injected: u64,
    /// Class 3a: MPI messages that suffered a delay spike.
    pub mpi_delays_injected: u64,
    /// Class 3b: checkpoint/restart re-entries the job absorbed.
    pub restarts_absorbed: u64,
    /// Scheduler degradations absorbed: detector samples discarded as
    /// unusable, with priorities reset to the uniform floor.
    pub degraded_samples: u64,
    /// Terminal fault, if the run aborted instead of completing.
    pub aborted: Option<FaultError>,
}

impl FaultSummary {
    /// Total faults injected across all classes.
    pub fn injected(&self) -> u64 {
        self.steal_bursts_injected + self.slowdowns_injected + self.mpi_delays_injected
    }

    /// Total faults the stack absorbed without aborting.
    pub fn absorbed(&self) -> u64 {
        self.restarts_absorbed + self.degraded_samples
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected: steal={} slow={} mpi_delay={} | absorbed: restarts={} degraded={} | ",
            self.steal_bursts_injected,
            self.slowdowns_injected,
            self.mpi_delays_injected,
            self.restarts_absorbed,
            self.degraded_samples,
        )?;
        match &self.aborted {
            Some(e) => write!(f, "aborted: {e}"),
            None => write!(f, "completed"),
        }
    }
}
