//! The uniform/static baseline policy: the HPC class's placement benefit
//! with hardware priorities pinned at the default.
//!
//! Useful as the control arm of any policy comparison — whatever a dynamic
//! policy gains over `static` is attributable to priority steering, not to
//! class placement or domain balancing (which this policy keeps).

use super::zoo::StepRule;

/// Never moves a priority.
#[derive(Default)]
pub(crate) struct Static;

impl StepRule for Static {
    const STEERS: bool = false;
}
