//! GSS — guided self-scheduling (Polychronopoulos & Kuck; LB4OMP's `GSS`),
//! reinterpreted for priority assignment.
//!
//! GSS assigns geometrically shrinking chunks: each new chunk counts as
//! much as all remaining work it halves. Mapped onto priority balancing:
//! an exponentially weighted utilization estimate with weight ½ —
//! `e ← (e + u) / 2` — so each iteration carries as much weight as the
//! entire history before it. Reacts in O(1) iterations like SS but keeps a
//! damping tail, the classic GSS compromise.

use super::tunables::HpcTunables;
use super::zoo::{classify, StepRule};
use crate::balancer::IterSample;
use crate::task::TaskId;
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;

#[derive(Default)]
pub(crate) struct Gss {
    // BTreeMap, not HashMap: decisions must not depend on hash order.
    estimate: BTreeMap<TaskId, f64>,
}

impl StepRule for Gss {
    fn step(&mut self, sample: &IterSample, util: f64, tun: &HpcTunables) -> i8 {
        let e = self
            .estimate
            .entry(sample.task)
            .and_modify(|e| *e = (*e + util) / 2.0)
            .or_insert(util);
        classify(*e, tun)
    }

    fn forget(&mut self, task: TaskId) {
        self.estimate.remove(&task);
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.estimate);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.estimate = r.get()?;
        Ok(())
    }
}
