//! FAC and AWF — factoring and adaptive weighted factoring (Hummel /
//! Flynn-Hummel et al.; LB4OMP's `FAC` and `AWF`), reinterpreted for
//! priority assignment.
//!
//! * **FAC** schedules work in *batches* whose size halves each round and
//!   only re-decides between batches. Mapped onto priority balancing: a
//!   task's samples accumulate into the current batch; at batch end the
//!   batch-mean utilization is classified and the batch size halves
//!   (initial 4, floor 1), so the policy starts deliberate and becomes
//!   per-iteration reactive as the run matures.
//! * **AWF** weighs each worker *relative to the others*. Mapped onto
//!   priority balancing: a task's weight is its cumulative utilization
//!   against the fleet mean; tasks more than half the balance spread above
//!   the mean are raised, more than half below are lowered. The only zoo
//!   policy whose decision for one task depends on the whole fleet —
//!   which is precisely what distinguishes AWF from FAC in LB4OMP.

use super::tunables::HpcTunables;
use super::zoo::{classify, usable_util, StepRule};
use crate::balancer::IterSample;
use crate::task::TaskId;
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimDuration;
use std::collections::BTreeMap;

const FAC_INITIAL_BATCH: u32 = 4;

#[derive(Clone, Copy, Debug)]
struct Batch {
    sum: f64,
    count: u32,
    size: u32,
}

impl Default for Batch {
    fn default() -> Self {
        Batch { sum: 0.0, count: 0, size: FAC_INITIAL_BATCH }
    }
}

impl Snapshot for Batch {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_f64(self.sum);
        w.put_u32(self.count);
        w.put_u32(self.size);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Batch { sum: r.get_f64()?, count: r.get_u32()?, size: r.get_u32()? })
    }
}

#[derive(Default)]
pub(crate) struct Fac {
    // BTreeMap, not HashMap: decisions must not depend on hash order.
    batches: BTreeMap<TaskId, Batch>,
}

impl StepRule for Fac {
    fn step(&mut self, sample: &IterSample, util: f64, tun: &HpcTunables) -> i8 {
        let batch = self.batches.entry(sample.task).or_default();
        batch.sum += util;
        batch.count += 1;
        if batch.count >= batch.size {
            let mean = batch.sum / batch.count as f64;
            *batch = Batch { sum: 0.0, count: 0, size: (batch.size / 2).max(1) };
            classify(mean, tun)
        } else {
            // Mid-batch: hold the current priority.
            0
        }
    }

    fn forget(&mut self, task: TaskId) {
        self.batches.remove(&task);
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.batches);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.batches = r.get()?;
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Accum {
    run: SimDuration,
    wall: SimDuration,
}

impl Snapshot for Accum {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.run);
        w.put(&self.wall);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Accum { run: r.get()?, wall: r.get()? })
    }
}

impl Accum {
    fn util(&self) -> Option<f64> {
        usable_util(self.run, self.wall)
    }
}

#[derive(Default)]
pub(crate) struct Awf {
    // BTreeMap, not HashMap: the fleet mean iterates the task set, and
    // decisions must not depend on hash order.
    accum: BTreeMap<TaskId, Accum>,
}

impl StepRule for Awf {
    fn step(&mut self, sample: &IterSample, _util: f64, tun: &HpcTunables) -> i8 {
        let acc = self.accum.entry(sample.task).or_default();
        acc.run += sample.run;
        acc.wall += sample.wall;
        // Weight the task against the fleet: mean cumulative utilization
        // over every tracked task (deterministic BTreeMap order).
        let (sum, n) = self
            .accum
            .values()
            .filter_map(Accum::util)
            .fold((0.0, 0u32), |(s, n), u| (s + u, n + 1));
        match self.accum.get(&sample.task).and_then(Accum::util) {
            Some(mine) if n >= 2 => {
                let mean = sum / n as f64;
                let band = tun.balance_spread / 2.0;
                if mine - mean >= band {
                    1
                } else if mean - mine >= band {
                    -1
                } else {
                    0
                }
            }
            // A lone task has no fleet to be weighed against.
            _ => 0,
        }
    }

    fn forget(&mut self, task: TaskId) {
        self.accum.remove(&task);
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.accum);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.accum = r.get()?;
        Ok(())
    }
}
