//! TSS — trapezoid self-scheduling (Tzen & Ni; LB4OMP's `TSS`),
//! reinterpreted for priority assignment.
//!
//! TSS decreases chunk sizes *linearly* rather than geometrically. Mapped
//! onto priority balancing: a sliding window of the last `WINDOW`
//! iterations with linearly decaying weights (newest = `WINDOW`, oldest
//! = 1) — smoother than GSS's exponential discounting, faster than the
//! paper's all-history global metric.

use super::tunables::HpcTunables;
use super::zoo::{classify, StepRule};
use crate::balancer::IterSample;
use crate::task::TaskId;
use simcore::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::{BTreeMap, VecDeque};

const WINDOW: usize = 8;

#[derive(Default)]
pub(crate) struct Tss {
    // BTreeMap, not HashMap: decisions must not depend on hash order.
    window: BTreeMap<TaskId, VecDeque<f64>>,
}

/// Linearly weighted mean: the i-th newest sample has weight
/// `WINDOW - i`.
fn metric(samples: &VecDeque<f64>) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for (age, u) in samples.iter().rev().enumerate() {
        let w = (WINDOW - age) as f64;
        num += w * u;
        den += w;
    }
    num / den
}

impl StepRule for Tss {
    fn step(&mut self, sample: &IterSample, util: f64, tun: &HpcTunables) -> i8 {
        let w = self.window.entry(sample.task).or_default();
        w.push_back(util);
        if w.len() > WINDOW {
            w.pop_front();
        }
        classify(metric(w), tun)
    }

    fn forget(&mut self, task: TaskId) {
        self.window.remove(&task);
    }

    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.window);
    }

    fn restore(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.window = r.get()?;
        Ok(())
    }
}
