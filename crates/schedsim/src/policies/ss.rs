//! SS — pure self-scheduling (LB4OMP's `SS`, reinterpreted for priority
//! assignment).
//!
//! In loop self-scheduling, SS hands out one chunk at a time and reacts to
//! nothing but the chunk just finished. Mapped onto priority balancing:
//! judge each task on its *last iteration only*, no history at all. The
//! most reactive policy in the zoo — and the most noise-sensitive, which
//! is exactly the trade-off LB4OMP documents for SS.

use super::tunables::HpcTunables;
use super::zoo::{classify, StepRule};
use crate::balancer::IterSample;

#[derive(Default)]
pub(crate) struct Ss;

impl StepRule for Ss {
    fn step(&mut self, _sample: &IterSample, util: f64, tun: &HpcTunables) -> i8 {
        classify(util, tun)
    }
}
