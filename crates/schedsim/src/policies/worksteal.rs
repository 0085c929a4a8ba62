//! Work stealing — a queue discipline rather than a priority policy.
//!
//! Hardware priorities stay at the uniform default; balancing happens
//! entirely through migrations: an idle CPU steals from the *tail* of the
//! busiest run queue anywhere in the system (classic Cilk-style victim
//! choice, flattened across domain levels — contrast with the paper's
//! nearest-domain-first pull in [`crate::balance::plan_pull`]).

use super::zoo::StepRule;
use crate::balance::BalanceView;
use crate::class::Migration;
use crate::task::TaskId;
use power5::CpuId;

/// Priorities are never steered; stealing does all the balancing.
#[derive(Default)]
pub(crate) struct WorkSteal;

impl StepRule for WorkSteal {
    const STEERS: bool = false;

    fn plan_migrations(
        &mut self,
        view: &BalanceView<'_>,
        cpu: CpuId,
        idle: bool,
        allowed: &dyn Fn(TaskId, CpuId) -> bool,
    ) -> Option<Migration> {
        // Only genuinely idle thieves steal; busy CPUs never rebalance.
        if !idle || view.counts[cpu.0] != 0 {
            return None;
        }
        // Victim: the longest queue; ties break to the lowest CPU id so
        // the choice is deterministic.
        let victim = (0..view.queued.len())
            .filter(|&c| c != cpu.0 && !view.queued[c].is_empty())
            .max_by_key(|&c| (view.queued[c].len(), std::cmp::Reverse(c)))?;
        // Steal from the tail — the victim keeps its next-to-run work.
        let task = view.queued[victim].iter().rev().copied().find(|&t| allowed(t, cpu))?;
        Some(Migration { task, from: CpuId(victim), to: cpu })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power5::Topology;
    use std::collections::VecDeque;

    fn queued_on(per_cpu: &[&[usize]]) -> Vec<VecDeque<TaskId>> {
        per_cpu.iter().map(|ids| ids.iter().map(|&i| TaskId(i)).collect()).collect()
    }

    #[test]
    fn idle_cpu_steals_from_busiest_tail() {
        let topo = Topology::openpower_710();
        let counts = [0usize, 1, 3, 1];
        let queued = queued_on(&[&[], &[], &[5, 6, 7], &[9]]);
        let view = BalanceView { topology: &topo, counts: &counts, queued: &queued };
        let mut b = WorkSteal;
        let m = b.plan_migrations(&view, CpuId(0), true, &|_, _| true).expect("steal");
        assert_eq!(m.from, CpuId(2));
        assert_eq!(m.task, TaskId(7), "steals the tail, not the head");
    }

    #[test]
    fn busy_cpu_never_steals() {
        let topo = Topology::openpower_710();
        let counts = [1usize, 0, 3, 0];
        let queued = queued_on(&[&[1], &[], &[5, 6, 7], &[]]);
        let view = BalanceView { topology: &topo, counts: &counts, queued: &queued };
        let mut b = WorkSteal;
        assert!(b.plan_migrations(&view, CpuId(0), true, &|_, _| true).is_none());
        assert!(b.plan_migrations(&view, CpuId(1), false, &|_, _| true).is_none(), "not idle");
    }

    #[test]
    fn victim_ties_break_to_lowest_cpu() {
        let topo = Topology::openpower_710();
        let counts = [0usize, 2, 2, 0];
        let queued = queued_on(&[&[], &[1, 2], &[5, 6], &[]]);
        let view = BalanceView { topology: &topo, counts: &counts, queued: &queued };
        let mut b = WorkSteal;
        let m = b.plan_migrations(&view, CpuId(0), true, &|_, _| true).expect("steal");
        assert_eq!(m.from, CpuId(1));
    }
}
