//! The stateful chip: per-context hardware priority registers and the
//! software interface for reading and writing them.
//!
//! The kernel's architecture-dependent "Mechanism" component (paper §IV-C)
//! talks to this type: it issues `or`-nops at supervisor privilege to set a
//! context's priority, and reads the registers back. The scheduler core asks
//! the chip for the current [`crate::SpeedFactors`] of each core so the simulation
//! can advance task work at the right rate.

use crate::perf::{CtxLoad, PerfModel, TableModel, TaskPerfTraits};
use crate::priority::{issue_or_nop, HwPriority, PriorityError, PrivilegeLevel};
use crate::topology::{ContextId, CoreId, CpuId, Topology};
use std::sync::Arc;

/// The software-visible state of one hardware context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContextState {
    /// Current hardware thread priority.
    pub priority: HwPriority,
    /// Whether a task is currently dispatched here, and its performance
    /// traits. `None` = context idle (the kernel's idle loop on POWER5
    /// drops the thread priority so the sibling gets the core; we model
    /// idle as ceding all resources).
    pub load: Option<TaskPerfTraits>,
}

impl Default for ContextState {
    fn default() -> Self {
        ContextState { priority: HwPriority::MEDIUM, load: None }
    }
}

impl ContextState {
    fn as_ctx_load(&self) -> CtxLoad {
        match self.load {
            Some(traits) => CtxLoad::Busy { prio: self.priority, traits },
            None => CtxLoad::Idle,
        }
    }
}

/// What an *idle* hardware context does to its busy sibling.
///
/// On the paper's Linux 2.6.24/POWER5 setup the idle loop **spins** on the
/// context at medium priority, still consuming decode slots — the busy
/// sibling does *not* get single-thread speed just because its sibling has
/// nothing to run. (This is precisely why boosting the busy thread's
/// hardware priority pays off even while its partner waits on a barrier.)
/// `Snooze` models an idle loop that drops the thread priority to Very low,
/// ceding the core — kept as an ablation knob.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IdleMode {
    /// Idle context spins at Medium priority (Linux 2.6.24 default).
    Spin,
    /// Idle context cedes the core; the sibling runs at ~ST speed.
    Snooze,
}

/// A simulated machine's worth of POWER5 silicon (one or more chips — the
/// name reflects the paper's single-chip machine, but multi-chip topologies
/// are supported for the cluster-direction experiments).
pub struct Chip {
    /// Shared with whoever built the chip: a fleet of nodes of one shape
    /// builds every chip on one tree.
    topology: Arc<Topology>,
    contexts: Vec<ContextState>,
    model: Box<dyn PerfModel + Send + Sync>,
    prio_writes: u64,
    idle_mode: IdleMode,
    /// Per-CPU speeds as last computed by [`Chip::speeds`].
    speeds: Vec<f64>,
    /// Whether a model input (a load, a priority, the idle mode) changed
    /// since `speeds` was computed.
    stale: bool,
}

impl Chip {
    /// Build a chip with the default performance model for its shape: the
    /// calibrated pairwise table for cores up to 2-way SMT, the analytic
    /// n-way model for wider cores (the table is only defined pairwise).
    pub fn new(topology: impl Into<Arc<Topology>>) -> Self {
        let topology = topology.into();
        if topology.max_smt_width() > 2 {
            Chip::with_model(topology, Box::new(crate::perf::AnalyticModel::default()))
        } else {
            Chip::with_model(topology, Box::new(TableModel::default()))
        }
    }

    /// Build a chip with a custom performance model (used by ablations).
    /// The topology is a tree of its own or one shared with other chips.
    pub fn with_model(
        topology: impl Into<Arc<Topology>>,
        model: Box<dyn PerfModel + Send + Sync>,
    ) -> Self {
        let topology = topology.into();
        let n = topology.num_cpus();
        Chip {
            topology,
            contexts: vec![ContextState::default(); n],
            model,
            prio_writes: 0,
            idle_mode: IdleMode::Spin,
            speeds: Vec::with_capacity(n),
            stale: true,
        }
    }

    /// Change the idle-loop model (ablations).
    pub fn set_idle_mode(&mut self, mode: IdleMode) {
        self.stale |= self.idle_mode != mode;
        self.idle_mode = mode;
    }

    pub fn idle_mode(&self) -> IdleMode {
        self.idle_mode
    }

    /// How an unloaded context presents to the arbitration model.
    fn idle_ctx_load(&self) -> CtxLoad {
        match self.idle_mode {
            // The spinning idle loop consumes decode slots like a medium-
            // priority compute thread, but its "speed" is meaningless.
            IdleMode::Spin => CtxLoad::Busy {
                prio: HwPriority::MEDIUM,
                traits: TaskPerfTraits::default(),
            },
            IdleMode::Snooze => CtxLoad::Idle,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Current state of a context.
    pub fn context(&self, cpu: CpuId) -> ContextState {
        self.contexts[cpu.0]
    }

    /// Read the hardware priority of a context (always permitted; the PPR
    /// register is readable at any privilege).
    pub fn priority_of(&self, cpu: CpuId) -> HwPriority {
        self.contexts[cpu.0].priority
    }

    /// Number of priority writes issued so far (mechanism overhead metric).
    pub fn priority_writes(&self) -> u64 {
        self.prio_writes
    }

    /// Issue an `or X,X,X` nop on `cpu` at the given privilege, requesting
    /// `prio`. Mirrors the real interface: the instruction executes on the
    /// context whose priority changes.
    pub fn set_priority(
        &mut self,
        cpu: CpuId,
        prio: HwPriority,
        level: PrivilegeLevel,
    ) -> Result<(), PriorityError> {
        let effective = issue_or_nop(prio, level)?;
        self.write_priority(cpu, effective);
        self.prio_writes += 1;
        Ok(())
    }

    /// Hypervisor-only direct register write (used to model thread on/off
    /// and test setup; bypasses the or-nop encoding restriction).
    pub fn set_priority_hypervisor(&mut self, cpu: CpuId, prio: HwPriority) {
        self.write_priority(cpu, prio);
        self.prio_writes += 1;
    }

    /// Dispatch a task (its perf traits) onto a context, or clear it.
    pub fn set_load(&mut self, cpu: CpuId, load: Option<TaskPerfTraits>) {
        let ctx = &mut self.contexts[cpu.0];
        // Bitwise, so that a write the model could tell apart (a NaN, a
        // signed zero) always counts as a change.
        let bits = |l: Option<TaskPerfTraits>| {
            l.map(|t| (t.gain_sensitivity.to_bits(), t.loss_sensitivity.to_bits()))
        };
        if bits(ctx.load) != bits(load) {
            ctx.load = load;
            self.stale = true;
        }
    }

    /// Reset a context's priority to the boot default (Medium).
    pub fn reset_priority(&mut self, cpu: CpuId) {
        self.write_priority(cpu, HwPriority::MEDIUM);
    }

    fn write_priority(&mut self, cpu: CpuId, prio: HwPriority) {
        let ctx = &mut self.contexts[cpu.0];
        if ctx.priority != prio {
            ctx.priority = prio;
            self.stale = true;
        }
    }

    /// Speed factors of every CPU, indexed by CPU id, memoised. Speeds
    /// are a pure function of the contexts' loads and priorities and the
    /// idle mode, so they are recomputed only after one of those actually
    /// changed; a write of the value already held keeps the cached speeds,
    /// which are bit-for-bit what a fresh computation returns. Allocates
    /// nothing after the first call, for cores up to 2-way SMT (wider
    /// cores hand the model a fresh context list).
    pub fn speeds(&mut self) -> &[f64] {
        if self.stale {
            let mut out = std::mem::take(&mut self.speeds);
            self.compute_speeds(&mut out);
            self.speeds = out;
            self.stale = false;
        }
        &self.speeds
    }

    /// Clear `out` and fill it with every CPU's speed.
    fn compute_speeds(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.topology.num_cpus(), 0.0);
        for core in self.topology.cores() {
            self.each_core_speed(core, |cpu, s| out[cpu.0] = s);
        }
    }

    /// Feed `f` the speed of each context of `core`, in context order.
    ///
    /// For single-thread cores the single context runs at ST speed whenever
    /// loaded. On SMT cores an *unloaded* context is presented to the model
    /// according to [`IdleMode`]; an unloaded context's own speed is always
    /// reported as 0.
    fn each_core_speed(&self, core: CoreId, mut f: impl FnMut(CpuId, f64)) {
        let present = |cpu: CpuId| -> CtxLoad {
            let st = self.contexts[cpu.0];
            if st.load.is_some() {
                st.as_ctx_load()
            } else {
                self.idle_ctx_load()
            }
        };
        let loaded_speed =
            |cpu: CpuId, s: f64| if self.contexts[cpu.0].load.is_some() { s } else { 0.0 };
        let cpus = self.topology.core_range(core);
        match cpus.len() {
            1 => {
                let only = CpuId(cpus.start);
                let s = self.model.speeds(self.contexts[only.0].as_ctx_load(), CtxLoad::Idle);
                f(only, s.a);
            }
            2 => {
                let (a, b) = (CpuId(cpus.start), CpuId(cpus.start + 1));
                let s = self.model.speeds(present(a), present(b));
                f(a, loaded_speed(a, s.a));
                f(b, loaded_speed(b, s.b));
            }
            _ => {
                // Wide SMT core: ask the model for all contexts at once.
                let loads: Vec<CtxLoad> = cpus.clone().map(|c| present(CpuId(c))).collect();
                let speeds = self.model.speeds_many(&loads);
                for (c, s) in cpus.zip(speeds) {
                    f(CpuId(c), loaded_speed(CpuId(c), s));
                }
            }
        }
    }

    /// The context slot of `cpu` (exposed for diagnostics).
    pub fn context_slot(&self, cpu: CpuId) -> ContextId {
        self.topology.context_of(cpu)
    }
}

impl std::fmt::Debug for Chip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chip")
            .field("topology", &self.topology)
            .field("contexts", &self.contexts)
            .field("prio_writes", &self.prio_writes)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> Chip {
        Chip::new(Topology::openpower_710())
    }

    fn p(v: u8) -> HwPriority {
        HwPriority::new(v).unwrap()
    }

    #[test]
    fn boot_state_is_medium_idle() {
        let mut c = chip();
        let speeds = c.speeds().to_vec();
        for cpu in c.topology().cpus() {
            assert_eq!(c.priority_of(cpu), HwPriority::MEDIUM);
            assert_eq!(c.context(cpu).load, None);
            assert_eq!(speeds[cpu.0], 0.0, "idle context has no speed");
        }
    }

    #[test]
    fn supervisor_sets_high_priority() {
        let mut c = chip();
        c.set_priority(CpuId(0), p(6), PrivilegeLevel::Supervisor).unwrap();
        assert_eq!(c.priority_of(CpuId(0)), p(6));
        assert_eq!(c.priority_writes(), 1);
    }

    #[test]
    fn user_cannot_set_high_priority() {
        let mut c = chip();
        let err = c.set_priority(CpuId(0), p(6), PrivilegeLevel::User).unwrap_err();
        assert!(matches!(err, PriorityError::InsufficientPrivilege { .. }));
        assert_eq!(c.priority_of(CpuId(0)), HwPriority::MEDIUM, "state unchanged");
    }

    #[test]
    fn speeds_follow_priorities() {
        let mut c = chip();
        let t = TaskPerfTraits::default();
        c.set_load(CpuId(0), Some(t));
        c.set_load(CpuId(1), Some(t));
        // Equal priorities.
        let s0 = c.speeds()[0];
        let s1 = c.speeds()[1];
        assert!((s0 - 0.8).abs() < 1e-12);
        assert!((s1 - 0.8).abs() < 1e-12);
        // Favour cpu0 by 2.
        c.set_priority(CpuId(0), p(6), PrivilegeLevel::Supervisor).unwrap();
        assert!(c.speeds()[0] > 0.9);
        assert!(c.speeds()[1] < 0.3);
    }

    #[test]
    fn spinning_idle_sibling_keeps_smt_speed() {
        // Default (Spin): the idle loop occupies the sibling context at
        // Medium priority, so the busy thread stays at equal-SMT speed.
        let mut c = chip();
        c.set_load(CpuId(2), Some(TaskPerfTraits::default()));
        assert!((c.speeds()[2] - 0.8).abs() < 1e-12);
        assert_eq!(c.speeds()[3], 0.0);
    }

    #[test]
    fn prioritized_thread_beats_spinning_idle_loop() {
        // A High-priority thread outruns the Medium-priority idle spin —
        // the effect the paper's balancing relies on during wait phases.
        let mut c = chip();
        c.set_load(CpuId(2), Some(TaskPerfTraits::default()));
        c.set_priority(CpuId(2), p(6), PrivilegeLevel::Supervisor).unwrap();
        assert!((c.speeds()[2] - 0.8 * 1.15).abs() < 1e-9);
    }

    #[test]
    fn snoozing_idle_sibling_means_st_speed() {
        let mut c = chip();
        c.set_idle_mode(IdleMode::Snooze);
        assert_eq!(c.idle_mode(), IdleMode::Snooze);
        c.set_load(CpuId(2), Some(TaskPerfTraits::default()));
        assert!((c.speeds()[2] - 1.0).abs() < 1e-12);
        assert_eq!(c.speeds()[3], 0.0);
    }

    #[test]
    fn cores_are_independent() {
        let mut c = chip();
        let t = TaskPerfTraits::default();
        for cpu in c.topology().cpus() {
            c.set_load(cpu, Some(t));
        }
        c.set_priority(CpuId(0), p(6), PrivilegeLevel::Supervisor).unwrap();
        // Core 1 (cpus 2,3) is untouched.
        assert!((c.speeds()[2] - 0.8).abs() < 1e-12);
        assert!((c.speeds()[3] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn reset_priority_restores_medium() {
        let mut c = chip();
        c.set_priority(CpuId(0), p(5), PrivilegeLevel::Supervisor).unwrap();
        c.reset_priority(CpuId(0));
        assert_eq!(c.priority_of(CpuId(0)), HwPriority::MEDIUM);
    }

    #[test]
    fn hypervisor_write_can_switch_thread_off() {
        let mut c = chip();
        let t = TaskPerfTraits::default();
        c.set_load(CpuId(0), Some(t));
        c.set_load(CpuId(1), Some(t));
        c.set_priority_hypervisor(CpuId(1), HwPriority::OFF);
        assert!((c.speeds()[0] - 1.0).abs() < 1e-12, "sibling owns the core");
        assert_eq!(c.speeds()[1], 0.0);
    }

    #[test]
    fn single_thread_topology_speeds() {
        let mut c = Chip::new(Topology::single_core_st());
        c.set_load(CpuId(0), Some(TaskPerfTraits::default()));
        assert!((c.speeds()[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memoised_speeds_recompute_only_on_change() {
        let mut c = chip();
        let t = TaskPerfTraits::default();
        c.set_load(CpuId(0), Some(t));
        let first = c.speeds().to_vec();
        assert!(!c.stale);
        // Re-writing the values already held changes nothing.
        c.set_load(CpuId(0), Some(t));
        c.set_priority(CpuId(0), HwPriority::MEDIUM, PrivilegeLevel::Supervisor).unwrap();
        c.reset_priority(CpuId(1));
        c.set_idle_mode(IdleMode::Spin);
        assert!(!c.stale, "same-value writes keep the memo");
        assert_eq!(c.priority_writes(), 1, "every register write still counts");
        c.set_priority(CpuId(0), p(6), PrivilegeLevel::Supervisor).unwrap();
        assert!(c.stale);
        assert_ne!(c.speeds(), &first[..]);
    }

    /// One write to a chip's inputs, drawn by the property test.
    #[derive(Clone, Debug)]
    enum Write {
        Load(usize, Option<(f64, f64)>),
        Priority(usize, u8),
        Hypervisor(usize, u8),
        Reset(usize),
        Idle(bool),
    }

    fn write_strategy() -> impl proptest::strategy::Strategy<Value = Write> {
        use proptest::prelude::*;
        // Few distinct values, so writes often repeat what a context holds.
        let traits = prop_oneof![
            Just(None),
            Just(Some((1.0, 1.0))),
            Just(Some((1.0, 0.1))),
            Just(Some((0.6, 0.1))),
        ];
        prop_oneof![
            (0usize..8, traits).prop_map(|(c, l)| Write::Load(c, l)),
            (0usize..8, 0u8..8).prop_map(|(c, v)| Write::Priority(c, v)),
            (0usize..8, 0u8..8).prop_map(|(c, v)| Write::Hypervisor(c, v)),
            (0usize..8).prop_map(Write::Reset),
            any::<bool>().prop_map(Write::Idle),
        ]
    }

    /// The inputs a chip should hold after a sequence of writes, tracked
    /// independently of [`Chip`].
    struct Inputs {
        contexts: Vec<ContextState>,
        idle_mode: IdleMode,
    }

    /// Apply `w` to the chip and to the independently tracked inputs.
    fn apply(c: &mut Chip, want: &mut Inputs, w: &Write) {
        let n = c.topology().num_cpus();
        match *w {
            Write::Load(cpu, l) => {
                let load = l.map(|(g, s)| TaskPerfTraits::new(g, s));
                c.set_load(CpuId(cpu % n), load);
                want.contexts[cpu % n].load = load;
            }
            Write::Priority(cpu, v) => {
                // Requests the or-nop cannot encode at supervisor level
                // are rejected and change nothing.
                let ok = c.set_priority(CpuId(cpu % n), p(v), PrivilegeLevel::Supervisor).is_ok();
                assert_eq!(ok, issue_or_nop(p(v), PrivilegeLevel::Supervisor).is_ok());
                if ok {
                    want.contexts[cpu % n].priority = p(v);
                }
            }
            Write::Hypervisor(cpu, v) => {
                c.set_priority_hypervisor(CpuId(cpu % n), p(v));
                want.contexts[cpu % n].priority = p(v);
            }
            Write::Reset(cpu) => {
                c.reset_priority(CpuId(cpu % n));
                want.contexts[cpu % n].priority = HwPriority::MEDIUM;
            }
            Write::Idle(snooze) => {
                let mode = if snooze { IdleMode::Snooze } else { IdleMode::Spin };
                c.set_idle_mode(mode);
                want.idle_mode = mode;
            }
        }
    }

    /// A chip built fresh from `want`, never read before.
    fn fresh_twin(topology: &Topology, want: &Inputs) -> Chip {
        let mut twin = Chip::new(topology.clone());
        twin.set_idle_mode(want.idle_mode);
        for (cpu, ctx) in topology.cpus().zip(&want.contexts) {
            twin.set_load(cpu, ctx.load);
            twin.set_priority_hypervisor(cpu, ctx.priority);
        }
        twin
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|s| s.to_bits()).collect()
    }

    proptest::proptest! {
        /// After every write, the memoised speeds equal bit for bit those
        /// of a chip built fresh with the same inputs: on the OpenPower
        /// 710 (pairwise table model) and on 4-way SMT cores (analytic
        /// n-way model).
        #[test]
        fn memoised_speeds_match_a_fresh_chip(
            writes in proptest::collection::vec(write_strategy(), 1..120),
            wide in proptest::prelude::any::<bool>(),
        ) {
            let topo = if wide { Topology::new(1, 2, 4) } else { Topology::openpower_710() };
            let mut memo = Chip::new(topo.clone());
            let mut want = Inputs {
                contexts: vec![ContextState::default(); topo.num_cpus()],
                idle_mode: IdleMode::Spin,
            };
            for w in &writes {
                apply(&mut memo, &mut want, w);
                let fresh = bits(fresh_twin(&topo, &want).speeds());
                proptest::prop_assert_eq!(bits(memo.speeds()), fresh, "after {:?}", w);
            }
        }
    }

    #[test]
    fn wide_smt_core_uses_the_nway_model() {
        // A 4-way core auto-selects the analytic model; loaded contexts
        // share the core, unloaded ones report 0.
        let mut c = Chip::new(Topology::new(1, 1, 4));
        for cpu in [CpuId(0), CpuId(1), CpuId(2)] {
            c.set_load(cpu, Some(TaskPerfTraits::default()));
        }
        let speeds = c.speeds();
        assert_eq!(speeds.len(), 4);
        assert!(speeds[0] > 0.0 && speeds[1] > 0.0 && speeds[2] > 0.0);
        assert_eq!(speeds[3], 0.0);
        // With snoozing (ceding) idle siblings a solo task on the wide
        // core still runs at ST speed; spinning idles would compete for
        // decode slots, exactly as on the 2-way core.
        let mut solo = Chip::new(Topology::new(1, 1, 4));
        solo.set_idle_mode(IdleMode::Snooze);
        solo.set_load(CpuId(1), Some(TaskPerfTraits::default()));
        assert!((solo.speeds()[1] - 1.0).abs() < 1e-9);
    }
}
