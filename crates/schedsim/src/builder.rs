//! Convenience assembly: a simulated POWER5 machine running a kernel with
//! the HPC scheduling class — driven by any registered balancing policy.
//!
//! * the balancing policy is selected by registry name
//!   ([`KernelBuilder::policy`], default `"hpc"`) or injected as a custom
//!   [`Balancer`] instance ([`KernelBuilder::balancer`]);
//! * there is a single tunables path: the shared handle exists from
//!   [`KernelBuilder::new`] on and is read with [`KernelBuilder::tunables`].

use crate::balancer::Balancer;
use crate::classes::{BalancedClass, HpcPolicyKind};
use crate::config::KernelConfig;
use crate::error::SchedError;
use crate::kernel::Kernel;
use crate::policies::{self, HeuristicKind, HpcTunables, PolicyCtx, SharedTunables};
use power5::{AnalyticModel, Chip, TableModel, Topology};
use simcore::SimDuration;

/// Configuration of the HPC scheduling class.
#[derive(Clone, Debug)]
pub struct HpcSchedConfig {
    pub policy: HpcPolicyKind,
    /// RR time slice for HPC tasks.
    pub slice: SimDuration,
    /// Balancing policy, by [`policies::registry`] name.
    pub balancer: &'static str,
    /// Heuristic selection, honored by the heuristic-parametric `hpc`
    /// policy.
    pub heuristic: HeuristicKind,
    pub tunables: HpcTunables,
    /// Use the POWER5 mechanism (true) or the no-op mechanism for
    /// architectures without hardware prioritization (false).
    pub power5_mechanism: bool,
    /// Disable the dynamic heuristic entirely (class placement only).
    pub policy_only: bool,
}

impl Default for HpcSchedConfig {
    fn default() -> Self {
        HpcSchedConfig {
            policy: HpcPolicyKind::Rr,
            slice: SimDuration::from_millis(100),
            balancer: "hpc",
            heuristic: HeuristicKind::Uniform,
            tunables: HpcTunables::default(),
            power5_mechanism: true,
            policy_only: false,
        }
    }
}

/// Which SMT performance model the chip uses.
#[derive(Clone, Copy, Debug)]
pub enum PerfModelChoice {
    /// The calibrated table model (default; DESIGN.md §3.2).
    Table,
    /// The analytic rational model with concavity `k` (ablations).
    Analytic { k: f64 },
}

/// Builds a [`Kernel`] on a simulated POWER5 with (optionally) the HPC
/// class installed — the standard entry point for examples, tests and
/// experiments.
pub struct KernelBuilder {
    /// `None` builds the OpenPower 710 default.
    topology: Option<Topology>,
    kernel: KernelConfig,
    hpc: Option<HpcSchedConfig>,
    model: PerfModelChoice,
    /// The live tunables handle (the simulated sysfs mount); created up
    /// front so callers can hold it before and after the build.
    tunables: SharedTunables,
    custom: Option<Box<dyn Balancer>>,
    /// A `policy()` name that failed registry lookup, reported at build.
    bad_policy: Option<String>,
}

impl Default for KernelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelBuilder {
    /// Paper defaults: OpenPower 710 topology, Linux-2.6.24-like tunables,
    /// HPC class driven by the paper's Table-I policy (`hpc`).
    pub fn new() -> Self {
        KernelBuilder {
            topology: None,
            kernel: KernelConfig::default(),
            hpc: Some(HpcSchedConfig::default()),
            model: PerfModelChoice::Table,
            tunables: SharedTunables::default(),
            custom: None,
            bad_policy: None,
        }
    }

    pub fn topology(mut self, t: Topology) -> Self {
        self.topology = Some(t);
        self
    }

    pub fn kernel_config(mut self, c: KernelConfig) -> Self {
        self.kernel = c;
        self
    }

    pub fn noise(mut self, n: crate::config::NoiseConfig) -> Self {
        self.kernel.noise = n;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.kernel.seed = seed;
        self
    }

    /// Baseline kernel: no HPC class (the paper's "standard CFS" runs).
    pub fn without_hpc_class(mut self) -> Self {
        self.hpc = None;
        self
    }

    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: the builder is single-threaded; the only way this lock is \
                  poisoned is a panic already unwinding this thread."
    )]
    pub fn hpc_config(mut self, cfg: HpcSchedConfig) -> Self {
        // The shared handle is the single source of tunable truth; fold the
        // config's values into it so pre-build holders observe them.
        *self.tunables.lock().expect("tunables poisoned") = cfg.tunables;
        self.hpc = Some(cfg);
        self
    }

    /// Select the balancing policy by [`policies::registry`] name. Unknown
    /// names surface as [`SchedError::UnknownPolicy`] at build time.
    pub fn policy(mut self, name: &str) -> Self {
        match policies::canonical(name) {
            Some(canon) => {
                if let Some(cfg) = self.hpc.as_mut() {
                    cfg.balancer = canon;
                }
                self.bad_policy = None;
            }
            None => self.bad_policy = Some(name.to_owned()),
        }
        self
    }

    /// Install a custom [`Balancer`] instance instead of a registry policy
    /// (e.g. an experiment-local prototype).
    pub fn balancer(mut self, b: Box<dyn Balancer>) -> Self {
        self.custom = Some(b);
        self
    }

    pub fn heuristic(mut self, kind: HeuristicKind) -> Self {
        if let Some(h) = self.hpc.as_mut() {
            h.heuristic = kind;
        }
        self
    }

    pub fn perf_model(mut self, m: PerfModelChoice) -> Self {
        self.model = m;
        self
    }

    /// The shared tunables handle (the "sysfs mount"). Live from
    /// construction on: values set through it before [`Self::try_build`]
    /// are validated and used, and adjustments after the build steer the
    /// running kernel. Inert when built [`Self::without_hpc_class`].
    pub fn tunables(&self) -> SharedTunables {
        self.tunables.clone()
    }

    /// Build the kernel, validating the configuration first.
    ///
    /// # Errors
    /// [`SchedError::InvalidTopology`] if the topology has no CPUs, or if
    /// the analytic model's concavity is not a positive finite number;
    /// [`SchedError::UnknownPolicy`] if [`Self::policy`] was given a name
    /// not in the registry;
    /// [`SchedError::InvalidTunables`] if the HPC tunables fail validation
    /// (e.g. `low_util > high_util`).
    pub fn try_build(self) -> Result<Kernel, SchedError> {
        let topology = self.topology.unwrap_or_else(Topology::openpower_710);
        if topology.num_cpus() == 0 {
            return Err(SchedError::InvalidTopology("topology has no CPUs".into()));
        }
        if let PerfModelChoice::Analytic { k } = self.model {
            if !k.is_finite() || k <= 0.0 {
                return Err(SchedError::InvalidTopology(format!(
                    "analytic model concavity must be a positive finite number, got {k}"
                )));
            }
        }
        if let Some(name) = self.bad_policy {
            return Err(SchedError::UnknownPolicy(name));
        }
        if self.hpc.is_some() {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: single-threaded build; the only way this lock is poisoned \
                          is a panic already unwinding this thread."
            )]
            self.tunables
                .lock()
                .expect("tunables poisoned")
                .validate()
                .map_err(|e| SchedError::InvalidTunables(e.to_string()))?;
        }
        let chip = match self.model {
            // The calibrated table is pairwise; a topology with cores
            // wider than 2-way SMT silently upgrades to the analytic
            // n-way model at the table's default concavity.
            PerfModelChoice::Table if topology.max_smt_width() > 2 => {
                Chip::with_model(topology, Box::new(AnalyticModel::default()))
            }
            PerfModelChoice::Table => Chip::with_model(topology, Box::new(TableModel::default())),
            PerfModelChoice::Analytic { k } => {
                Chip::with_model(topology, Box::new(AnalyticModel { k }))
            }
        };
        let mut kernel = Kernel::new(chip, self.kernel);
        if let Some(cfg) = self.hpc {
            let registry = kernel.metrics_registry().clone();
            let balancer = match self.custom {
                Some(b) => b,
                None => {
                    let ctx = PolicyCtx {
                        tunables: self.tunables.clone(),
                        heuristic: cfg.heuristic,
                        power5_mechanism: cfg.power5_mechanism,
                        policy_only: cfg.policy_only,
                    };
                    // `policy()` canonicalized the name, and the struct
                    // field is documented as a registry name; an unknown
                    // one here is a caller-constructed config error.
                    let spec = policies::find(cfg.balancer)
                        .ok_or_else(|| SchedError::UnknownPolicy(cfg.balancer.to_owned()))?;
                    (spec.make)(&ctx)
                }
            };
            let mut class = BalancedClass::new(cfg.policy, cfg.slice, balancer);
            class.attach_telemetry(&registry);
            kernel.install_class_after_rt(Box::new(class));
        }
        Ok(kernel)
    }

    /// Build, panicking on an invalid configuration. Prefer
    /// [`Self::try_build`] in code that can surface errors.
    #[expect(
        clippy::panic,
        reason = "INVARIANT: panicking wrapper by documented contract; fallible callers use \
                  `try_build`."
    )]
    pub fn build(self) -> Kernel {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ScriptedProgram;
    use crate::{SchedPolicy, SpawnOptions};

    #[test]
    fn builder_installs_hpc_class() {
        let mut k = KernelBuilder::new().build();
        // An HPC task can be spawned only if a class handles SCHED_HPC.
        let t = k.spawn(
            "rank0",
            SchedPolicy::Hpc,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        assert!(k.run_until_exited(&[t], SimDuration::from_secs(1)).is_some());
    }

    #[test]
    #[should_panic(expected = "no class handles")]
    fn baseline_kernel_rejects_hpc_policy() {
        let mut k = KernelBuilder::new().without_hpc_class().build();
        k.spawn(
            "rank0",
            SchedPolicy::Hpc,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
    }

    #[test]
    fn tunables_handle_is_live_before_and_after_build() {
        let b = KernelBuilder::new();
        let handle = b.tunables();
        // Pre-build adjustment is used by the build...
        handle.lock().unwrap().set("high_util", "90").unwrap();
        let _k = b.try_build().expect("valid");
        // ...and the same handle keeps steering afterwards.
        assert_eq!(handle.lock().unwrap().get("high_util").unwrap(), "90");
        handle.lock().unwrap().set("high_util", "95").unwrap();
        assert_eq!(handle.lock().unwrap().get("high_util").unwrap(), "95");
    }

    #[test]
    fn hpc_config_folds_tunables_into_the_handle() {
        let mut cfg = HpcSchedConfig::default();
        cfg.tunables.high_util = 91.0;
        let b = KernelBuilder::new().hpc_config(cfg);
        assert_eq!(b.tunables().lock().unwrap().high_util, 91.0);
    }

    #[test]
    fn try_build_rejects_invalid_tunables() {
        let mut cfg = HpcSchedConfig::default();
        cfg.tunables.low_util = 90.0;
        cfg.tunables.high_util = 10.0;
        let err = match KernelBuilder::new().hpc_config(cfg).try_build() {
            Err(e) => e,
            Ok(_) => panic!("invalid tunables accepted"),
        };
        assert!(matches!(err, SchedError::InvalidTunables(_)), "got {err:?}");
        assert!(err.to_string().contains("invalid HPC tunables"));
    }

    #[test]
    fn try_build_rejects_bad_analytic_concavity() {
        let err = match KernelBuilder::new()
            .perf_model(PerfModelChoice::Analytic { k: f64::NAN })
            .try_build()
        {
            Err(e) => e,
            Ok(_) => panic!("NaN concavity accepted"),
        };
        assert!(matches!(err, SchedError::InvalidTopology(_)), "got {err:?}");
    }

    #[test]
    fn unknown_policy_is_a_build_error() {
        let err = match KernelBuilder::new().policy("lottery").try_build() {
            Err(e) => e,
            Ok(_) => panic!("unknown policy accepted"),
        };
        assert!(matches!(err, SchedError::UnknownPolicy(ref n) if n == "lottery"), "got {err:?}");
        assert!(err.to_string().contains("unknown policy"));
    }

    #[test]
    fn later_valid_policy_clears_earlier_bad_name() {
        let k = KernelBuilder::new().policy("nope").policy("gss").try_build();
        assert!(k.is_ok());
    }

    #[test]
    fn every_registry_policy_builds_and_runs() {
        for spec in crate::policies::registry() {
            let mut k = KernelBuilder::new().policy(spec.name).build();
            let t = k.spawn(
                "rank0",
                SchedPolicy::Hpc,
                Box::new(ScriptedProgram::compute_once(0.01)),
                SpawnOptions::default(),
            );
            assert!(
                k.run_until_exited(&[t], SimDuration::from_secs(1)).is_some(),
                "policy {} runs a task to completion",
                spec.name
            );
        }
    }

    #[test]
    fn custom_balancer_is_installed() {
        struct Noop;
        impl crate::balancer::Balancer for Noop {
            fn name(&self) -> &'static str {
                "noop"
            }
            fn on_sample(
                &mut self,
                _ctx: &crate::class::ClassCtx<'_>,
                _sample: crate::balancer::IterSample,
            ) -> crate::balancer::SampleOutcome {
                crate::balancer::SampleOutcome::Recorded
            }
            fn assign_priorities(
                &mut self,
                _ctx: &crate::class::ClassCtx<'_>,
                _task: crate::task::TaskId,
            ) -> Vec<crate::balancer::PrioAssignment> {
                Vec::new()
            }
        }
        let mut k = KernelBuilder::new().balancer(Box::new(Noop)).build();
        let t = k.spawn(
            "rank0",
            SchedPolicy::Hpc,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        assert!(k.run_until_exited(&[t], SimDuration::from_secs(1)).is_some());
    }

    #[test]
    fn builder_registers_hpc_decision_counters() {
        let k = KernelBuilder::new().try_build().expect("valid defaults");
        let snapshot = k.metrics_registry().snapshot();
        assert!(
            snapshot.get("hpc.decisions.uniform.accepted").is_some(),
            "HPC class telemetry is registered at build time"
        );
        assert!(snapshot.get("hpc.detector.balanced").is_some());
    }

    #[test]
    fn wide_smt_topology_builds_and_runs() {
        // A 4-way core would panic the pairwise table model; the builder
        // upgrades to the analytic model automatically.
        let mut k = KernelBuilder::new().topology(Topology::new(1, 1, 4)).build();
        let t = k.spawn(
            "rank0",
            SchedPolicy::Hpc,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        assert!(k.run_until_exited(&[t], SimDuration::from_secs(1)).is_some());
    }

    #[test]
    fn analytic_model_builds() {
        let mut k =
            KernelBuilder::new().perf_model(PerfModelChoice::Analytic { k: 3.0 }).build();
        let t = k.spawn(
            "t",
            SchedPolicy::Normal,
            Box::new(ScriptedProgram::compute_once(0.01)),
            SpawnOptions::default(),
        );
        assert!(k.run_until_exited(&[t], SimDuration::from_secs(1)).is_some());
    }
}
