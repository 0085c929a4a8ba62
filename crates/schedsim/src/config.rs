//! Kernel configuration and tunables.

use simcore::SimDuration;

/// CFS tunables (the `sched_*_ns` sysctls of Linux 2.6.2x).
#[derive(Clone, Copy, Debug)]
pub struct CfsTunables {
    /// Target scheduling period: every runnable task should run once per
    /// this span (paper §III: "no one waits … more than … 20ms").
    pub sched_latency: SimDuration,
    /// Lower bound on any task's slice within the period.
    pub min_granularity: SimDuration,
    /// A waking task preempts the current one only if it is owed at least
    /// this much virtual runtime — the knob behind the CFS wakeup latency
    /// the paper's SIESTA experiment exposes.
    pub wakeup_granularity: SimDuration,
}

impl Default for CfsTunables {
    fn default() -> Self {
        // Linux 2.6.24 defaults (the kernel the paper patches).
        CfsTunables {
            sched_latency: SimDuration::from_millis(20),
            min_granularity: SimDuration::from_millis(4),
            wakeup_granularity: SimDuration::from_millis(10),
        }
    }
}

/// OS-noise model: per-CPU background daemons with Poisson arrivals
/// (paper §I cites the OS as a major extrinsic source of imbalance;
/// §V-D relies on noise competing with SIESTA under CFS).
#[derive(Clone, Copy, Debug)]
pub struct NoiseConfig {
    /// Daemons per CPU.
    pub daemons_per_cpu: usize,
    /// Mean time between a daemon's activity bursts.
    pub mean_interval: SimDuration,
    /// Mean CPU work per burst, in work units (seconds at speed 1).
    pub mean_burst_work: f64,
}

impl NoiseConfig {
    /// No background activity.
    pub fn off() -> Self {
        NoiseConfig {
            daemons_per_cpu: 0,
            mean_interval: SimDuration::from_millis(100),
            mean_burst_work: 0.0,
        }
    }

    /// A lightly loaded HPC node: one daemon per CPU waking every ~80 ms
    /// for ~300 µs of work (≈0.4% CPU) — in line with published OS-noise
    /// measurements on HPC clusters.
    pub fn light() -> Self {
        NoiseConfig {
            daemons_per_cpu: 1,
            mean_interval: SimDuration::from_millis(80),
            mean_burst_work: 300e-6,
        }
    }

    /// A noisier node (several daemons, more frequent bursts).
    pub fn heavy() -> Self {
        NoiseConfig {
            daemons_per_cpu: 2,
            mean_interval: SimDuration::from_millis(20),
            mean_burst_work: 500e-6,
        }
    }

    pub fn is_off(&self) -> bool {
        self.daemons_per_cpu == 0 || self.mean_burst_work <= 0.0
    }
}

/// Top-level kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Scheduler tick period (1 ms = CONFIG_HZ 1000).
    pub tick: SimDuration,
    /// Time slice for `SCHED_RR` real-time tasks.
    pub rt_rr_slice: SimDuration,
    /// Direct cost charged on every context switch.
    pub ctx_switch_cost: SimDuration,
    pub cfs: CfsTunables,
    pub noise: NoiseConfig,
    /// Seed for kernel-internal randomness (noise daemons).
    pub seed: u64,
    /// Invoke per-class load balancing every N ticks per CPU (0 = only on
    /// idle).
    pub balance_interval_ticks: u32,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            tick: SimDuration::from_millis(1),
            rt_rr_slice: SimDuration::from_millis(100),
            ctx_switch_cost: SimDuration::from_micros(2),
            cfs: CfsTunables::default(),
            noise: NoiseConfig::off(),
            seed: 0x5EED,
            balance_interval_ticks: 64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_linux_2624() {
        let c = KernelConfig::default();
        assert_eq!(c.tick, SimDuration::from_millis(1));
        assert_eq!(c.cfs.sched_latency, SimDuration::from_millis(20));
        assert_eq!(c.cfs.wakeup_granularity, SimDuration::from_millis(10));
        assert_eq!(c.rt_rr_slice, SimDuration::from_millis(100));
    }

    #[test]
    fn noise_presets() {
        assert!(NoiseConfig::off().is_off());
        assert!(!NoiseConfig::light().is_off());
        assert!(NoiseConfig::heavy().daemons_per_cpu > NoiseConfig::light().daemons_per_cpu);
    }
}
