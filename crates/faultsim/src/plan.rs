//! Declarative fault plans and their compilation into per-layer hooks.
//!
//! A [`FaultPlan`] is built either programmatically or from the textual
//! `--faults` spec accepted by every experiment binary. The spec is a
//! semicolon-separated list of clauses:
//!
//! ```text
//! seed=7
//! steal:cpu=0,period=250ms,duration=20ms,count=40[,jitter]
//! slow:rank=1,at=2s,factor=0.5
//! mpidelay:prob=0.1,extra=500us
//! crash:rank=2,iter=3,policy=failstop
//! crash:rank=2,iter=3,policy=restart,delay=100ms
//! nodefail:node=1,iter=5,retries=2[,restart=1s]
//! taskabort:job=3,node=0,aborts=2[,hang]
//! ckptcorrupt:at=2
//! ```
//!
//! Durations accept `s`, `ms`, `us` and `ns` suffixes; a bare number means
//! seconds. Compilation is deterministic: randomized schedules (`jitter`)
//! draw only from the plan's own [`SplitMix64`] stream, and an empty plan
//! compiles to nothing at all.

use crate::rng::SplitMix64;
use mpisim::fault::{MpiFaultConfig, RankCrash, RankFailurePolicy};
use power5::CpuId;
use schedsim::fault::FaultEvent;
use schedsim::TaskId;
use simcore::{SimDuration, SimTime};
use std::fmt;

/// A malformed `--faults` spec. Carries a human-readable explanation of the
/// first offending clause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Class 1 — OS noise / daemon interference: CPU steal bursts on one
/// hardware context. With `jitter` the inter-burst gaps are randomized
/// around `period` using the plan's own RNG stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StealSpec {
    /// Hardware context the daemon steals.
    pub cpu: usize,
    /// Nominal gap between burst starts, seconds.
    pub period: f64,
    /// Length of each burst, seconds.
    pub duration: f64,
    /// Number of bursts to inject.
    pub count: u32,
    /// Randomize gaps in `[0.5, 1.5) × period` instead of a fixed cadence.
    pub jitter: bool,
}

/// Class 2 — compute slowdown / straggler drift: one timed change of a
/// rank's speed multiplier (1.0 = nominal, 0.5 = half speed).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SlowSpec {
    /// Application rank (index into the spawned rank list).
    pub rank: usize,
    /// Simulated time of the change, seconds.
    pub at: f64,
    /// New speed multiplier; must be finite and non-negative.
    pub factor: f64,
}

/// Class 3a — MPI message delay spikes: each message independently suffers
/// `extra` additional latency with probability `prob`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelaySpec {
    /// Per-message spike probability in `[0, 1]`.
    pub prob: f64,
    /// Additional latency per spiked message, seconds.
    pub extra: f64,
}

/// What happens when a rank crashes (class 3b).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CrashPolicy {
    /// The whole job aborts cleanly; the runner returns partial results plus
    /// a typed [`crate::FaultError::RankFailStop`].
    FailStop,
    /// Checkpoint/restart: the rank re-enters at the last completed barrier
    /// after `delay` seconds of simulated recovery time.
    Restart { delay: f64 },
}

/// Class 3b — rank stall/crash at an iteration boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CrashSpec {
    /// Application rank that crashes.
    pub rank: usize,
    /// Completed-iteration count at which the crash fires.
    pub iteration: u32,
    pub policy: CrashPolicy,
}

/// Class 4 — node failure at cluster level. Consumed by batchsim
/// (`BatchFault::from_spec`), which marks the node down and requeues the
/// job running there onto the survivors.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeFailSpec {
    /// Node that dies.
    pub node: usize,
    /// Completed jobs after which it dies.
    pub iteration: u32,
    /// Requeues before the job gives up with a degraded result.
    pub retries: u32,
    /// Simulated checkpoint-restore overhead when the job resumes, seconds.
    pub restart_secs: f64,
}

/// Class 5 — transient task abort: a worker task in the batch fleet panics
/// (or, with `hang`, wedges) while simulating one job's segment on one
/// node. Consumed by `batchsim`'s supervised oracle: the first `aborts`
/// attempts fail, so the outcome depends only on the supervisor's retry
/// budget, never on wall-clock scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskAbortSpec {
    /// Batch job id whose measurement aborts.
    pub job: u64,
    /// Node index (within the job's placement) whose segment aborts.
    pub node: usize,
    /// Number of leading attempts that fail before one succeeds.
    pub aborts: u32,
    /// Wedge instead of panicking, so the supervisor's watchdog — not the
    /// unwind path — has to convert the attempt into a typed failure.
    pub hang: bool,
}

/// Class 6 — checkpoint corruption: the `at`-th checkpoint file written
/// (1-based) is corrupted in place after the save, so a later resume must
/// detect the bad checksum and fall back to the previous good checkpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CkptCorruptSpec {
    /// Which save gets corrupted, counting from 1.
    pub nth: u32,
}

/// A complete, seeded fault schedule for one run.
///
/// `FaultPlan::default()` is the empty plan: it injects nothing, draws no
/// random values, and leaves a run byte-identical to one without faultsim.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every randomized choice the plan makes.
    pub seed: u64,
    pub steal: Vec<StealSpec>,
    pub slow: Vec<SlowSpec>,
    pub mpi_delay: Option<DelaySpec>,
    pub crash: Option<CrashSpec>,
    pub node_failure: Option<NodeFailSpec>,
    pub task_abort: Option<TaskAbortSpec>,
    pub ckpt_corrupt: Option<CkptCorruptSpec>,
}

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.steal.is_empty()
            && self.slow.is_empty()
            && self.mpi_delay.is_none()
            && self.crash.is_none()
            && self.node_failure.is_none()
            && self.task_abort.is_none()
            && self.ckpt_corrupt.is_none()
    }

    /// Parse a `--faults` spec string (see module docs for the grammar).
    pub fn parse(spec: &str) -> Result<FaultPlan, SpecError> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            if let Some(v) = clause.strip_prefix("seed=") {
                plan.seed = v
                    .trim()
                    .parse::<u64>()
                    .map_err(|_| SpecError(format!("seed `{v}` is not a u64")))?;
                continue;
            }
            let (kind, params) = clause
                .split_once(':')
                .ok_or_else(|| SpecError(format!("clause `{clause}` has no `kind:` prefix")))?;
            let params = Params::parse(kind, params)?;
            match kind {
                "steal" => plan.steal.push(StealSpec {
                    cpu: params.get_usize("cpu")?,
                    period: params.get_secs("period")?,
                    duration: params.get_secs("duration")?,
                    count: params.get_u32("count")?,
                    jitter: params.has_flag("jitter"),
                }),
                "slow" => plan.slow.push(SlowSpec {
                    rank: params.get_usize("rank")?,
                    at: params.get_secs("at")?,
                    factor: params.get_f64("factor")?,
                }),
                "mpidelay" => {
                    plan.mpi_delay = Some(DelaySpec {
                        prob: params.get_f64("prob")?,
                        extra: params.get_secs("extra")?,
                    })
                }
                "crash" => {
                    let policy = match params.get_str("policy")? {
                        "failstop" => CrashPolicy::FailStop,
                        "restart" => CrashPolicy::Restart { delay: params.get_secs("delay")? },
                        other => {
                            return Err(SpecError(format!(
                                "crash policy `{other}` (want failstop|restart)"
                            )))
                        }
                    };
                    plan.crash = Some(CrashSpec {
                        rank: params.get_usize("rank")?,
                        iteration: params.get_u32("iter")?,
                        policy,
                    });
                }
                "nodefail" => {
                    plan.node_failure = Some(NodeFailSpec {
                        node: params.get_usize("node")?,
                        iteration: params.get_u32("iter")?,
                        retries: params.get_u32("retries")?,
                        restart_secs: params.get_secs_or("restart", 1.0)?,
                    })
                }
                "taskabort" => {
                    plan.task_abort = Some(TaskAbortSpec {
                        job: params.get_u64("job")?,
                        node: params.get_usize("node")?,
                        aborts: params.get_u32("aborts")?,
                        hang: params.has_flag("hang"),
                    })
                }
                "ckptcorrupt" => {
                    plan.ckpt_corrupt =
                        Some(CkptCorruptSpec { nth: params.get_u32_or("at", 1)? })
                }
                other => {
                    return Err(SpecError(format!(
                        "unknown fault kind `{other}` \
                         (want steal|slow|mpidelay|crash|nodefail|taskabort|ckptcorrupt)"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), SpecError> {
        for s in &self.steal {
            if s.period <= 0.0 || s.duration <= 0.0 {
                return Err(SpecError("steal period/duration must be positive".into()));
            }
        }
        for s in &self.slow {
            if !s.factor.is_finite() || s.factor < 0.0 {
                return Err(SpecError("slow factor must be finite and >= 0".into()));
            }
        }
        if let Some(d) = &self.mpi_delay {
            if !(0.0..=1.0).contains(&d.prob) || d.extra < 0.0 {
                return Err(SpecError("mpidelay prob must be in [0,1], extra >= 0".into()));
            }
        }
        if let Some(t) = &self.task_abort {
            if t.aborts == 0 {
                return Err(SpecError("taskabort aborts must be >= 1".into()));
            }
        }
        if let Some(c) = &self.ckpt_corrupt {
            if c.nth == 0 {
                return Err(SpecError("ckptcorrupt at counts from 1".into()));
            }
        }
        Ok(())
    }

    /// Render the plan back into its canonical `--faults` spelling, such
    /// that `parse(render(p)) == p` for every valid plan. Durations come
    /// out as bare seconds (`f64` `Display` round-trips exactly), flags as
    /// trailing `,jitter`/`,hang`, clauses joined by `"; "`. Checkpoint
    /// metadata uses this to record the fault context a run was taken
    /// under without inventing a second encoding.
    pub fn render(&self) -> String {
        let mut clauses: Vec<String> = Vec::new();
        if self.seed != 0 {
            clauses.push(format!("seed={}", self.seed));
        }
        for s in &self.steal {
            let jitter = if s.jitter { ",jitter" } else { "" };
            clauses.push(format!(
                "steal:cpu={},period={},duration={},count={}{jitter}",
                s.cpu, s.period, s.duration, s.count
            ));
        }
        for s in &self.slow {
            clauses.push(format!("slow:rank={},at={},factor={}", s.rank, s.at, s.factor));
        }
        if let Some(d) = &self.mpi_delay {
            clauses.push(format!("mpidelay:prob={},extra={}", d.prob, d.extra));
        }
        if let Some(c) = &self.crash {
            let policy = match c.policy {
                CrashPolicy::FailStop => "policy=failstop".to_string(),
                CrashPolicy::Restart { delay } => format!("policy=restart,delay={delay}"),
            };
            clauses.push(format!("crash:rank={},iter={},{policy}", c.rank, c.iteration));
        }
        if let Some(n) = &self.node_failure {
            clauses.push(format!(
                "nodefail:node={},iter={},retries={},restart={}",
                n.node, n.iteration, n.retries, n.restart_secs
            ));
        }
        if let Some(t) = &self.task_abort {
            let hang = if t.hang { ",hang" } else { "" };
            clauses.push(format!(
                "taskabort:job={},node={},aborts={}{hang}",
                t.job, t.node, t.aborts
            ));
        }
        if let Some(c) = &self.ckpt_corrupt {
            clauses.push(format!("ckptcorrupt:at={}", c.nth));
        }
        clauses.join("; ")
    }

    /// Compile the kernel-level fault classes (steal bursts, slowdown drift)
    /// into a time-sorted event schedule. `ranks` maps application rank
    /// index to the spawned task; slow clauses naming an out-of-range rank
    /// are dropped (graceful, never a panic).
    pub fn kernel_events(&self, ranks: &[TaskId]) -> Vec<(SimTime, FaultEvent)> {
        let mut events: Vec<(SimTime, FaultEvent)> = Vec::new();
        let mut root = SplitMix64::new(self.seed);
        for (i, s) in self.steal.iter().enumerate() {
            // Each clause forks its own stream so adding one clause never
            // reshuffles another clause's schedule.
            let mut rng = root.fork(i as u64 + 1);
            let mut t = 0.0;
            for _ in 0..s.count {
                let gap = if s.jitter { s.period * (0.5 + rng.unit()) } else { s.period };
                t += gap;
                events.push((
                    SimTime::ZERO + SimDuration::from_secs_f64(t),
                    FaultEvent::StealBurst {
                        cpu: CpuId(s.cpu),
                        duration: SimDuration::from_secs_f64(s.duration),
                    },
                ));
            }
        }
        for s in &self.slow {
            if let Some(&task) = ranks.get(s.rank) {
                events.push((
                    SimTime::ZERO + SimDuration::from_secs_f64(s.at),
                    FaultEvent::SlowTask { task, factor: s.factor },
                ));
            }
        }
        // Stable sort: ties keep clause order, so compilation is a pure
        // function of the plan.
        events.sort_by_key(|(t, _)| *t);
        events
    }

    /// Compile the MPI-level fault classes (delay spikes, rank crash) into
    /// the config `mpisim` installs into a world. `None` when neither is
    /// present, so an un-faulted world carries no fault state at all.
    pub fn mpi_faults(&self) -> Option<MpiFaultConfig> {
        if self.mpi_delay.is_none() && self.crash.is_none() {
            return None;
        }
        let delay = self.mpi_delay.unwrap_or(DelaySpec { prob: 0.0, extra: 0.0 });
        Some(MpiFaultConfig {
            delay_prob: delay.prob,
            delay_extra: SimDuration::from_secs_f64(delay.extra),
            // Salted so the MPI stream is independent of the kernel-event
            // streams forked from the same plan seed.
            seed: self.seed ^ 0x6D70_6953_696D_u64,
            crash: self.crash.map(|c| RankCrash {
                rank: c.rank,
                at_iteration: c.iteration,
                policy: match c.policy {
                    CrashPolicy::FailStop => RankFailurePolicy::FailStop,
                    CrashPolicy::Restart { delay } => RankFailurePolicy::RestartFromIteration {
                        delay: SimDuration::from_secs_f64(delay),
                    },
                },
            }),
        })
    }
}

/// Parsed `k=v` parameter list of one clause.
struct Params<'a> {
    kind: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    flags: Vec<&'a str>,
}

impl<'a> Params<'a> {
    fn parse(kind: &'a str, raw: &'a str) -> Result<Params<'a>, SpecError> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        for part in raw.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((k, v)) => pairs.push((k.trim(), v.trim())),
                None => flags.push(part),
            }
        }
        Ok(Params { kind, pairs, flags })
    }

    fn get_str(&self, key: &str) -> Result<&'a str, SpecError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| SpecError(format!("{}: missing `{key}=`", self.kind)))
    }

    fn has_flag(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }

    fn get_usize(&self, key: &str) -> Result<usize, SpecError> {
        let v = self.get_str(key)?;
        v.parse().map_err(|_| SpecError(format!("{}: `{key}={v}` is not an integer", self.kind)))
    }

    fn get_u32(&self, key: &str) -> Result<u32, SpecError> {
        let v = self.get_str(key)?;
        v.parse().map_err(|_| SpecError(format!("{}: `{key}={v}` is not an integer", self.kind)))
    }

    fn get_u32_or(&self, key: &str, default: u32) -> Result<u32, SpecError> {
        match self.pairs.iter().find(|(k, _)| *k == key) {
            Some(_) => self.get_u32(key),
            None => Ok(default),
        }
    }

    fn get_u64(&self, key: &str) -> Result<u64, SpecError> {
        let v = self.get_str(key)?;
        v.parse().map_err(|_| SpecError(format!("{}: `{key}={v}` is not an integer", self.kind)))
    }

    fn get_f64(&self, key: &str) -> Result<f64, SpecError> {
        let v = self.get_str(key)?;
        v.parse().map_err(|_| SpecError(format!("{}: `{key}={v}` is not a number", self.kind)))
    }

    fn get_secs(&self, key: &str) -> Result<f64, SpecError> {
        parse_secs(self.kind, key, self.get_str(key)?)
    }

    fn get_secs_or(&self, key: &str, default: f64) -> Result<f64, SpecError> {
        match self.pairs.iter().find(|(k, _)| *k == key) {
            Some((_, v)) => parse_secs(self.kind, key, v),
            None => Ok(default),
        }
    }
}

/// Parse a duration with an optional `s`/`ms`/`us`/`ns` suffix (bare number
/// = seconds).
fn parse_secs(kind: &str, key: &str, v: &str) -> Result<f64, SpecError> {
    let (num, scale) = if let Some(n) = v.strip_suffix("ms") {
        (n, 1e-3)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, 1e-6)
    } else if let Some(n) = v.strip_suffix("ns") {
        (n, 1e-9)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1.0)
    } else {
        (v, 1.0)
    };
    let x: f64 = num
        .parse()
        .map_err(|_| SpecError(format!("{kind}: `{key}={v}` is not a duration")))?;
    if !x.is_finite() || x < 0.0 {
        return Err(SpecError(format!("{kind}: `{key}={v}` must be finite and >= 0")));
    }
    Ok(x * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_compiles_to_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.kernel_events(&[TaskId(0)]).is_empty());
        assert!(plan.mpi_faults().is_none());
    }

    #[test]
    fn parse_all_clause_kinds() {
        let plan = FaultPlan::parse(
            "seed=7; steal:cpu=0,period=250ms,duration=20ms,count=3,jitter; \
             slow:rank=1,at=2s,factor=0.5; mpidelay:prob=0.1,extra=500us; \
             crash:rank=2,iter=3,policy=restart,delay=100ms; \
             nodefail:node=1,iter=5,retries=2",
        )
        .expect("spec parses");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.steal.len(), 1);
        assert!(plan.steal[0].jitter);
        assert_eq!(plan.slow, vec![SlowSpec { rank: 1, at: 2.0, factor: 0.5 }]);
        assert_eq!(plan.mpi_delay, Some(DelaySpec { prob: 0.1, extra: 500e-6 }));
        assert_eq!(
            plan.crash,
            Some(CrashSpec { rank: 2, iteration: 3, policy: CrashPolicy::Restart { delay: 0.1 } })
        );
        let nf = plan.node_failure.expect("nodefail parsed");
        assert_eq!((nf.node, nf.iteration, nf.retries), (1, 5, 2));
        assert!(!plan.is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("bogus:x=1").is_err());
        assert!(FaultPlan::parse("steal:cpu=0").is_err()); // missing keys
        assert!(FaultPlan::parse("crash:rank=0,iter=1,policy=maybe").is_err());
        assert!(FaultPlan::parse("mpidelay:prob=2.0,extra=1ms").is_err());
        assert!(FaultPlan::parse("slow:rank=0,at=1,factor=nan").is_err());
        assert!(FaultPlan::parse("seed=banana").is_err());
        assert!(FaultPlan::parse("noprefix").is_err());
    }

    #[test]
    fn kernel_events_are_sorted_and_deterministic() {
        let plan = FaultPlan::parse(
            "seed=42; steal:cpu=1,period=100ms,duration=5ms,count=8,jitter; \
             slow:rank=0,at=150ms,factor=0.25",
        )
        .expect("spec parses");
        let ranks = [TaskId(3), TaskId(4)];
        let a = plan.kernel_events(&ranks);
        let b = plan.kernel_events(&ranks);
        assert_eq!(a, b, "compilation must be pure");
        assert_eq!(a.len(), 9);
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "events sorted by time");
        assert!(a
            .iter()
            .any(|(_, e)| matches!(e, FaultEvent::SlowTask { task, .. } if *task == TaskId(3))));
    }

    #[test]
    fn out_of_range_slow_rank_is_dropped() {
        let plan =
            FaultPlan::parse("slow:rank=9,at=1,factor=0.5").expect("spec parses");
        assert!(plan.kernel_events(&[TaskId(0)]).is_empty());
    }

    #[test]
    fn parse_taskabort_and_ckptcorrupt() {
        let plan = FaultPlan::parse("taskabort:job=3,node=0,aborts=2,hang; ckptcorrupt:at=2")
            .expect("spec parses");
        assert_eq!(
            plan.task_abort,
            Some(TaskAbortSpec { job: 3, node: 0, aborts: 2, hang: true })
        );
        assert_eq!(plan.ckpt_corrupt, Some(CkptCorruptSpec { nth: 2 }));
        assert!(!plan.is_empty());

        // `at` defaults to the first save; `hang` is opt-in.
        let plan = FaultPlan::parse("taskabort:job=1,node=2,aborts=1; ckptcorrupt:")
            .expect("defaults parse");
        assert_eq!(
            plan.task_abort,
            Some(TaskAbortSpec { job: 1, node: 2, aborts: 1, hang: false })
        );
        assert_eq!(plan.ckpt_corrupt, Some(CkptCorruptSpec { nth: 1 }));

        assert!(FaultPlan::parse("taskabort:job=1,node=0,aborts=0").is_err());
        assert!(FaultPlan::parse("ckptcorrupt:at=0").is_err());
        assert!(FaultPlan::parse("taskabort:node=0,aborts=1").is_err()); // missing job
    }

    #[test]
    fn render_round_trips_every_clause_kind() {
        let specs = [
            "",
            "seed=7",
            "seed=7; steal:cpu=0,period=250ms,duration=20ms,count=3,jitter",
            "slow:rank=1,at=2s,factor=0.5; mpidelay:prob=0.1,extra=500us",
            "crash:rank=2,iter=3,policy=failstop",
            "crash:rank=2,iter=3,policy=restart,delay=100ms",
            "nodefail:node=1,iter=5,retries=2,restart=1500ms",
            "taskabort:job=3,node=0,aborts=2,hang",
            "taskabort:job=9,node=1,aborts=1; ckptcorrupt:at=2",
            "seed=42; steal:cpu=1,period=100ms,duration=5ms,count=8; \
             nodefail:node=0,iter=1,retries=3; ckptcorrupt:",
        ];
        for spec in specs {
            let plan = FaultPlan::parse(spec).expect("spec parses");
            let rendered = plan.render();
            let reparsed = FaultPlan::parse(&rendered)
                .unwrap_or_else(|e| panic!("render of `{spec}` unparseable: {e}"));
            assert_eq!(reparsed, plan, "parse(render(p)) != p for `{spec}` -> `{rendered}`");
        }
    }

    #[test]
    fn render_of_default_plan_is_empty() {
        assert_eq!(FaultPlan::default().render(), "");
        assert_eq!(FaultPlan::parse("").expect("empty parses"), FaultPlan::default());
    }

    #[test]
    fn mpi_faults_compile() {
        let plan =
            FaultPlan::parse("seed=3; crash:rank=1,iter=2,policy=failstop").expect("parses");
        let cfg = plan.mpi_faults().expect("crash implies mpi fault config");
        assert_eq!(cfg.delay_prob, 0.0);
        let crash = cfg.crash.expect("crash present");
        assert_eq!(crash.rank, 1);
        assert_eq!(crash.at_iteration, 2);
        assert_eq!(crash.policy, RankFailurePolicy::FailStop);
    }
}
