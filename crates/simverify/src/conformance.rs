//! Trace-invariant conformance checker: one linear pass over the records a
//! run's [`schedsim::SharedSink`] collected, asserting the invariants the
//! paper's results rest on.
//!
//! | rule | invariant |
//! |------|-----------|
//! | `C001-priority-bounds`   | every applied hardware priority stays inside the tunable bounds (paper §IV-B: `[MEDIUM, HIGH]` by default) |
//! | `C002-monotonic-time`    | record timestamps never decrease |
//! | `C003-cpu-occupancy`     | at most one task runs per logical CPU, and a running task occupies exactly one CPU |
//! | `C004-decode-ratio`      | the decode-slot arbiter reproduces Table I (`R = 2^(d+1)`, split `R−1 : 1`) for every priority pair the run exercised |
//! | `C005-switch-accounting` | telemetry counters reconcile with the trace: exits, priority transitions and iterations match 1:1, context switches are bounded below by the switches the trace shows |
//!
//! The checker never panics on malformed input — corrupted traces are
//! exactly what it exists to report.

use power5::decode::SlotArbiter;
use power5::{decode_interval, decode_share, CpuId, HwPriority};
use schedsim::{TaskId, TaskState, TraceEvent, TraceRecord};
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use telemetry::MetricsSnapshot;

/// Bounds the run's priorities must respect.
#[derive(Clone, Copy, Debug)]
pub struct CheckConfig {
    pub min_prio: HwPriority,
    pub max_prio: HwPriority,
}

impl Default for CheckConfig {
    /// The paper's defaults (§IV-B): the HPC class moves priorities within
    /// `[MEDIUM, HIGH]` = `[4, 6]`.
    fn default() -> Self {
        CheckConfig { min_prio: HwPriority::MEDIUM, max_prio: HwPriority::HIGH }
    }
}

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: &'static str,
    /// Sim time of the offending record, when one exists.
    pub at: Option<SimTime>,
    pub task: Option<TaskId>,
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.rule)?;
        if let Some(t) = self.at {
            write!(f, " @ {}ns", t.as_nanos())?;
        }
        if let Some(task) = self.task {
            write!(f, " {task}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Everything a conformance pass found.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub violations: Vec<Violation>,
    pub records_checked: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!("conformance: OK ({} records)", self.records_checked);
        }
        let mut out = format!(
            "conformance: {} violation(s) in {} records\n",
            self.violations.len(),
            self.records_checked
        );
        for v in &self.violations {
            out.push_str(&format!("  {v}\n"));
        }
        out
    }

    fn push(&mut self, rule: &'static str, rec: Option<&TraceRecord>, detail: String) {
        self.violations.push(Violation {
            rule,
            at: rec.map(|r| r.time),
            task: rec.map(|r| r.task),
            detail,
        });
    }
}

/// Validate a trace against the sim-side invariants (C001–C004).
pub fn check_trace(records: &[TraceRecord], cfg: &CheckConfig) -> Report {
    let mut report = Report { violations: Vec::new(), records_checked: records.len() };

    let mut last_time: Option<SimTime> = None;
    // CPU → occupying task, and the inverse, maintained from State records.
    let mut occupant: ScanMap<CpuId, TaskId> = ScanMap::default();
    let mut running_on: ScanMap<TaskId, CpuId> = ScanMap::default();
    // Regular priorities the run exercised, for the Table I cross-check.
    let mut seen_prios: BTreeMap<u8, HwPriority> = BTreeMap::new();
    seen_prios.insert(HwPriority::MEDIUM.value(), HwPriority::MEDIUM);

    for rec in records {
        // C002: sim time is non-decreasing along the record stream.
        if let Some(prev) = last_time {
            if rec.time < prev {
                report.push(
                    "C002-monotonic-time",
                    Some(rec),
                    format!("time ran backwards: {}ns after {}ns", rec.time.as_nanos(), prev.as_nanos()),
                );
            }
        }
        last_time = Some(last_time.map_or(rec.time, |p| p.max(rec.time)));

        match &rec.event {
            TraceEvent::HwPrio { prio } => {
                // C001: applied priorities stay inside the tunable bounds.
                if *prio < cfg.min_prio || *prio > cfg.max_prio {
                    report.push(
                        "C001-priority-bounds",
                        Some(rec),
                        format!(
                            "priority {} outside [{}, {}]",
                            prio, cfg.min_prio, cfg.max_prio
                        ),
                    );
                }
                if prio.is_regular() {
                    seen_prios.insert(prio.value(), *prio);
                }
            }
            TraceEvent::State { state: TaskState::Running, cpu } => {
                // C003: a running task holds exactly one CPU, exclusively.
                let Some(c) = cpu else {
                    report.push(
                        "C003-cpu-occupancy",
                        Some(rec),
                        "Running record without a CPU".to_string(),
                    );
                    continue;
                };
                if let Some(other) = occupant.get(*c) {
                    if other != rec.task {
                        report.push(
                            "C003-cpu-occupancy",
                            Some(rec),
                            format!("cpu{} already occupied by {other}", c.0),
                        );
                    }
                }
                if let Some(prev_cpu) = running_on.get(rec.task) {
                    if prev_cpu != *c {
                        report.push(
                            "C003-cpu-occupancy",
                            Some(rec),
                            format!("task still running on cpu{}", prev_cpu.0),
                        );
                        occupant.remove(prev_cpu);
                    }
                }
                occupant.insert(*c, rec.task);
                running_on.insert(rec.task, *c);
            }
            TraceEvent::State { .. } | TraceEvent::Exit => {
                // Any non-Running transition releases the task's CPU.
                if let Some(c) = running_on.remove(rec.task) {
                    if occupant.get(c) == Some(rec.task) {
                        occupant.remove(c);
                    }
                }
            }
            TraceEvent::Spawn { .. } | TraceEvent::IterationEnd { .. } => {}
        }
    }

    check_decode_model(&mut report, &seen_prios);
    report
}

/// C004: for every pair of regular priorities the run exercised, the
/// cycle-accurate arbiter and the closed-form share must both reproduce
/// Table I — `R = 2^(d+1)` cycles per window, split `R−1 : 1` (1 : 1 for
/// equal priorities).
fn check_decode_model(report: &mut Report, seen: &BTreeMap<u8, HwPriority>) {
    for &hi in seen.values() {
        for &lo in seen.values() {
            if lo > hi {
                continue;
            }
            let d = hi.diff(lo);
            let r = decode_interval(d) as u64;
            let mut arb = SlotArbiter::new(hi, lo);
            if arb.window() as u64 != r {
                report.push(
                    "C004-decode-ratio",
                    None,
                    format!("window for ({hi},{lo}) is {} not R=2^(d+1)={r}", arb.window()),
                );
                continue;
            }
            let (a, b) = arb.run(r);
            let (want_a, want_b) = if hi == lo { (1, 1) } else { (r - 1, 1) };
            if (a, b) != (want_a, want_b) {
                report.push(
                    "C004-decode-ratio",
                    None,
                    format!("arbiter gave ({hi},{lo}) = {a}:{b} per window, Table I says {want_a}:{want_b}"),
                );
            }
            let share = decode_share(hi, lo);
            let want_share = want_a as f64 / r as f64;
            if (share.a - want_share).abs() > 1e-9 {
                report.push(
                    "C004-decode-ratio",
                    None,
                    format!(
                        "closed-form share for ({hi},{lo}) is {:.6}, arbiter says {:.6}",
                        share.a, want_share
                    ),
                );
            }
        }
    }
}

/// C005: reconcile telemetry counters with the trace, then run the
/// sim-side checks. The exit/priority/iteration counters are bumped at the
/// emission point, so with an observer attached before the run they match
/// the record stream exactly; `kernel.context_switches` also counts
/// dispatches that predate observer attachment (the kernel spawns noise
/// daemons at construction), so the trace only bounds it from below.
pub fn check_with_metrics(
    records: &[TraceRecord],
    snapshot: &MetricsSnapshot,
    cfg: &CheckConfig,
) -> Report {
    let mut report = check_trace(records, cfg);

    let count = |pred: &dyn Fn(&TraceEvent) -> bool| -> u64 {
        records.iter().filter(|r| pred(&r.event)).count() as u64
    };
    let exact = [
        ("kernel.task_exits", count(&|e| matches!(e, TraceEvent::Exit))),
        ("kernel.hw_prio_transitions", count(&|e| matches!(e, TraceEvent::HwPrio { .. }))),
        ("kernel.iterations", count(&|e| matches!(e, TraceEvent::IterationEnd { .. }))),
    ];
    for (name, traced) in exact {
        let counted = snapshot.counter(name);
        if counted != traced {
            report.push(
                "C005-switch-accounting",
                None,
                format!("counter {name} = {counted}, trace shows {traced}"),
            );
        }
    }

    // Minimum switches the trace proves: per CPU, each Running record whose
    // occupant differs from the previous one. Redispatches of the same task
    // (tick preemption, yield) legitimately emit Running without a switch.
    let mut last_running: ScanMap<CpuId, TaskId> = ScanMap::default();
    let mut min_switches = 0u64;
    for rec in records {
        if let TraceEvent::State { state: TaskState::Running, cpu: Some(c) } = &rec.event {
            if last_running.insert(*c, rec.task) != Some(rec.task) {
                min_switches += 1;
            }
        }
    }
    let switches = snapshot.counter("kernel.context_switches");
    if switches < min_switches {
        report.push(
            "C005-switch-accounting",
            None,
            format!(
                "counter kernel.context_switches = {switches}, trace proves at least {min_switches}"
            ),
        );
    }
    report
}

/// A map kept as a list and searched from the front: the CPU and task
/// maps above hold at most one entry per CPU in a valid trace, which a
/// scan over a few entries serves faster than a tree. Keys are never
/// used as indices, so a malformed trace with an id like `usize::MAX`
/// costs one more entry, not a panic or a huge allocation.
struct ScanMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for ScanMap<K, V> {
    fn default() -> Self {
        ScanMap { entries: Vec::new() }
    }
}

impl<K: PartialEq + Copy, V: Copy> ScanMap<K, V> {
    fn get(&self, key: K) -> Option<V> {
        self.entries.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// Set `key`'s value; returns the value it replaced.
    fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entries.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => Some(std::mem::replace(v, value)),
            None => {
                self.entries.push((key, value));
                None
            }
        }
    }

    fn remove(&mut self, key: K) -> Option<V> {
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        Some(self.entries.swap_remove(at).1)
    }
}
