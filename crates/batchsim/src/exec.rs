//! Supervised node runs: the retry, quarantine and watchdog state machine
//! every kernel measurement of the batch oracle goes through.
//!
//! [`supervise`] runs one node task on the caller's thread, in the order
//! the oracle asks for it. Each attempt receives its 0-based attempt
//! index, so deterministic fault injection ("panic on the first k
//! attempts") stays a pure function of (task, attempt).
//!
//! [`SuperviseCounters`] registers under `exec.pool`: node runs and
//! retries, quarantines and timeouts (deterministic when the failures are
//! injected), plus busy nanoseconds (host wall-clock, *not* simulated time
//! — never fold it into simulation results or byte-identity checks).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use telemetry::{Counter, MetricsRegistry};

/// Telemetry handles for the supervised node runs of one engine.
pub(crate) struct SuperviseCounters {
    /// Supervised tasks run — one per node run, deterministic.
    tasks: Counter,
    /// Total wall-clock nanoseconds spent inside supervised tasks.
    /// Host-side measurement; excluded from determinism comparisons.
    busy_ns: Counter,
    /// Attempts beyond the first (retries after a panic).
    retries: Counter,
    /// Tasks whose every attempt panicked.
    quarantined: Counter,
    /// Tasks abandoned by the wall-clock watchdog.
    timeouts: Counter,
}

impl SuperviseCounters {
    /// Register the counters under `exec.pool` — the names the `batch`
    /// binary and the perfbench `batch` workload read.
    pub(crate) fn register(registry: &MetricsRegistry) -> SuperviseCounters {
        registry.register(|r| SuperviseCounters {
            tasks: r.counter("exec.pool.tasks"),
            busy_ns: r.counter("exec.pool.busy_ns"),
            retries: r.counter("exec.pool.retries"),
            quarantined: r.counter("exec.pool.quarantined"),
            timeouts: r.counter("exec.pool.timeouts"),
        })
    }
}

/// Typed failure of one supervised task — the supervisor's terminal
/// outcomes, mirroring how `ClusterOutcome` records degraded-but-clean
/// node failures instead of panicking the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TaskFailure {
    /// Every permitted attempt panicked; the task is quarantined and
    /// reports this typed outcome instead of unwinding the engine.
    Quarantined {
        /// Attempts made before giving up (== the policy's `max_attempts`).
        attempts: u32,
    },
    /// The wall-clock watchdog expired before the attempt finished; the
    /// hung attempt's thread is detached and a late result discarded.
    TaskTimeout {
        /// The watchdog limit that fired, in milliseconds.
        limit_ms: u64,
    },
}

/// Result of one supervised task: the value, or a typed failure.
pub(crate) type Supervised<T> = Result<T, TaskFailure>;

/// Retry/watchdog policy for [`supervise`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct SupervisePolicy {
    /// Total attempts per task before quarantine; clamped to at least 1.
    pub(crate) max_attempts: u32,
    /// Per-attempt wall-clock watchdog. `None` disables the watchdog and
    /// runs attempts on the caller's thread; `Some` runs each attempt on a
    /// dedicated thread so a hung attempt can be abandoned.
    pub(crate) timeout: Option<Duration>,
}

/// What one attempt did, as seen by the supervisor loop.
enum Attempt<T> {
    Done(T),
    Panicked,
    Hung { limit_ms: u64 },
}

/// Run `task` under supervision and count the run on `counters`.
///
/// The supervisor never panics and never wedges the run: a panicking
/// attempt is retried up to `policy.max_attempts` times, then quarantined
/// into [`TaskFailure::Quarantined`]; a hung attempt (watchdog only) ends
/// the task as [`TaskFailure::TaskTimeout`].
#[expect(
    clippy::disallowed_methods,
    reason = "node-run busy-time clock; lands in the supervisor registry, excluded from \
              determinism comparisons (DESIGN.md §11)"
)]
pub(crate) fn supervise<T, F>(
    task: F,
    policy: SupervisePolicy,
    counters: &SuperviseCounters,
) -> Supervised<T>
where
    T: Send + 'static,
    F: Fn(u32) -> T + Clone + Send + 'static,
{
    let started = Instant::now();
    let (outcome, attempts) = supervise_one(&task, policy.max_attempts.max(1), policy.timeout);
    counters.busy_ns.add(started.elapsed().as_nanos() as u64);
    counters.tasks.inc();
    counters.retries.add(u64::from(attempts - 1));
    match outcome {
        Err(TaskFailure::Quarantined { .. }) => counters.quarantined.inc(),
        Err(TaskFailure::TaskTimeout { .. }) => counters.timeouts.inc(),
        Ok(_) => {}
    }
    outcome
}

/// Drive one task through the retry/quarantine/watchdog state machine.
/// Returns the outcome plus the number of attempts made (for telemetry).
fn supervise_one<T, F>(
    task: &F,
    max_attempts: u32,
    timeout: Option<Duration>,
) -> (Supervised<T>, u32)
where
    T: Send + 'static,
    F: Fn(u32) -> T + Clone + Send + 'static,
{
    for attempt in 0..max_attempts {
        match run_attempt(task, attempt, timeout) {
            Attempt::Done(v) => return (Ok(v), attempt + 1),
            Attempt::Panicked => continue,
            // A hung task is not retried: the next attempt would most
            // likely hang too, and the caller's watchdog budget is spent.
            Attempt::Hung { limit_ms } => {
                return (Err(TaskFailure::TaskTimeout { limit_ms }), attempt + 1)
            }
        }
    }
    (Err(TaskFailure::Quarantined { attempts: max_attempts }), max_attempts)
}

#[expect(
    clippy::disallowed_methods,
    reason = "the watchdog abandons a hung attempt through a one-shot channel; only \
              the attempt's own result crosses it, so no merge order depends on it"
)]
fn run_attempt<T, F>(task: &F, attempt: u32, timeout: Option<Duration>) -> Attempt<T>
where
    T: Send + 'static,
    F: Fn(u32) -> T + Clone + Send + 'static,
{
    match timeout {
        None => {
            // AssertUnwindSafe: node tasks are pure functions of their
            // captures (see `crate::node`), so a failed attempt leaves no
            // state a retry could observe.
            match catch_unwind(AssertUnwindSafe(|| task(attempt))) {
                Ok(v) => Attempt::Done(v),
                Err(_) => Attempt::Panicked,
            }
        }
        Some(limit) => {
            // The watchdog cannot kill a hung thread, only abandon it: the
            // attempt runs detached on its own clone of the task and
            // reports over a channel; on timeout the receiver walks away
            // and a late result (or panic) is dropped on the floor.
            let (tx, rx) = mpsc::channel();
            let runner = task.clone();
            std::thread::spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| runner(attempt)));
                let _ = tx.send(out);
            });
            match rx.recv_timeout(limit) {
                Ok(Ok(v)) => Attempt::Done(v),
                Ok(Err(_)) => Attempt::Panicked,
                Err(_) => Attempt::Hung { limit_ms: limit.as_millis() as u64 },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERIAL: SupervisePolicy = SupervisePolicy { max_attempts: 3, timeout: None };

    /// Panic on the first `k` attempts, then produce a value — the
    /// supervisor's deterministic transient-fault shape.
    fn flaky(i: u64, fail_attempts: u32) -> impl Fn(u32) -> u64 + Clone + Send + 'static {
        move |attempt| {
            if attempt < fail_attempts {
                panic!("injected transient abort (task {i}, attempt {attempt})");
            }
            i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        }
    }

    #[test]
    fn supervised_retry_absorbs_transient_panics() {
        let registry = MetricsRegistry::new();
        let counters = SuperviseCounters::register(&registry);
        for i in 0..6u64 {
            let got = supervise(flaky(i, if i == 2 { 2 } else { 0 }), SERIAL, &counters);
            assert_eq!(got, Ok(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.tasks"), 6, "one count per task");
        assert_eq!(snap.counter("exec.pool.retries"), 2);
        assert_eq!(snap.counter("exec.pool.quarantined"), 0);
    }

    #[test]
    fn telemetry_counts_batches_and_tasks() {
        // Two rounds of node runs share one registry; every run counts once.
        let registry = MetricsRegistry::new();
        let counters = SuperviseCounters::register(&registry);
        for round in [10u64, 5] {
            for i in 0..round {
                assert_eq!(supervise(move |_| i, SERIAL, &counters), Ok(i));
            }
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.tasks"), 15);
        assert_eq!(snap.counter("exec.pool.retries"), 0);
        assert_eq!(snap.counter("exec.pool.quarantined"), 0);
        assert_eq!(snap.counter("exec.pool.timeouts"), 0);
    }

    #[test]
    fn supervised_quarantines_persistent_panics() {
        let registry = MetricsRegistry::new();
        let counters = SuperviseCounters::register(&registry);
        let got: Vec<_> = (0..5u64)
            .map(|i| supervise(flaky(i, if i == 1 { u32::MAX } else { 0 }), SERIAL, &counters))
            .collect();
        assert_eq!(got[1], Err(TaskFailure::Quarantined { attempts: 3 }));
        for (i, o) in got.iter().enumerate() {
            if i != 1 {
                assert!(o.is_ok(), "task {i} unaffected by its neighbour's quarantine");
            }
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.quarantined"), 1);
        assert_eq!(snap.counter("exec.pool.retries"), 2);
    }

    #[test]
    fn supervised_watchdog_turns_a_hang_into_a_typed_timeout() {
        let registry = MetricsRegistry::new();
        let counters = SuperviseCounters::register(&registry);
        let policy = SupervisePolicy { max_attempts: 2, timeout: Some(Duration::from_millis(50)) };
        let got: Vec<_> = (0..3u64)
            .map(|i| {
                let task = move |_attempt: u32| {
                    if i == 1 {
                        // Far past the watchdog; the supervisor abandons us.
                        std::thread::sleep(Duration::from_secs(300));
                    }
                    i
                };
                supervise(task, policy, &counters)
            })
            .collect();
        assert_eq!(got, vec![Ok(0), Err(TaskFailure::TaskTimeout { limit_ms: 50 }), Ok(2)]);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.timeouts"), 1);
        assert_eq!(snap.counter("exec.pool.retries"), 0, "a hang is not retried");
    }

    #[test]
    fn supervise_policy_clamps_zero_attempts() {
        let registry = MetricsRegistry::new();
        let counters = SuperviseCounters::register(&registry);
        let got =
            supervise(flaky(7, 0), SupervisePolicy { max_attempts: 0, timeout: None }, &counters);
        assert_eq!(got, Ok(7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        assert_eq!(registry.snapshot().counter("exec.pool.tasks"), 1);
    }
}
