//! Deterministic parallel executor: a scoped-thread work pool for
//! embarrassingly parallel simulation work (per-node kernel runs).
//!
//! # Determinism contract
//!
//! [`Pool::run`] executes a batch of `Send` closures and returns their
//! results **in submission order**, whatever the thread count. Workers
//! claim tasks through one atomic cursor, so *which* worker runs a task
//! (and when, in wall-clock terms) is nondeterministic — but as long as
//! every task is a pure function of its captured inputs, the returned
//! `Vec` is bit-identical to what a serial loop over the same closures
//! would produce. Callers therefore get order-stable reductions for
//! free: fold the result vector left-to-right and the outcome cannot
//! depend on the thread count.
//!
//! With `threads == 1` the pool spawns nothing and runs the closures
//! inline, in order — exactly the pre-pool serial behaviour, with no
//! thread or synchronization overhead.
//!
//! # Telemetry
//!
//! A pool optionally carries [`PoolCounters`] registered on a
//! [`telemetry::MetricsRegistry`]: batches and tasks executed
//! (deterministic) plus total worker busy nanoseconds (host wall-clock,
//! *not* simulated time — never fold it into simulation results or
//! byte-identity checks).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use telemetry::{Counter, MetricsRegistry};

/// Telemetry handles for one executor pool.
#[derive(Clone)]
pub struct PoolCounters {
    /// Batches submitted through [`Pool::run`].
    pub batches: Counter,
    /// Tasks executed (sum of batch sizes) — deterministic.
    pub tasks: Counter,
    /// Total wall-clock nanoseconds workers spent inside task closures.
    /// Host-side measurement; excluded from determinism comparisons.
    pub busy_ns: Counter,
    /// Supervised attempts beyond the first (retries after a panic) —
    /// deterministic when the underlying failures are injected.
    pub retries: Counter,
    /// Supervised tasks whose every attempt panicked (typed
    /// [`TaskFailure::Quarantined`] outcomes).
    pub quarantined: Counter,
    /// Supervised tasks abandoned by the wall-clock watchdog (typed
    /// [`TaskFailure::TaskTimeout`] outcomes).
    pub timeouts: Counter,
}

impl PoolCounters {
    /// Register the pool counters under `prefix` (e.g. `exec.pool`).
    pub fn register(registry: &MetricsRegistry, prefix: &str) -> PoolCounters {
        registry.register(|r| PoolCounters {
            batches: r.counter(format_args!("{prefix}.batches")),
            tasks: r.counter(format_args!("{prefix}.tasks")),
            busy_ns: r.counter(format_args!("{prefix}.busy_ns")),
            retries: r.counter(format_args!("{prefix}.retries")),
            quarantined: r.counter(format_args!("{prefix}.quarantined")),
            timeouts: r.counter(format_args!("{prefix}.timeouts")),
        })
    }
}

/// Typed failure of one supervised task — the supervisor's terminal
/// outcomes, mirroring how `ClusterOutcome` records degraded-but-clean
/// node failures instead of panicking the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskFailure {
    /// Every permitted attempt panicked; the task is quarantined and its
    /// slot reports this typed outcome instead of unwinding the pool.
    Quarantined {
        /// Attempts made before giving up (== the policy's `max_attempts`).
        attempts: u32,
    },
    /// The wall-clock watchdog expired before the attempt finished. The
    /// hung attempt is abandoned (its thread is detached; a late result
    /// is discarded) and the slot reports this typed outcome instead of
    /// wedging the run.
    TaskTimeout {
        /// The watchdog limit that fired, in milliseconds.
        limit_ms: u64,
    },
}

impl std::fmt::Display for TaskFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Quarantined { attempts } => {
                write!(f, "quarantined after {attempts} panicking attempt(s)")
            }
            TaskFailure::TaskTimeout { limit_ms } => {
                write!(f, "hung past the {limit_ms}ms watchdog")
            }
        }
    }
}

/// Result of one supervised task: the value, or a typed failure.
pub type Supervised<T> = Result<T, TaskFailure>;

/// Retry/watchdog policy for [`Pool::run_supervised`].
#[derive(Clone, Copy, Debug)]
pub struct SupervisePolicy {
    /// Total attempts per task before quarantine; clamped to at least 1.
    pub max_attempts: u32,
    /// Per-attempt wall-clock watchdog. `None` disables the watchdog and
    /// runs attempts on the claiming worker itself; `Some` runs each
    /// attempt on a dedicated thread so a hung attempt can be abandoned.
    pub timeout: Option<Duration>,
}

impl Default for SupervisePolicy {
    fn default() -> Self {
        SupervisePolicy { max_attempts: 3, timeout: None }
    }
}

/// What one attempt did, as seen by the supervisor loop.
enum Attempt<T> {
    Done(T),
    Panicked,
    Hung { limit_ms: u64 },
}

/// A fixed-width scoped-thread work pool. Cheap to construct (it holds no
/// threads between batches); every [`Pool::run`] call opens one
/// `std::thread::scope`, so borrowed task captures work naturally.
pub struct Pool {
    threads: usize,
    counters: Option<PoolCounters>,
}

impl Pool {
    /// A pool running `threads` workers per batch; 0 is clamped to 1.
    pub fn new(threads: usize) -> Pool {
        Pool { threads: threads.max(1), counters: None }
    }

    /// The serial pool: tasks run inline, in order.
    pub fn serial() -> Pool {
        Pool::new(1)
    }

    /// [`Pool::new`] with telemetry attached.
    pub fn with_counters(threads: usize, counters: PoolCounters) -> Pool {
        Pool { threads: threads.max(1), counters: Some(counters) }
    }

    /// Worker width of this pool.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run every task and return the results in submission order.
    ///
    /// Results are byte-identical to a serial `tasks.map(|f| f())` as long
    /// as each task is a pure function of its captures. A panicking task
    /// propagates the panic to the caller, as it would serially.
    ///
    /// Purity is enforced statically: task closures call into the
    /// simulation crates, which the root `clippy.toml` lists keep free of
    /// clocks, hash-ordered collections, shared mutable state, I/O and
    /// channels (DESIGN.md §8). A new kind of pool workload that lives in
    /// a simulation crate is covered without further annotation.
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "the atomic work cursor and slot mutexes are the ordered-merge machinery; \
                  the busy-time clock lands in the pool registry, excluded from \
                  determinism comparisons (DESIGN.md §11)"
    )]
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if let Some(c) = &self.counters {
            c.batches.inc();
            c.tasks.add(n as u64);
        }
        if self.threads <= 1 || n <= 1 {
            return self.run_inline(tasks);
        }

        // Self-scheduling: workers claim task indices through one atomic
        // cursor; each slot is taken exactly once, and every worker tags
        // results with the submission index so the merge below restores
        // submission order regardless of which worker ran what.
        let cursor = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Option<F>>> =
            tasks.into_iter().map(|f| std::sync::Mutex::new(Some(f))).collect();
        let workers = self.threads.min(n);
        let mut merged: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut busy_total: u64 = 0;

        let first_panic = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let cursor = &cursor;
                    let slots = &slots;
                    scope.spawn(move || {
                        let mut produced: Vec<(usize, T)> = Vec::new();
                        let mut busy_ns: u64 = 0;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            // INVARIANT: index i was claimed exclusively by
                            // this fetch_add, so the slot still holds its
                            // task; a poisoned lock cannot corrupt an
                            // Option, recover its contents.
                            let task = slots[i]
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .take();
                            let Some(task) = task else { continue };
                            let started = Instant::now();
                            let value = task();
                            busy_ns += started.elapsed().as_nanos() as u64;
                            produced.push((i, value));
                        }
                        (produced, busy_ns)
                    })
                })
                .collect();
            // Join *every* worker before deciding the batch's fate: an
            // early resume_unwind on the first panicked handle would skip
            // the surviving workers' merges and the busy_ns flush below,
            // leaving PoolCounters snapshots inconsistent mid-batch.
            let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
            for handle in handles {
                match handle.join() {
                    Ok((produced, busy_ns)) => {
                        busy_total += busy_ns;
                        for (i, value) in produced {
                            merged[i] = Some(value);
                        }
                    }
                    // A worker panicked mid-task: remember the first
                    // payload, keep draining the rest.
                    Err(payload) => {
                        if first_panic.is_none() {
                            first_panic = Some(payload);
                        }
                    }
                }
            }
            first_panic
        });

        // Counters are finalized before any unwind reaches the caller, so
        // a telemetry snapshot taken after catching the panic still sees
        // the surviving workers' busy time.
        if let Some(c) = &self.counters {
            c.busy_ns.add(busy_total);
        }
        if let Some(payload) = first_panic {
            // Re-raise on the caller's thread so a panicking task behaves
            // as it would have serially.
            std::panic::resume_unwind(payload);
        }
        merged
            .into_iter()
            .map(|slot| {
                // INVARIANT: every index below the cursor was claimed and
                // produced exactly once; a hole would mean a worker died,
                // which resume_unwind above already surfaced.
                slot.expect("every submitted task produced a result")
            })
            .collect()
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "pool busy-time counter; lands in the pool registry, excluded from \
                  determinism comparisons (DESIGN.md §11)"
    )]
    fn run_inline<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        F: FnOnce() -> T,
    {
        let started = Instant::now();
        let out: Vec<T> = tasks.into_iter().map(|f| f()).collect();
        if let Some(c) = &self.counters {
            c.busy_ns.add(started.elapsed().as_nanos() as u64);
        }
        out
    }

    /// Run every task under supervision: a panicking attempt is caught
    /// (`catch_unwind`) and retried up to `policy.max_attempts` times; a
    /// task that keeps panicking is *quarantined* into a typed
    /// [`TaskFailure::Quarantined`] outcome, and — when a watchdog is
    /// configured — a hung attempt is abandoned into a typed
    /// [`TaskFailure::TaskTimeout`]. The supervisor never panics the
    /// batch and never wedges the run.
    ///
    /// Each attempt receives its 0-based attempt index, so deterministic
    /// fault injection ("panic on the first k attempts") stays a pure
    /// function of (task, attempt) — which keeps supervised outcomes, and
    /// therefore the merged result vector, byte-identical at any thread
    /// count. Results come back in submission order like [`Pool::run`].
    pub fn run_supervised<T, F>(&self, tasks: Vec<F>, policy: SupervisePolicy) -> Vec<Supervised<T>>
    where
        T: Send + 'static,
        F: Fn(u32) -> T + Send + Sync + 'static,
    {
        let max_attempts = policy.max_attempts.max(1);
        let timeout = policy.timeout;
        let wrapped: Vec<_> = tasks
            .into_iter()
            .map(|task| {
                let task = Arc::new(task);
                move || supervise_one(task, max_attempts, timeout)
            })
            .collect();
        let outcomes = self.run(wrapped);
        if let Some(c) = &self.counters {
            for (outcome, attempts) in &outcomes {
                c.retries.add(attempts.saturating_sub(1) as u64);
                match outcome {
                    Err(TaskFailure::Quarantined { .. }) => c.quarantined.inc(),
                    Err(TaskFailure::TaskTimeout { .. }) => c.timeouts.inc(),
                    Ok(_) => {}
                }
            }
        }
        outcomes.into_iter().map(|(outcome, _)| outcome).collect()
    }
}

/// Drive one task through the retry/quarantine/watchdog state machine.
/// Returns the outcome plus the number of attempts made (for telemetry).
fn supervise_one<T, F>(
    task: Arc<F>,
    max_attempts: u32,
    timeout: Option<Duration>,
) -> (Supervised<T>, u32)
where
    T: Send + 'static,
    F: Fn(u32) -> T + Send + Sync + 'static,
{
    for attempt in 0..max_attempts {
        match run_attempt(&task, attempt, timeout) {
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
fn run_attempt<T, F>(task: &Arc<F>, attempt: u32, timeout: Option<Duration>) -> Attempt<T>
where
    T: Send + 'static,
    F: Fn(u32) -> T + Send + Sync + 'static,
{
    match timeout {
        None => {
            // AssertUnwindSafe: tasks are pure functions of their captures
            // (the executor's purity contract), so a failed attempt leaves
            // no state a retry could observe.
            match catch_unwind(AssertUnwindSafe(|| task(attempt))) {
                Ok(v) => Attempt::Done(v),
                Err(_) => Attempt::Panicked,
            }
        }
        Some(limit) => {
            // The watchdog cannot kill a hung thread, only abandon it: the
            // attempt runs detached and reports over a channel; on timeout
            // the receiver walks away and a late result (or panic) is
            // dropped on the floor. The detached thread owns only its Arc
            // clone of the task and the dead sender, so nothing it touches
            // can leak into the merged results.
            let (tx, rx) = mpsc::channel();
            let runner = Arc::clone(task);
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

    #[test]
    fn results_come_back_in_submission_order() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::new(threads);
            let tasks: Vec<_> = (0..57u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect();
            let got = pool.run(tasks);
            let want: Vec<u64> =
                (0..57u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let serial = Pool::serial();
        let make = || (0..24u64).map(|i| move || format!("task-{i}:{}", i * i)).collect::<Vec<_>>();
        let want = serial.run(make());
        for threads in 2..=8 {
            assert_eq!(Pool::new(threads).run(make()), want, "threads={threads}");
        }
    }

    #[test]
    fn zero_and_one_task_batches_work() {
        let pool = Pool::new(4);
        let empty: Vec<fn() -> u32> = Vec::new();
        assert!(pool.run(empty).is_empty());
        assert_eq!(pool.run(vec![|| 41u32 + 1]), vec![42]);
    }

    #[test]
    fn telemetry_counts_batches_and_tasks() {
        let registry = MetricsRegistry::new();
        let pool = Pool::with_counters(3, PoolCounters::register(&registry, "exec.pool"));
        pool.run((0..10).map(|i| move || i).collect::<Vec<_>>());
        pool.run((0..5).map(|i| move || i).collect::<Vec<_>>());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.batches"), 2);
        assert_eq!(snap.counter("exec.pool.tasks"), 15);
    }

    #[test]
    fn borrowed_captures_are_accepted() {
        let data: Vec<u64> = (0..32).collect();
        let pool = Pool::new(4);
        let tasks: Vec<_> = data.chunks(5).map(|c| move || c.iter().sum::<u64>()).collect();
        let sums = pool.run(tasks);
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum());
    }

    #[test]
    fn clamps_zero_threads_to_serial() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn task_panic_propagates_to_caller() {
        let pool = Pool::new(4);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = (0..8u32)
            .map(|i| {
                Box::new(move || if i == 5 { panic!("boom") } else { i }) as _
            })
            .collect();
        pool.run(tasks);
    }

    /// Regression: a panicking task must not leave PoolCounters
    /// inconsistent. Before the unwind-path fix, run() re-raised on the
    /// first panicked join, skipping both the surviving workers' merges
    /// and the busy_ns flush — a snapshot after catching the panic saw
    /// batches=1, tasks=N, busy_ns=0.
    #[test]
    fn panic_path_finalizes_counters() {
        let registry = MetricsRegistry::new();
        let pool = Pool::with_counters(4, PoolCounters::register(&registry, "exec.pool"));
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = (0..16u64)
                .map(|i| {
                    Box::new(move || {
                        if i == 3 {
                            panic!("boom");
                        }
                        // Enough work that surviving workers bank
                        // measurable busy time.
                        (0..20_000u64).fold(i, |a, b| a.wrapping_mul(31).wrapping_add(b))
                    }) as _
                })
                .collect();
            pool.run(tasks);
        }));
        assert!(caught.is_err(), "the panic still propagates");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.batches"), 1);
        assert_eq!(snap.counter("exec.pool.tasks"), 16);
        assert!(
            snap.counter("exec.pool.busy_ns") > 0,
            "surviving workers' busy time was flushed before the unwind"
        );
    }

    /// Panic on the first `k` attempts, then produce a value — the
    /// supervisor's deterministic transient-fault shape.
    fn flaky(i: u64, fail_attempts: u32) -> impl Fn(u32) -> u64 + Send + Sync + 'static {
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
        let pool = Pool::with_counters(2, PoolCounters::register(&registry, "exec.pool"));
        let tasks: Vec<_> = (0..6u64).map(|i| flaky(i, if i == 2 { 2 } else { 0 })).collect();
        let got = pool.run_supervised(tasks, SupervisePolicy { max_attempts: 3, timeout: None });
        for (i, o) in got.iter().enumerate() {
            assert_eq!(*o, Ok((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("exec.pool.retries"), 2);
        assert_eq!(snap.counter("exec.pool.quarantined"), 0);
    }

    #[test]
    fn supervised_quarantines_persistent_panics() {
        let registry = MetricsRegistry::new();
        let pool = Pool::with_counters(3, PoolCounters::register(&registry, "exec.pool"));
        let tasks: Vec<_> = (0..5u64).map(|i| flaky(i, if i == 1 { u32::MAX } else { 0 })).collect();
        let got = pool.run_supervised(tasks, SupervisePolicy { max_attempts: 3, timeout: None });
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
        let pool = Pool::new(2);
        let tasks: Vec<Box<dyn Fn(u32) -> u64 + Send + Sync>> = (0..3u64)
            .map(|i| {
                Box::new(move |_attempt: u32| {
                    if i == 1 {
                        // Far past the watchdog; the supervisor abandons us.
                        std::thread::sleep(Duration::from_secs(300));
                    }
                    i
                }) as _
            })
            .collect();
        let got = pool.run_supervised(
            tasks,
            SupervisePolicy { max_attempts: 2, timeout: Some(Duration::from_millis(50)) },
        );
        assert_eq!(got[0], Ok(0));
        assert_eq!(got[1], Err(TaskFailure::TaskTimeout { limit_ms: 50 }));
        assert_eq!(got[2], Ok(2));
    }

    #[test]
    fn supervised_outcomes_are_thread_count_invariant() {
        let make = || {
            (0..12u64)
                .map(|i| flaky(i, (i % 5) as u32)) // some absorbed, some quarantined
                .collect::<Vec<_>>()
        };
        let policy = SupervisePolicy { max_attempts: 3, timeout: None };
        let want = Pool::serial().run_supervised(make(), policy);
        assert!(want.iter().any(|o| o.is_err()), "the mix includes quarantines");
        for threads in [2, 4, 8] {
            assert_eq!(Pool::new(threads).run_supervised(make(), policy), want, "threads={threads}");
        }
    }

    #[test]
    fn supervise_policy_clamps_zero_attempts() {
        let pool = Pool::serial();
        let got = pool.run_supervised(
            vec![flaky(7, 0)],
            SupervisePolicy { max_attempts: 0, timeout: None },
        );
        assert_eq!(got, vec![Ok(7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15))]);
    }
}
