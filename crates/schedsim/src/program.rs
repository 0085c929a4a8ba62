//! Task programs: the "user code" simulated tasks execute.
//!
//! A [`Program`] is a resumable state machine. The kernel calls
//! [`Program::next_action`] whenever the previous action completes; the
//! program answers with the next thing it wants to do: burn CPU
//! ([`Action::Compute`]), block on a [`WaitToken`] ([`Action::Block`]),
//! yield, or exit. Non-blocking work (posting an MPI send, arming a timer)
//! happens *inside* `next_action` through the [`KernelApi`], which exposes
//! token creation and signalling — the same facility the MPI layer and the
//! OS-noise daemons use.

use crate::policy::SchedPolicy;
use crate::task::TaskId;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// CPU work, in units of "seconds of a dedicated single-threaded core".
/// A task with speed factor `s` consumes `w` work in `w / s` seconds.
pub type Work = f64;

/// A one-shot wait/signal token connecting blockers and wakers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct WaitToken(pub u64);

/// What a program wants to do next.
pub enum Action {
    /// Consume `Work` units of CPU.
    Compute(Work),
    /// Sleep until the token is signalled. If it was already signalled the
    /// kernel continues the program immediately (no sleep, no iteration
    /// boundary).
    Block(WaitToken),
    /// Release the CPU but stay runnable (`sched_yield`).
    Yield,
    /// Terminate.
    Exit,
}

/// User code for a simulated task, run on its kernel's thread.
pub trait Program {
    /// Produce the next action. `api` allows non-blocking kernel calls
    /// (tokens, timers, policy changes) during the transition.
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action;
}

/// The syscall surface exposed to programs while they transition.
///
/// Borrowed pieces of kernel state: enough to create/signal tokens and
/// schedule timed signals without re-entering the scheduler.
pub struct KernelApi<'a> {
    pub(crate) now: SimTime,
    pub(crate) caller: TaskId,
    pub(crate) tokens: &'a mut TokenTable,
    /// Timed signals the kernel must arm once the transition completes:
    /// `(fire_at, token)`.
    pub(crate) deferred_signals: &'a mut Vec<(SimTime, WaitToken)>,
    /// Immediate wakeups produced during the transition (signalling a token
    /// some *other* task is blocked on).
    pub(crate) policy_change: &'a mut Option<SchedPolicy>,
}

impl<'a> KernelApi<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The calling task.
    pub fn caller(&self) -> TaskId {
        self.caller
    }

    /// Create a fresh unsignalled token.
    pub fn new_token(&mut self) -> WaitToken {
        self.tokens.create()
    }

    /// Signal a token now. If a task is blocked on it, the kernel wakes it
    /// once the current transition finishes.
    pub fn signal(&mut self, tok: WaitToken) {
        self.tokens.signal(tok);
    }

    /// Signal a token at a future time (timer / message delivery).
    pub fn signal_at(&mut self, at: SimTime, tok: WaitToken) {
        debug_assert!(at >= self.now, "signal scheduled in the past");
        self.deferred_signals.push((at, tok));
    }

    /// Convenience: signal after a delay.
    pub fn signal_after(&mut self, delay: SimDuration, tok: WaitToken) {
        self.deferred_signals.push((self.now + delay, tok));
    }

    /// `sched_setscheduler(0, policy)`: move the calling task to another
    /// policy, effective immediately after this transition. This is the
    /// one-line change the paper asks of application code (§IV-A).
    pub fn set_scheduler(&mut self, policy: SchedPolicy) {
        *self.policy_change = Some(policy);
    }
}

/// State of every token ever created.
///
/// Tokens are one-shot: created → (optionally) a single task blocks on it →
/// signalled → consumed. Signalling before the block is recorded so the
/// block returns immediately (the "wakeup already arrived" race).
#[derive(Default)]
pub struct TokenTable {
    next: u64,
    /// Tokens signalled with no blocker yet. Ordered containers keep every
    /// token-table walk independent of hash order.
    pending_signals: BTreeSet<u64>,
    /// Token → blocked task.
    blockers: BTreeMap<u64, TaskId>,
    /// Wakeups ready for the kernel to perform.
    ready_wakes: Vec<TaskId>,
}

impl TokenTable {
    pub fn create(&mut self) -> WaitToken {
        let t = WaitToken(self.next);
        self.next += 1;
        t
    }

    /// Record that `task` blocks on `tok`. Returns `true` if the token was
    /// already signalled (the task must not sleep).
    pub fn block(&mut self, tok: WaitToken, task: TaskId) -> bool {
        if self.pending_signals.remove(&tok.0) {
            true
        } else {
            let prev = self.blockers.insert(tok.0, task);
            debug_assert!(prev.is_none(), "token blocked twice");
            false
        }
    }

    /// Signal `tok`; queues a wake if a task is blocked on it.
    pub fn signal(&mut self, tok: WaitToken) {
        if let Some(task) = self.blockers.remove(&tok.0) {
            self.ready_wakes.push(task);
        } else {
            self.pending_signals.insert(tok.0);
        }
    }

    /// Hand over the wakeups produced by recent signals by swapping them
    /// into `buf`, which must be empty. The table keeps `buf`'s
    /// allocation for the next wakeups, so a caller that clears and
    /// passes back the same buffer allocates only while the lists grow.
    pub fn swap_wakes(&mut self, buf: &mut Vec<TaskId>) {
        debug_assert!(buf.is_empty(), "wakeups handed over twice");
        std::mem::swap(&mut self.ready_wakes, buf);
    }

    /// Test helper: is the token signalled-and-unconsumed?
    pub fn is_pending(&self, tok: WaitToken) -> bool {
        self.pending_signals.contains(&tok.0)
    }
}

/// Owned backing storage for a [`KernelApi`] outside the kernel — lets
/// other crates unit-test code that takes `&mut KernelApi` (MPI layers,
/// custom programs) without spinning up a whole simulation.
#[derive(Default)]
pub struct MockApi {
    pub tokens: TokenTable,
    pub deferred_signals: Vec<(SimTime, WaitToken)>,
    pub policy_change: Option<SchedPolicy>,
    pub now: SimTime,
    pub caller: TaskId,
}

impl MockApi {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn at(now: SimTime, caller: TaskId) -> Self {
        MockApi { now, caller, ..Default::default() }
    }

    /// Borrow as a [`KernelApi`].
    pub fn api(&mut self) -> KernelApi<'_> {
        KernelApi {
            now: self.now,
            caller: self.caller,
            tokens: &mut self.tokens,
            deferred_signals: &mut self.deferred_signals,
            policy_change: &mut self.policy_change,
        }
    }
}

/// A program built from a fixed list of actions; handy in tests.
pub struct ScriptedProgram {
    actions: std::vec::IntoIter<Action>,
}

impl ScriptedProgram {
    pub fn new(actions: Vec<Action>) -> Self {
        ScriptedProgram { actions: actions.into_iter() }
    }

    /// A program that computes `work` once and exits.
    pub fn compute_once(work: Work) -> Self {
        ScriptedProgram::new(vec![Action::Compute(work), Action::Exit])
    }
}

impl Program for ScriptedProgram {
    fn next_action(&mut self, _api: &mut KernelApi<'_>) -> Action {
        self.actions.next().unwrap_or(Action::Exit)
    }
}

/// A program driven by a closure; the most flexible test/utility form.
pub struct FnProgram<F>(pub F);

impl<F> Program for FnProgram<F>
where
    F: FnMut(&mut KernelApi<'_>) -> Action,
{
    fn next_action(&mut self, api: &mut KernelApi<'_>) -> Action {
        (self.0)(api)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take_wakes(tt: &mut TokenTable) -> Vec<TaskId> {
        let mut wakes = Vec::new();
        tt.swap_wakes(&mut wakes);
        wakes
    }

    #[test]
    fn token_block_then_signal() {
        let mut tt = TokenTable::default();
        let tok = tt.create();
        assert!(!tt.block(tok, TaskId(3)), "not yet signalled: task sleeps");
        tt.signal(tok);
        assert_eq!(take_wakes(&mut tt), vec![TaskId(3)]);
        assert!(take_wakes(&mut tt).is_empty(), "wakes drain once");
    }

    #[test]
    fn token_signal_then_block_returns_immediately() {
        let mut tt = TokenTable::default();
        let tok = tt.create();
        tt.signal(tok);
        assert!(tt.is_pending(tok));
        assert!(tt.block(tok, TaskId(1)), "pre-signalled: no sleep");
        assert!(!tt.is_pending(tok), "consumed");
        assert!(take_wakes(&mut tt).is_empty());
    }

    #[test]
    fn tokens_are_distinct() {
        let mut tt = TokenTable::default();
        let a = tt.create();
        let b = tt.create();
        assert_ne!(a, b);
        tt.signal(a);
        assert!(!tt.block(b, TaskId(0)), "signal on a does not release b");
    }

    #[test]
    fn scripted_program_runs_out_to_exit() {
        let mut p = ScriptedProgram::new(vec![Action::Compute(1.0)]);
        let mut tokens = TokenTable::default();
        let mut sigs = Vec::new();
        let mut pol = None;
        let mut api = KernelApi {
            now: SimTime::ZERO,
            caller: TaskId(0),
            tokens: &mut tokens,
            deferred_signals: &mut sigs,
            policy_change: &mut pol,
        };
        assert!(matches!(p.next_action(&mut api), Action::Compute(w) if w == 1.0));
        assert!(matches!(p.next_action(&mut api), Action::Exit));
        assert!(matches!(p.next_action(&mut api), Action::Exit));
    }

    #[test]
    fn api_signal_after_defers() {
        let mut tokens = TokenTable::default();
        let mut sigs = Vec::new();
        let mut pol = None;
        let mut api = KernelApi {
            now: SimTime::ZERO + SimDuration::from_millis(1),
            caller: TaskId(0),
            tokens: &mut tokens,
            deferred_signals: &mut sigs,
            policy_change: &mut pol,
        };
        let tok = api.new_token();
        api.signal_after(SimDuration::from_millis(4), tok);
        api.set_scheduler(SchedPolicy::Hpc);
        assert_eq!(sigs.len(), 1);
        assert_eq!(sigs[0].0, SimTime::ZERO + SimDuration::from_millis(5));
        assert_eq!(pol, Some(SchedPolicy::Hpc));
    }
}
