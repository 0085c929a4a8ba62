//! Point-to-point messaging, requests and waiting.
//!
//! Matching follows MPI semantics: messages between a (source, destination)
//! pair are non-overtaking, receives match in post order against the
//! earliest compatible message, and `MPI_ANY_SOURCE`/`MPI_ANY_TAG`
//! wildcards are supported.
//!
//! Timing: sends are eager — the sender never blocks — and a message
//! becomes *receivable* at `send time + latency + bytes/bandwidth`. A
//! receive that is matched to a message completes at the message's arrival
//! time; `wait`/`waitall` block the caller until the latest completion among
//! their requests.

use crate::collective::{CollectiveOp, Collectives};
use crate::config::MpiConfig;
use crate::fault::{MpiFaultConfig, MpiFaultState, MpiFaultStats, RankFailurePolicy};
use schedsim::{KernelApi, WaitToken};
use simcore::SimTime;
use std::collections::VecDeque;
use std::sync::{Arc, MutexGuard};

/// An MPI process index within the world.
pub type Rank = usize;

/// A non-blocking operation handle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Request(usize);

#[derive(Clone, Copy, Debug)]
struct RequestState {
    /// When the operation completes (known once matched). `None` until a
    /// matching send shows up.
    completed: Option<SimTime>,
    /// Waiter registered on this request, if a wait is outstanding.
    waiter: Option<usize>,
    /// Consumed by a successful wait; double-waits are a caller bug.
    consumed: bool,
}

#[derive(Clone, Copy, Debug)]
struct Waiter {
    token: WaitToken,
    remaining: usize,
    latest: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct InFlight {
    src: Rank,
    tag: i32,
    arrival: SimTime,
}

#[derive(Clone, Copy, Debug)]
struct PostedRecv {
    req: usize,
    src: Option<Rank>,
    tag: Option<i32>,
}

#[derive(Default)]
struct Mailbox {
    /// Messages that arrived (logically) with no matching receive yet.
    unexpected: VecDeque<InFlight>,
    /// Receives posted with no matching message yet.
    posted: VecDeque<PostedRecv>,
}

/// Whole-world message-passing state. Shared by every rank's program via
/// the cloneable [`Mpi`] handle.
pub struct MpiWorld {
    size: usize,
    cfg: MpiConfig,
    mailboxes: Vec<Mailbox>,
    requests: Vec<RequestState>,
    waiters: Vec<Waiter>,
    collectives: Collectives,
    messages_sent: u64,
    bytes_sent: u64,
    /// Installed fault state (class 3); `None` in un-faulted worlds, which
    /// then draw no random values and behave bit-for-bit as before.
    fault: Option<MpiFaultState>,
    /// `(rank, completed iterations)` of a fail-stop abort, once one fired.
    aborted_by: Option<(Rank, u32)>,
}

impl MpiWorld {
    pub fn new(size: usize, cfg: MpiConfig) -> Self {
        assert!(size > 0, "empty MPI world");
        MpiWorld {
            size,
            cfg,
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            requests: Vec::new(),
            waiters: Vec::new(),
            collectives: Collectives::new(size),
            messages_sent: 0,
            bytes_sent: 0,
            fault: None,
            aborted_by: None,
        }
    }

    fn new_request(&mut self, completed: Option<SimTime>) -> Request {
        self.requests.push(RequestState { completed, waiter: None, consumed: false });
        Request(self.requests.len() - 1)
    }

    /// A matched receive completes at `arrival`; notify any waiter.
    fn complete_request(&mut self, api: &mut KernelApi<'_>, req: usize, arrival: SimTime) {
        let state = &mut self.requests[req];
        debug_assert!(state.completed.is_none(), "request completed twice");
        state.completed = Some(arrival);
        if let Some(w) = state.waiter {
            let waiter = &mut self.waiters[w];
            if waiter.remaining == 0 {
                // Already force-released by an abort; nothing to notify.
                return;
            }
            waiter.remaining -= 1;
            waiter.latest = waiter.latest.max(arrival);
            if waiter.remaining == 0 {
                api.signal_at(waiter.latest.max(api.now()), waiter.token);
            }
        }
    }

    fn do_send(&mut self, api: &mut KernelApi<'_>, from: Rank, to: Rank, tag: i32, bytes: u64) {
        assert!(from < self.size && to < self.size, "rank out of range");
        let mut arrival = api.now() + self.cfg.transfer_time(bytes);
        // Fault class 3a: delay spike. One draw per message, in the
        // kernel-fixed send order, so spikes are deterministic per seed.
        if let Some(f) = self.fault.as_mut() {
            if f.cfg.delay_prob > 0.0 && f.rng.chance(f.cfg.delay_prob) {
                arrival += f.cfg.delay_extra;
                f.delays_injected += 1;
            }
        }
        self.messages_sent += 1;
        self.bytes_sent += bytes;
        // Match the earliest compatible posted receive (post order).
        let mb = &mut self.mailboxes[to];
        let pos = mb.posted.iter().position(|p| {
            p.src.map(|s| s == from).unwrap_or(true) && p.tag.map(|t| t == tag).unwrap_or(true)
        });
        match pos {
            Some(i) => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: `i` came from position() on this same deque with no \
                              mutation in between, so the removal cannot miss."
                )]
                let posted = mb.posted.remove(i).expect("index valid");
                self.complete_request(api, posted.req, arrival);
            }
            None => {
                mb.unexpected.push_back(InFlight { src: from, tag, arrival });
            }
        }
    }

    fn do_irecv(
        &mut self,
        me: Rank,
        src: Option<Rank>,
        tag: Option<i32>,
    ) -> (Request, Option<SimTime>) {
        assert!(me < self.size, "rank out of range");
        let mb = &mut self.mailboxes[me];
        let pos = mb.unexpected.iter().position(|m| {
            src.map(|s| s == m.src).unwrap_or(true) && tag.map(|t| t == m.tag).unwrap_or(true)
        });
        match pos {
            Some(i) => {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: `i` came from position() on this same deque with no \
                              mutation in between, so the removal cannot miss."
                )]
                let msg = mb.unexpected.remove(i).expect("index valid");
                let req = self.new_request(Some(msg.arrival));
                (req, Some(msg.arrival))
            }
            None => {
                let req = self.new_request(None);
                self.mailboxes[me].posted.push_back(PostedRecv { req: req.0, src, tag });
                (req, None)
            }
        }
    }

    /// Force-release every blocked rank after an abort: outstanding waiters
    /// are signalled at `now` (or their latest known completion, if later)
    /// and all in-progress collectives are drained. Programs wake, observe
    /// [`Mpi::aborted`] and exit cleanly — nobody hangs, nobody panics.
    fn release_all(&mut self, api: &mut KernelApi<'_>) {
        let now = api.now();
        for waiter in &mut self.waiters {
            if waiter.remaining > 0 {
                waiter.remaining = 0;
                api.signal_at(waiter.latest.max(now), waiter.token);
            }
        }
        self.collectives.release_all(api);
    }
}

/// Cloneable handle to a shared [`MpiWorld`]: what each rank's program
/// holds. All methods take the caller's [`KernelApi`] so blocking waits and
/// timed completions integrate with the kernel.
#[derive(Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "all mutex-guarded MPI state funnels through the world() helper; one \
              kernel thread drives every rank (DESIGN.md §9)"
)]
pub struct Mpi {
    inner: Arc<std::sync::Mutex<MpiWorld>>,
}

impl Mpi {
    /// Create a world of `size` ranks.
    #[expect(clippy::disallowed_types, reason = "creates the world() mutex; see `Mpi`")]
    pub fn new(size: usize, cfg: MpiConfig) -> Self {
        Mpi { inner: Arc::new(std::sync::Mutex::new(MpiWorld::new(size, cfg))) }
    }

    /// Lock the shared world. Every access funnels through here.
    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: simulation runs are single-threaded per kernel, and no code path \
                  below panics while holding this lock on a fault-injection path — so a \
                  poisoned mutex can only mean a bug inside this crate, and propagating the \
                  panic (not masking it) is the correct response."
    )]
    fn world(&self) -> MutexGuard<'_, MpiWorld> {
        self.inner.lock().expect("mpi world poisoned")
    }

    /// Install a fault configuration (normally compiled from a `faultsim`
    /// plan). Must be called before the first message; replaces any prior
    /// config.
    pub fn install_faults(&self, cfg: MpiFaultConfig) {
        self.world().fault = Some(MpiFaultState::new(cfg));
    }

    /// Whether a fail-stop abort has fired. Programs poll this when they
    /// wake and exit cleanly if set.
    pub fn aborted(&self) -> bool {
        self.world().aborted_by.is_some()
    }

    /// Snapshot of fault accounting (all zero when no faults installed).
    pub fn fault_stats(&self) -> MpiFaultStats {
        let w = self.world();
        let mut stats = MpiFaultStats { aborted_by: w.aborted_by, ..Default::default() };
        if let Some(f) = w.fault.as_ref() {
            stats.delays_injected = f.delays_injected;
            stats.restarts = f.restarts;
        }
        stats
    }

    /// Poll the crash directive at an iteration boundary. Fires (once) when
    /// `rank` matches and has completed at least `at_iteration` iterations;
    /// returns the policy for the caller to enact. Restart polls count as
    /// absorbed restarts.
    pub fn take_crash(&self, rank: Rank, completed_iters: u32) -> Option<RankFailurePolicy> {
        let mut w = self.world();
        let f = w.fault.as_mut()?;
        let crash = f.cfg.crash?;
        if f.crash_consumed || crash.rank != rank || completed_iters < crash.at_iteration {
            return None;
        }
        f.crash_consumed = true;
        if let RankFailurePolicy::RestartFromIteration { .. } = crash.policy {
            f.restarts += 1;
        }
        Some(crash.policy)
    }

    /// Fail-stop abort: record the failing `(rank, iteration)` and release
    /// every blocked rank so the job winds down cleanly.
    pub fn abort(&self, api: &mut KernelApi<'_>, rank: Rank, iteration: u32) {
        let mut w = self.world();
        if w.aborted_by.is_some() {
            return;
        }
        w.aborted_by = Some((rank, iteration));
        w.release_all(api);
    }

    pub fn size(&self) -> usize {
        self.world().size
    }

    /// Total messages sent so far (diagnostics).
    pub fn messages_sent(&self) -> u64 {
        self.world().messages_sent
    }

    /// Total payload bytes sent so far (diagnostics).
    pub fn bytes_sent(&self) -> u64 {
        self.world().bytes_sent
    }

    /// Eager (buffered) send: never blocks the sender.
    pub fn send(&self, api: &mut KernelApi<'_>, from: Rank, to: Rank, tag: i32, bytes: u64) {
        self.world().do_send(api, from, to, tag, bytes);
    }

    /// Non-blocking send. Eager buffering makes the request complete
    /// immediately; it exists so `waitall` code reads like real MPI.
    pub fn isend(
        &self,
        api: &mut KernelApi<'_>,
        from: Rank,
        to: Rank,
        tag: i32,
        bytes: u64,
    ) -> Request {
        let mut w = self.world();
        w.do_send(api, from, to, tag, bytes);
        let now = api.now();
        w.new_request(Some(now))
    }

    /// Non-blocking receive. `src`/`tag` of `None` are the ANY wildcards.
    pub fn irecv(
        &self,
        _api: &mut KernelApi<'_>,
        me: Rank,
        src: Option<Rank>,
        tag: Option<i32>,
    ) -> Request {
        self.world().do_irecv(me, src, tag).0
    }

    /// Wait for one request. Returns a token to `Action::Block` on; it is
    /// pre-signalled when the request already completed.
    pub fn wait(&self, api: &mut KernelApi<'_>, req: Request) -> WaitToken {
        self.waitall(api, &[req])
    }

    /// Wait for all requests (`mpi_waitall`).
    pub fn waitall(&self, api: &mut KernelApi<'_>, reqs: &[Request]) -> WaitToken {
        let token = api.new_token();
        let mut w = self.world();
        if w.aborted_by.is_some() {
            // Post-abort: don't touch request state (the requests may have
            // been force-released); hand back a token that fires now so the
            // caller wakes, sees `aborted()` and exits.
            api.signal_at(api.now(), token);
            return token;
        }
        let mut remaining = 0;
        let mut latest = SimTime::ZERO;
        let waiter_id = w.waiters.len();
        for r in reqs {
            let state = &mut w.requests[r.0];
            assert!(!state.consumed, "request waited twice");
            state.consumed = true;
            match state.completed {
                Some(t) => latest = latest.max(t),
                None => {
                    debug_assert!(state.waiter.is_none(), "request already has a waiter");
                    state.waiter = Some(waiter_id);
                    remaining += 1;
                }
            }
        }
        if remaining == 0 {
            api.signal_at(latest.max(api.now()), token);
        } else {
            w.waiters.push(Waiter { token, remaining, latest });
        }
        token
    }

    /// Blocking receive: `irecv` + `wait` fused.
    pub fn recv(
        &self,
        api: &mut KernelApi<'_>,
        me: Rank,
        src: Option<Rank>,
        tag: Option<i32>,
    ) -> WaitToken {
        let req = self.irecv(api, me, src, tag);
        self.wait(api, req)
    }

    /// Enter a barrier (`mpi_barrier`).
    pub fn barrier(&self, api: &mut KernelApi<'_>, rank: Rank) -> WaitToken {
        self.collective(api, rank, CollectiveOp::Barrier, 0)
    }

    /// Enter a collective operation; returns the completion token for this
    /// rank.
    pub fn collective(
        &self,
        api: &mut KernelApi<'_>,
        rank: Rank,
        op: CollectiveOp,
        bytes: u64,
    ) -> WaitToken {
        let mut w = self.world();
        if w.aborted_by.is_some() {
            // Post-abort: never enter (or create) a collective that can no
            // longer complete — wake immediately instead.
            let token = api.new_token();
            api.signal_at(api.now(), token);
            return token;
        }
        let cfg = w.cfg;
        w.collectives.arrive(api, rank, op, bytes, &cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::RankCrash;
    use schedsim::program::MockApi;
    use schedsim::TaskId;
    use simcore::SimDuration;

    fn world(n: usize) -> Mpi {
        Mpi::new(n, MpiConfig::default())
    }

    #[test]
    fn send_then_recv_completes_at_arrival() {
        let mpi = world(2);
        let mut m = MockApi::new();
        mpi.send(&mut m.api(), 0, 1, 7, 1000);
        let tok = mpi.recv(&mut m.api(), 1, Some(0), Some(7));
        // Message already "sent": the wait token is scheduled, not pending.
        assert_eq!(m.deferred_signals.len(), 1);
        let (at, t) = m.deferred_signals[0];
        assert_eq!(t, tok);
        let expected = SimTime::ZERO + MpiConfig::default().transfer_time(1000);
        assert_eq!(at, expected);
    }

    #[test]
    fn recv_before_send_blocks_until_send() {
        let mpi = world(2);
        let mut m = MockApi::new();
        let tok = mpi.recv(&mut m.api(), 1, Some(0), None);
        assert!(m.deferred_signals.is_empty(), "nothing to signal yet");
        mpi.send(&mut m.api(), 0, 1, 3, 64);
        assert_eq!(m.deferred_signals.len(), 1);
        assert_eq!(m.deferred_signals[0].1, tok);
    }

    #[test]
    fn tag_matching_is_selective() {
        let mpi = world(2);
        let mut m = MockApi::new();
        mpi.send(&mut m.api(), 0, 1, 1, 0);
        let _tok = mpi.recv(&mut m.api(), 1, Some(0), Some(2));
        assert!(m.deferred_signals.is_empty(), "tag 1 must not match recv tag 2");
        mpi.send(&mut m.api(), 0, 1, 2, 0);
        assert_eq!(m.deferred_signals.len(), 1, "tag 2 matches");
    }

    #[test]
    fn any_source_any_tag_wildcards() {
        let mpi = world(3);
        let mut m = MockApi::new();
        mpi.send(&mut m.api(), 2, 0, 99, 0);
        let _ = mpi.recv(&mut m.api(), 0, None, None);
        assert_eq!(m.deferred_signals.len(), 1);
    }

    #[test]
    fn fifo_matching_order() {
        let mpi = world(2);
        let mut m = MockApi::new();
        // Two messages same (src, tag); two receives: first recv gets the
        // first message.
        mpi.send(&mut m.api(), 0, 1, 5, 0);
        m.now = SimTime::ZERO + SimDuration::from_millis(1);
        mpi.send(&mut m.api(), 0, 1, 5, 0);
        let r1 = mpi.irecv(&mut m.api(), 1, Some(0), Some(5));
        let r2 = mpi.irecv(&mut m.api(), 1, Some(0), Some(5));
        let t1 = mpi.wait(&mut m.api(), r1);
        let t2 = mpi.wait(&mut m.api(), r2);
        let find = |tok| m.deferred_signals.iter().find(|(_, t)| *t == tok).unwrap().0;
        assert!(find(t1) < find(t2), "first posted recv completes first");
    }

    #[test]
    fn waitall_waits_for_latest() {
        let mpi = world(3);
        let mut m = MockApi::new();
        let r1 = mpi.irecv(&mut m.api(), 0, Some(1), None);
        let r2 = mpi.irecv(&mut m.api(), 0, Some(2), None);
        let tok = mpi.waitall(&mut m.api(), &[r1, r2]);
        assert!(m.deferred_signals.is_empty());
        mpi.send(&mut m.api(), 1, 0, 0, 0);
        assert!(m.deferred_signals.is_empty(), "one of two done");
        m.now = SimTime::ZERO + SimDuration::from_millis(5);
        mpi.send(&mut m.api(), 2, 0, 0, 1_000_000);
        assert_eq!(m.deferred_signals.len(), 1);
        let (at, t) = m.deferred_signals[0];
        assert_eq!(t, tok);
        assert_eq!(at, m.now + MpiConfig::default().transfer_time(1_000_000));
    }

    #[test]
    fn waitall_on_completed_requests_signals_immediately() {
        let mpi = world(2);
        let mut m = MockApi::new();
        let s = mpi.isend(&mut m.api(), 0, 1, 0, 128);
        let tok = mpi.waitall(&mut m.api(), &[s]);
        assert_eq!(m.deferred_signals.len(), 1);
        assert_eq!(m.deferred_signals[0].1, tok);
        assert_eq!(m.deferred_signals[0].0, m.now, "no waiting for eager send");
    }

    #[test]
    #[should_panic(expected = "request waited twice")]
    fn double_wait_panics() {
        let mpi = world(2);
        let mut m = MockApi::new();
        let s = mpi.isend(&mut m.api(), 0, 1, 0, 0);
        let _ = mpi.wait(&mut m.api(), s);
        let _ = mpi.wait(&mut m.api(), s);
    }

    #[test]
    fn stats_accumulate() {
        let mpi = world(2);
        let mut m = MockApi::new();
        mpi.send(&mut m.api(), 0, 1, 0, 100);
        mpi.send(&mut m.api(), 1, 0, 0, 200);
        assert_eq!(mpi.messages_sent(), 2);
        assert_eq!(mpi.bytes_sent(), 300);
        assert_eq!(mpi.size(), 2);
    }

    #[test]
    fn delay_spike_with_certain_probability_adds_extra_latency() {
        let mpi = world(2);
        let extra = SimDuration::from_millis(50);
        mpi.install_faults(MpiFaultConfig {
            delay_prob: 1.0,
            delay_extra: extra,
            seed: 7,
            crash: None,
        });
        let mut m = MockApi::new();
        mpi.send(&mut m.api(), 0, 1, 0, 1000);
        let _ = mpi.recv(&mut m.api(), 1, Some(0), None);
        let expected = SimTime::ZERO + MpiConfig::default().transfer_time(1000) + extra;
        assert_eq!(m.deferred_signals[0].0, expected);
        assert_eq!(mpi.fault_stats().delays_injected, 1);
    }

    #[test]
    fn take_crash_fires_once_at_configured_iteration() {
        let mpi = world(2);
        mpi.install_faults(MpiFaultConfig {
            delay_prob: 0.0,
            delay_extra: SimDuration::ZERO,
            seed: 1,
            crash: Some(RankCrash {
                rank: 1,
                at_iteration: 3,
                policy: RankFailurePolicy::FailStop,
            }),
        });
        assert_eq!(mpi.take_crash(1, 2), None, "too early");
        assert_eq!(mpi.take_crash(0, 3), None, "wrong rank");
        assert_eq!(mpi.take_crash(1, 3), Some(RankFailurePolicy::FailStop));
        assert_eq!(mpi.take_crash(1, 4), None, "one-shot");
    }

    #[test]
    fn abort_releases_waiters_and_pre_signals_later_collectives() {
        let mpi = world(2);
        let mut m = MockApi::new();
        // Rank 1 blocks on a recv that will never be matched; rank 0 sits
        // in a barrier rank 1 will never reach.
        let recv_tok = mpi.recv(&mut m.api(), 1, Some(0), None);
        let bar_tok = mpi.barrier(&mut m.api(), 0);
        assert!(m.deferred_signals.is_empty());

        mpi.abort(&mut m.api(), 1, 5);
        assert!(mpi.aborted());
        assert_eq!(mpi.fault_stats().aborted_by, Some((1, 5)));
        let signalled: Vec<_> = m.deferred_signals.iter().map(|(_, t)| *t).collect();
        assert!(signalled.contains(&recv_tok), "blocked recv released");
        assert!(signalled.contains(&bar_tok), "blocked barrier released");

        // Post-abort waits and collectives pre-signal instead of blocking.
        let before = m.deferred_signals.len();
        let _ = mpi.barrier(&mut m.api(), 0);
        let s = mpi.isend(&mut m.api(), 0, 1, 0, 0);
        let _ = mpi.waitall(&mut m.api(), &[s]);
        assert_eq!(m.deferred_signals.len(), before + 2);

        // A second abort is a no-op: the first record wins.
        mpi.abort(&mut m.api(), 0, 9);
        assert_eq!(mpi.fault_stats().aborted_by, Some((1, 5)));
    }

    #[test]
    fn unfaulted_world_reports_zero_fault_stats() {
        let mpi = world(2);
        assert_eq!(mpi.fault_stats(), MpiFaultStats::default());
        assert_eq!(mpi.take_crash(0, 100), None);
        assert!(!mpi.aborted());
    }

    #[test]
    fn barrier_token_pre_signalled_for_last_arriver() {
        let mpi = world(2);
        let mut m = MockApi::at(SimTime::ZERO, TaskId(0));
        let t0 = mpi.barrier(&mut m.api(), 0);
        assert!(m.deferred_signals.is_empty(), "rank 0 waits");
        let t1 = mpi.barrier(&mut m.api(), 1);
        // Both tokens released at the same post-barrier instant.
        let times: Vec<SimTime> = [t0, t1]
            .iter()
            .map(|tok| m.deferred_signals.iter().find(|(_, t)| t == tok).unwrap().0)
            .collect();
        assert_eq!(times[0], times[1]);
        assert!(times[0] > m.now);
    }
}
