//! The event-driven batch engine: arrivals → queue → admission →
//! per-job cluster runs on real `schedsim` kernels.
//!
//! # Determinism argument
//!
//! The whole simulation is a pure function of `(stream, config, fault)`:
//!
//! * arrivals are a sorted input, ties broken by submission id;
//! * every queue decision iterates jobs in a total order (discipline
//!   order, then id) over ordered-set state — no hash iteration; the
//!   pending queue ([`crate::pending::PendingQueue`]) and the release
//!   index ([`crate::index::ReleaseIndex`]) keep exactly the orders the
//!   old linear structures exposed, in O(log n) per operation;
//! * a job's *service time* is computed by node kernel runs that read only
//!   the node's loads, the iterations, the local scheduler and the
//!   gang-local node shape — never the start time, the global node ids or
//!   a seed — so the oracle used for SJF ordering and EASY shadow
//!   arithmetic returns exactly the duration the job will take when it
//!   actually runs, whenever that is. The service
//!   key is the job id, or the job's class when the stream assigns one
//!   ([`BatchJob::service_key`]) — class catalogs are what make
//!   million-job fleet streams affordable (one measurement per class);
//! * event timestamps are exact [`SimTime`] nanoseconds — equality and
//!   ordering of completions, arrivals, and EASY shadow deadlines are
//!   integer comparisons, with no float slack;
//! * simulated time advances only to event timestamps (completions before
//!   arrivals at equal times, both in id order);
//! * each per-node kernel run is one serial supervisor call
//!   (`exec::supervise`), made in node order: each run is a pure function of
//!   `(loads, iterations, sched, shape)` (see [`crate::node`]) with no
//!   per-node seed, so the oracle memoises node runs by content and runs
//!   only the ones it has not seen, and every reduction folds in node
//!   order.
//!
//! The purity and timestamp points make the EASY no-delay invariant *exact*
//! rather than estimate-based: the reservation (shadow time) computed when
//! the queue head blocks is the time the head actually starts, unless an
//! earlier completion improves it.
//!
//! # One engine path
//!
//! Every entry point drives the same loop over the same state and returns
//! the same [`BatchOutcome`]. The state always keeps an O(1) summary: the
//! trace as a running FNV-1a fold and a [`FleetAccum`]; counts such as
//! reservations live in the metrics registry. The `run_batch*` entry
//! points also keep a recording — every event, the first reservation per
//! head and every job record; the fleet entry points ([`run_fleet`] and
//! [`run_fleet_until`], see [`crate::fleet`]) leave it off and stay O(1)
//! in the job count. [`resume_batch`] continues either kind of image. The
//! one input difference is the [`JobSource`]: a caller's list or a lazy
//! generator. A fleet run and a [`run_batch`] over the materialised
//! stream are therefore the same simulation with the same `trace_hash`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use faultsim::{NodeFailSpec, TaskAbortSpec};
use simcore::snapshot::fnv1a_fold;
use simcore::{SimDuration, SimTime};
use simverify::conformance::{check_with_metrics, CheckConfig, Report};
use telemetry::{MetricsRegistry, MetricsSnapshot};

use crate::arrivals::FleetJobs;
use crate::checkpoint::{BatchCheckpoint, CheckpointPolicy, SourceImage};
use crate::discipline::Discipline;
use crate::exec::{supervise, SuperviseCounters, SupervisePolicy, Supervised, TaskFailure};
use crate::fleet::{FleetAccum, FleetConfig};
use crate::index::ReleaseIndex;
use crate::job::{BatchJob, JobSpec};
use crate::node::{run_node, LocalSched};
use crate::pending::PendingQueue;
use crate::placement::{place_with, PlaceScratch, Placement, PlacementStrategy, NODE_SLOTS};
use crate::shape::{NodeShape, TopoPreset};

/// The trace fingerprint is `simcore`'s FNV-1a; its constants are
/// re-exported here for callers that fold trace lines themselves.
pub use simcore::snapshot::{FNV_BASIS, FNV_PRIME};

/// A [`fmt::Write`] sink that folds every byte written to it into an
/// FNV-1a 64-bit hash, so formatted output is fingerprinted without
/// building the string.
#[derive(Clone, Copy, Debug)]
pub struct FnvWriter(u64);

impl FnvWriter {
    /// A fold starting at [`FNV_BASIS`].
    pub fn new() -> Self {
        FnvWriter(FNV_BASIS)
    }

    /// Continue a fold whose hash so far is `hash`.
    pub fn resume(hash: u64) -> Self {
        FnvWriter(hash)
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for FnvWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = fnv1a_fold(self.0, s.as_bytes());
        Ok(())
    }
}

/// FNV-1a fingerprint of a rendered text blob. Hashing a full rendered
/// trace with this equals the incremental per-line fold every run keeps
/// ([`BatchOutcome::trace_hash`]).
pub fn text_fnv1a(text: &str) -> u64 {
    simcore::snapshot::fnv1a(text.as_bytes())
}

/// Batch scheduler configuration.
#[derive(Clone, Copy, Debug)]
pub struct BatchConfig {
    pub num_nodes: usize,
    pub discipline: Discipline,
    /// Node-local scheduler every admitted job runs under.
    pub sched: LocalSched,
    pub placement: PlacementStrategy,
    /// Inter-node allreduce latency per gang iteration, seconds.
    pub internode_latency: f64,
    /// Carried into checkpoint images and set by callers, but read by no
    /// simulation step: node runs take no seed.
    pub seed: u64,
    /// Trace every per-job kernel and conformance-check it (C001–C005);
    /// reports land in [`BatchOutcome::conformance`].
    pub verify_jobs: bool,
    /// Set by callers (the perfbench `batch` workload), but read by
    /// nothing: node runs go serially through one supervisor, and
    /// checkpoint images leave this field out.
    pub threads: usize,
    /// Supervisor retry budget: a per-node kernel measurement that panics
    /// is retried up to this many times before the job is quarantined into
    /// a typed `task-quarantined` degradation.
    pub retry_limit: u32,
    /// Host wall-clock watchdog per measurement attempt; a hung attempt
    /// becomes a typed `task-timeout` degradation instead of wedging the
    /// fleet. `None` disables the watchdog (attempts run inline).
    pub watchdog_secs: Option<f64>,
    /// Injected transient task-abort fault (faultsim `taskabort:` class),
    /// exercised by the supervisor's retry/quarantine path.
    pub abort: Option<TaskAbortSpec>,
    /// EASY backfill candidate budget per scheduling pass (the
    /// `bf_max_job_test` analogue): only the first N queued jobs behind
    /// the head are considered. `None` examines the whole queue — the
    /// classic behaviour, byte-identical to the pre-window engine.
    pub backfill_window: Option<usize>,
    /// Hardware shape of the fleet's nodes; [`FleetShape::Uniform`] is the
    /// legacy all-reference-node fleet, byte-identical to the pre-shape
    /// engine.
    pub shape: FleetShape,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            num_nodes: 4,
            discipline: Discipline::Fcfs,
            sched: LocalSched::Hpc,
            placement: PlacementStrategy::SmtAware,
            internode_latency: 20e-6,
            seed: 2008,
            verify_jobs: false,
            threads: 1,
            retry_limit: 2,
            watchdog_secs: None,
            abort: None,
            backfill_window: None,
            shape: FleetShape::Uniform,
        }
    }
}

/// Hardware shape of the fleet's nodes — the heterogeneous-fleet axis.
///
/// Gang sizing stays at the reference 4-slot granularity
/// ([`crate::job::BatchJob::nodes_needed`]): every preset offers at least
/// [`NODE_SLOTS`] slots, so a reference-sized allocation always fits the
/// catalog and wider nodes simply absorb more ranks (or leave slots idle).
/// Shapes attach to *gang-local* node positions — the allocator hands each
/// gang the catalog in canonical order — which keeps the service oracle
/// pure in `(service key, iterations)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FleetShape {
    /// Every node is the reference OpenPower 710: the legacy engine,
    /// byte-identical to the pre-shape code.
    #[default]
    Uniform,
    /// Every node is the named topology preset at speed 1.0.
    Preset(TopoPreset),
    /// A deterministic heterogeneous catalog: gang-local node `i` cycles
    /// through (2-NUMA box, 1.0×), (wide-SMT core, 1.25×), (reference
    /// OpenPower 710, 0.5×) — mixed SMT widths, a NUMA tree, and fast and
    /// slow nodes in one fleet.
    Mixed,
}

impl FleetShape {
    pub fn label(self) -> &'static str {
        match self {
            FleetShape::Uniform => "uniform",
            FleetShape::Preset(p) => p.label(),
            FleetShape::Mixed => "mixed",
        }
    }

    /// Parse a CLI label: `uniform`, `mixed`, or a topology preset name.
    pub fn parse(s: &str) -> Option<FleetShape> {
        match s {
            "uniform" => Some(FleetShape::Uniform),
            "mixed" => Some(FleetShape::Mixed),
            other => TopoPreset::parse(other).map(FleetShape::Preset),
        }
    }

    /// Which of this fleet shape's distinct node kinds gang-local node `i`
    /// is. [`FleetShape::node_shape`] is a function of this index alone, so
    /// two positions with equal kinds have equal shapes: the oracle keys
    /// node runs on it.
    pub fn node_kind(self, i: usize) -> usize {
        match self {
            FleetShape::Uniform | FleetShape::Preset(_) => 0,
            FleetShape::Mixed => i % 3,
        }
    }

    /// Shape of gang-local node `i`.
    pub fn node_shape(self, i: usize) -> NodeShape {
        match self {
            FleetShape::Uniform => NodeShape::default(),
            FleetShape::Preset(p) => p.shape(1.0),
            FleetShape::Mixed => match self.node_kind(i) {
                0 => TopoPreset::Numa.shape(1.0),
                1 => TopoPreset::WideSmt.shape(1.25),
                _ => TopoPreset::Openpower710.shape(0.5),
            },
        }
    }

    /// The node catalog a gang of `n` nodes sees.
    pub fn catalog(self, n: usize) -> Vec<NodeShape> {
        (0..n).map(|i| self.node_shape(i)).collect()
    }
}

/// A node failure aimed at the *queued* system: fires once the fleet has
/// completed `after_completions` jobs, killing `node` permanently. A job
/// running there re-enters the queue with its remaining iterations (and
/// competes with pending jobs for survivors), paying `restart_secs` per
/// attempt, up to `max_retries` requeues before degrading.
#[derive(Clone, Copy, Debug)]
pub struct BatchFault {
    pub node: usize,
    pub after_completions: u32,
    pub max_retries: u32,
    pub restart_secs: f64,
}

impl BatchFault {
    /// Reuse faultsim's `nodefail:` spec: `iter` counts completed *jobs*
    /// here rather than gang iterations.
    pub fn from_spec(s: &NodeFailSpec) -> BatchFault {
        BatchFault {
            node: s.node,
            after_completions: s.iteration,
            max_retries: s.retries,
            restart_secs: s.restart_secs,
        }
    }
}

/// One entry of the deterministic batch-level event trace. Timestamps are
/// exact simulated nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum BatchEvent {
    Submit { t: SimTime, job: u64, ranks: usize, nodes: usize },
    Start { t: SimTime, job: u64, nodes: Vec<usize>, backfilled: bool },
    Finish { t: SimTime, job: u64 },
    NodeFail { t: SimTime, node: usize },
    Requeue { t: SimTime, job: u64, remaining_iters: u32 },
    Degraded { t: SimTime, job: u64, reason: &'static str },
}

/// One trace line. The timestamp renders as exact seconds.nanoseconds —
/// integer arithmetic only, so the text is a faithful image of the
/// `SimTime`.
impl fmt::Display for BatchEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = event_time(self).as_nanos();
        write!(f, "{}.{:09} ", ns / 1_000_000_000, ns % 1_000_000_000)?;
        match self {
            BatchEvent::Submit { job, ranks, nodes, .. } => {
                write!(f, "submit job={job} ranks={ranks} nodes={nodes}")
            }
            BatchEvent::Start { job, nodes, backfilled, .. } => {
                write!(f, "start job={job} nodes={nodes:?} backfilled={backfilled}")
            }
            BatchEvent::Finish { job, .. } => write!(f, "finish job={job}"),
            BatchEvent::NodeFail { node, .. } => write!(f, "nodefail node={node}"),
            BatchEvent::Requeue { job, remaining_iters, .. } => {
                write!(f, "requeue job={job} remaining={remaining_iters}")
            }
            BatchEvent::Degraded { job, reason, .. } => {
                write!(f, "degraded job={job} reason={reason}")
            }
        }
    }
}

impl BatchEvent {
    /// Append this event's trace line, newline included, to `out`: the
    /// bytes `writeln!(out, "{self}")` would write, without the `fmt`
    /// machinery. These bytes are the trace the engine hashes and
    /// [`BatchOutcome::render_trace`] renders; the [`fmt::Display`] impl
    /// stays as the reference they are property-tested against.
    pub fn encode_line(&self, out: &mut String) {
        let ns = event_time(self).as_nanos();
        put_decimal(out, ns / 1_000_000_000);
        out.push('.');
        put_nanos(out, ns % 1_000_000_000);
        match self {
            BatchEvent::Submit { job, ranks, nodes, .. } => {
                out.push_str(" submit job=");
                put_decimal(out, *job);
                out.push_str(" ranks=");
                put_decimal(out, *ranks as u64);
                out.push_str(" nodes=");
                put_decimal(out, *nodes as u64);
            }
            BatchEvent::Start { job, nodes, backfilled, .. } => {
                out.push_str(" start job=");
                put_decimal(out, *job);
                out.push_str(" nodes=[");
                for (i, &node) in nodes.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    put_decimal(out, node as u64);
                }
                out.push_str(if *backfilled {
                    "] backfilled=true"
                } else {
                    "] backfilled=false"
                });
            }
            BatchEvent::Finish { job, .. } => {
                out.push_str(" finish job=");
                put_decimal(out, *job);
            }
            BatchEvent::NodeFail { node, .. } => {
                out.push_str(" nodefail node=");
                put_decimal(out, *node as u64);
            }
            BatchEvent::Requeue { job, remaining_iters, .. } => {
                out.push_str(" requeue job=");
                put_decimal(out, *job);
                out.push_str(" remaining=");
                put_decimal(out, u64::from(*remaining_iters));
            }
            BatchEvent::Degraded { job, reason, .. } => {
                out.push_str(" degraded job=");
                put_decimal(out, *job);
                out.push_str(" reason=");
                out.push_str(reason);
            }
        }
        out.push('\n');
    }
}

/// `v` in decimal, as `{v}` formats it.
fn put_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// `v < 10⁹` as nine zero-padded digits, as `{v:09}` formats it.
fn put_nanos(out: &mut String, mut v: u64) {
    let mut digits = [b'0'; 9];
    for d in digits.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend(digits.iter().map(|&d| char::from(d)));
}

fn event_time(e: &BatchEvent) -> SimTime {
    match e {
        BatchEvent::Submit { t, .. }
        | BatchEvent::Start { t, .. }
        | BatchEvent::Finish { t, .. }
        | BatchEvent::NodeFail { t, .. }
        | BatchEvent::Requeue { t, .. }
        | BatchEvent::Degraded { t, .. } => *t,
    }
}

/// The head-of-queue reservation EASY computed when the head first
/// blocked: the head is guaranteed to start no later than `shadow`.
#[derive(Clone, Copy, Debug)]
pub struct ReservationRecord {
    pub job: u64,
    /// When the reservation was made.
    pub at: SimTime,
    /// The shadow time: earliest instant enough nodes free up.
    pub shadow: SimTime,
}

/// What a node failure did to the job it hit.
#[derive(Clone, Copy, Debug)]
pub struct NodeFailureRecord {
    pub node: usize,
    /// Iterations the job had completed when the node died.
    pub at_iteration: u32,
    /// Requeues consumed.
    pub retries_used: u32,
    /// Whether the job still finished on the survivors.
    pub absorbed: bool,
}

/// The cluster side of one job: where its last segment ran and how long.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    pub placement: Placement,
    /// Per-node execution seconds.
    pub node_secs: Vec<f64>,
    /// Seconds the job ran, over every segment (slowest node + network
    /// barriers each).
    pub makespan: f64,
}

/// A job's cluster outcome: completed, or degraded with partial
/// accounting — never a panic.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    pub result: ClusterResult,
    pub failure: Option<NodeFailureRecord>,
    /// True when the job could not finish (no survivor could host the
    /// gang, retries ran out, or its measurement failed).
    pub degraded: bool,
}

/// Final per-job accounting. Times here are derived *reporting* floats;
/// the exact event clock lives in [`BatchEvent`].
#[derive(Clone, Debug)]
pub struct JobRecord {
    pub id: u64,
    pub name: String,
    pub ranks: usize,
    pub arrival: f64,
    /// `None` when the job degraded before ever starting.
    pub first_start: Option<f64>,
    /// Completion (or drop) time.
    pub end: f64,
    /// Queue wait: first start − arrival (completed jobs only).
    pub wait: f64,
    pub turnaround: f64,
    /// Turnaround over the job's clean full-stream service time.
    pub slowdown: f64,
    pub backfilled: bool,
    pub requeues: u32,
    /// Node·seconds of fleet capacity this job held.
    pub node_secs_held: f64,
    /// The per-job cluster outcome — degraded-but-clean under faults.
    pub outcome: ClusterOutcome,
}

/// The O(1) summary every run keeps. The trace lives on as its running
/// FNV-1a fold — each rendered line plus its newline, so the hash equals
/// [`text_fnv1a`] of the rendered trace. `last_reserved` is the head whose
/// blocked stretch the `batch.reservations` counter last counted (a
/// blocked head re-reserves every pass). In a run that does not record,
/// finished jobs fold into the [`FleetAccum`] in completion order; a
/// recording run leaves it at its default and folds its records in id
/// order when it finishes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Summary {
    pub(crate) trace_hash: u64,
    pub(crate) trace_len: u64,
    pub(crate) trace_max_t: SimTime,
    pub(crate) last_reserved: Option<u64>,
    pub(crate) accum: FleetAccum,
}

impl Default for Summary {
    fn default() -> Self {
        Summary {
            trace_hash: FNV_BASIS,
            trace_len: 0,
            trace_max_t: SimTime::ZERO,
            last_reserved: None,
            accum: FleetAccum::default(),
        }
    }
}

/// What a recording run keeps on top of the [`Summary`], O(jobs) in
/// memory: every event, the first reservation per head job, and every
/// job record by id.
#[derive(Clone, Debug, Default)]
pub(crate) struct Recording {
    pub(crate) events: Vec<BatchEvent>,
    pub(crate) reservations: BTreeMap<u64, ReservationRecord>,
    pub(crate) records: BTreeMap<u64, JobRecord>,
}

/// Everything a batch or fleet run produces. `jobs`, `events` and
/// `reservations` are the recording: empty after a fleet run, which stays
/// O(1) in the job count. Every other field is filled by every run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    pub config_nodes: usize,
    /// Per-job records, sorted by submission id.
    pub jobs: Vec<JobRecord>,
    /// The deterministic batch-level event trace.
    pub events: Vec<BatchEvent>,
    /// First EASY reservation per head-of-queue job.
    pub reservations: Vec<ReservationRecord>,
    /// FNV-1a fingerprint of the event trace, folded as the run emits it:
    /// equal to [`text_fnv1a`] of [`BatchOutcome::render_trace`] whenever
    /// the run recorded, and the byte-identity artifact when it did not.
    pub trace_hash: u64,
    /// Events the trace holds.
    pub trace_events: usize,
    /// Per-job statistics sums behind [`crate::FleetStats::from_outcome`]:
    /// folded over `jobs` in id order for a recording run, in completion
    /// order by the engine otherwise.
    pub accum: FleetAccum,
    /// Nodes lost to injected failures.
    pub failed_nodes: Vec<usize>,
    /// Last event timestamp.
    pub makespan: f64,
    pub metrics: MetricsSnapshot,
    /// Supervised node-run telemetry under `exec.pool` (node runs, busy
    /// nanoseconds, retries, quarantines, timeouts). Busy time is *host*
    /// wall-clock: never fold this snapshot into determinism or
    /// byte-identity comparisons.
    pub pool_metrics: MetricsSnapshot,
    /// Per-job kernel conformance reports (one per node segment), present
    /// when [`BatchConfig::verify_jobs`] is set.
    pub conformance: Vec<(u64, Report)>,
}

impl BatchOutcome {
    /// Render the event trace to text — the byte-identity artifact for
    /// determinism checks.
    pub fn render_trace(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            e.encode_line(&mut out);
        }
        out
    }

    pub fn conformance_clean(&self) -> bool {
        self.conformance.iter().all(|(_, r)| r.is_clean())
    }
}

/// One per-(service key, iterations) kernel measurement, cached by the
/// oracle, which lends it out and never copies it.
#[derive(Debug)]
struct SegmentRun {
    placement: Placement,
    node_secs: Vec<f64>,
    service: f64,
    reports: Vec<Report>,
    /// Set when the supervisor gave up on at least one node of this
    /// segment (`task-quarantined` / `task-timeout`, first failing node in
    /// node order wins). A failed segment has no usable service time: the
    /// job degrades with this reason instead of starting.
    failed: Option<&'static str>,
}

/// The most CPU slots a node of any [`TopoPreset`] has, and so the most
/// ranks placement gives one node of any fleet shape.
const MAX_NODE_SLOTS: usize = 8;

/// A node run's content key: the node's kind under the engine's fleet
/// shape ([`FleetShape::node_kind`]), the iterations, and the bits of the
/// node's slot loads in slot order, inline. With the engine's scheduler
/// and tracing fixed, [`run_node`] is a pure function of these, and the
/// key is all a node run reads: a memo hit costs no heap vector, and a
/// node that runs takes its loads from the key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct NodeKey {
    kind: usize,
    iterations: u32,
    /// Slots in use: `bits[..len]` are the loads, the rest zero.
    len: usize,
    bits: [u64; MAX_NODE_SLOTS],
}

impl NodeKey {
    /// The key of gang-local node `local` running `spec`'s ranks `slots`.
    fn new(
        shape: FleetShape,
        local: usize,
        spec: &JobSpec,
        slots: &[usize],
        iterations: u32,
    ) -> Self {
        debug_assert!(slots.len() <= MAX_NODE_SLOTS, "a node of {} slots", slots.len());
        let mut bits = [0; MAX_NODE_SLOTS];
        for (b, &r) in bits.iter_mut().zip(slots) {
            *b = spec.rank_loads[r].to_bits();
        }
        NodeKey { kind: shape.node_kind(local), iterations, len: slots.len(), bits }
    }

    /// The node's slot loads, in slot order.
    fn loads(&self) -> ([f64; MAX_NODE_SLOTS], usize) {
        (self.bits.map(f64::from_bits), self.len)
    }
}

/// What one node run contributes to a segment: its execution seconds and,
/// for a traced run, its conformance report.
type NodeResult = (f64, Option<Report>);

/// The service-time oracle: runs each distinct (service key, remaining
/// iterations) segment once on real kernels and memoizes. Because node
/// runs never involve time or global node ids, SJF ordering and EASY
/// shadow arithmetic read the *exact* durations later admissions will
/// take. Keys are [`BatchJob::service_key`]: the job id classically, the
/// job class in fleet streams — which collapses a million-job stream to
/// one measurement per (class, iterations).
///
/// Under the segment cache sits a node memo keyed by content
/// ([`NodeKey`], a fixed-size array key): jobs cut from one template
/// share per-node loads, so a segment runs only the nodes no earlier
/// segment (and no earlier node of its own) has run, and runs just those.
/// Both caches live and die with the engine: they are never shared
/// between engines and never written into checkpoint images. The
/// segment cache lends its runs out ([`Oracle::measure`] returns a
/// reference); the one copy of a run's placement and node times is the
/// one a job record keeps. So does the node catalog
/// ([`FleetShape::catalog`]), built once and grown to the widest gang
/// the engine has placed, which segments and node runs index into
/// instead of rebuilding each node's shape, and so do the placement
/// search's working vectors. A segment targeted by the
/// injected `taskabort` fault bypasses the node memo, so every one of its
/// nodes runs (and retries) as if no memo existed; failed node outcomes
/// are never memoised, but a repeat inside one segment shares its first
/// occurrence's outcome, failed or not.
struct Oracle {
    cache: BTreeMap<(u64, u32), SegmentRun>,
    nodes: BTreeMap<NodeKey, NodeResult>,
    /// Gang-local node shapes `0..len`; shared with the node runs, whose
    /// supervised task must own what it reads.
    catalog: Arc<Vec<NodeShape>>,
    /// The placement search's working vectors, kept across segments.
    scratch: PlaceScratch,
    sched: LocalSched,
    placement: PlacementStrategy,
    shape: FleetShape,
    internode_latency: f64,
    verify_jobs: bool,
    /// Supervisor policy for every node measurement: bounded deterministic
    /// retry on panic, optional wall-clock watchdog per attempt.
    policy: SupervisePolicy,
    /// Injected transient abort (faultsim `taskabort:`), keyed on (service
    /// key, local node, attempt) so outcomes are deterministic.
    abort: Option<TaskAbortSpec>,
    counters: SuperviseCounters,
}

/// A `taskabort` fault firing on its attempt.
#[expect(
    clippy::panic,
    reason = "faultsim taskabort injection: the deliberate panic the supervisor must absorb; \
              keyed on (job, node, attempt) so outcomes stay deterministic"
)]
fn injected_abort(attempt: u32) -> ! {
    panic!("faultsim: injected task abort (attempt {attempt})")
}

impl Oracle {
    /// The segment of `spec`'s ranks for `iterations` under service key
    /// `key`: measured on first use, then lent from the cache.
    fn measure(&mut self, key: u64, spec: &JobSpec, iterations: u32) -> &SegmentRun {
        let at = (key, iterations);
        if !self.cache.contains_key(&at) {
            let run = self.run_segment(key, spec, iterations);
            return self.cache.entry(at).or_insert(run);
        }
        &self.cache[&at]
    }

    /// Place and run one segment, each node through the memo.
    fn run_segment(&mut self, key: u64, spec: &JobSpec, iterations: u32) -> SegmentRun {
        let nodes_needed = spec.ranks().div_ceil(NODE_SLOTS);
        if self.catalog.len() < nodes_needed {
            self.catalog = Arc::new(self.shape.catalog(nodes_needed));
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: nodes_needed = ceil(ranks / NODE_SLOTS) always yields enough \
                      slots for every rank — every fleet shape offers at least NODE_SLOTS \
                      slots per node — so placement cannot fail here."
        )]
        let placement =
            place_with(spec, &self.catalog[..nodes_needed], self.placement, &mut self.scratch)
                .expect("sized allocation always fits");
        let abort = self.abort.filter(|a| a.job == key);
        let mut node_secs = Vec::with_capacity(placement.nodes.len());
        let mut reports = Vec::new();
        let mut failed: Option<&'static str> = None;
        // Failed node outcomes of this segment by content: never memoised,
        // but a repeat inside the segment shares its first occurrence's.
        let mut failures: BTreeMap<NodeKey, TaskFailure> = BTreeMap::new();
        for (local, slots) in placement.nodes.iter().enumerate() {
            let node_key = NodeKey::new(self.shape, local, spec, slots, iterations);
            let outcome = if abort.is_some() {
                self.run_node_supervised(node_key, local, abort)
            } else {
                if let Some(hit) = self.nodes.get(&node_key) {
                    Ok(hit.clone())
                } else if let Some(&failure) = failures.get(&node_key) {
                    Err(failure)
                } else {
                    let outcome = self.run_node_supervised(node_key, local, None);
                    match &outcome {
                        Ok(result) => {
                            self.nodes.insert(node_key, result.clone());
                        }
                        Err(failure) => {
                            failures.insert(node_key, *failure);
                        }
                    }
                    outcome
                }
            };
            match outcome {
                Ok((secs, report)) => {
                    node_secs.push(secs);
                    reports.extend(report);
                }
                Err(TaskFailure::Quarantined { .. }) => {
                    node_secs.push(0.0);
                    failed.get_or_insert("task-quarantined");
                }
                Err(TaskFailure::TaskTimeout { .. }) => {
                    node_secs.push(0.0);
                    failed.get_or_insert("task-timeout");
                }
            }
        }
        let slowest = node_secs.iter().cloned().fold(0.0, f64::max);
        let service = slowest + self.internode_latency * iterations as f64;
        SegmentRun { placement, node_secs, service, reports, failed }
    }

    /// One supervised run of gang-local node `local` on the loads and
    /// iterations of `node`. The supervisor absorbs transient aborts
    /// (retries are keyed on the attempt index, so a retried node computes
    /// the same pure value a clean run would) and converts persistent
    /// failures into typed outcomes.
    fn run_node_supervised(
        &self,
        node: NodeKey,
        local: usize,
        abort: Option<TaskAbortSpec>,
    ) -> Supervised<NodeResult> {
        let (sched, verify) = (self.sched, self.verify_jobs);
        let catalog = Arc::clone(&self.catalog);
        let abort_here = abort.filter(|a| a.node == local);
        let watchdog = self.policy.timeout.is_some();
        let task = move |attempt: u32| -> NodeResult {
            if let Some(a) = abort_here {
                if attempt < a.aborts {
                    if a.hang && watchdog {
                        // Wedge: the watchdog — not the unwind path — must
                        // turn this attempt into a typed timeout. Without a
                        // watchdog the fault falls through to a plain panic
                        // so an unguarded run can never deadlock.
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                    injected_abort(attempt);
                }
            }
            let (loads, len) = node.loads();
            if len == 0 {
                return (0.0, None);
            }
            #[expect(
                clippy::panic,
                reason = "INVARIANT: placement never hands a node more ranks than its \
                          shape has slots, and `sched` names a builtin regime or a \
                          registry policy by construction, so a node-run error is a \
                          simulator bug and panics here."
            )]
            let run = run_node(&loads[..len], node.iterations, sched, &catalog[local], verify)
                .unwrap_or_else(|e| panic!("{e}"));
            let report = run
                .trace
                .map(|t| check_with_metrics(&t.records, &t.metrics, &CheckConfig::default()));
            (run.exec_secs, report)
        };
        supervise(task, self.policy, &self.counters)
    }

    fn service(&mut self, key: u64, spec: &JobSpec, iterations: u32) -> f64 {
        self.measure(key, spec, iterations).service
    }
}

/// Queue-side state of one submitted job. `pub(crate)` (with its fields)
/// because the checkpoint wire format images this struct directly. The
/// job is borrowed from where the run reads it (the caller's stream or
/// the image it resumes) and owned only when a generator made it or a
/// checkpoint images it.
#[derive(Clone, Debug)]
pub(crate) struct Tracker<'s> {
    pub(crate) job: Cow<'s, BatchJob>,
    /// Iterations of the next (or currently running) segment, whose spec
    /// is the job's with these iterations: the job's own until a node
    /// failure forces a requeue with fewer.
    pub(crate) remaining_iters: u32,
    pub(crate) first_start: Option<SimTime>,
    pub(crate) node_secs_held: f64,
    pub(crate) run_secs: f64,
    pub(crate) iters_done: u32,
    pub(crate) requeues: u32,
    pub(crate) backfilled: bool,
    /// Restart overhead owed on the next admission (set by a requeue).
    pub(crate) restart_due: f64,
    pub(crate) failure: Option<(usize, u32)>,
}

impl Tracker<'_> {
    /// A tracker for `job`, just submitted.
    fn submitted(job: Cow<'_, BatchJob>) -> Tracker<'_> {
        Tracker {
            remaining_iters: job.spec.iterations,
            job,
            first_start: None,
            node_secs_held: 0.0,
            run_secs: 0.0,
            iters_done: 0,
            requeues: 0,
            backfilled: false,
            restart_due: 0.0,
            failure: None,
        }
    }

    /// This tracker's state with `job` in place of its job.
    pub(crate) fn with_job<'t>(&self, job: Cow<'t, BatchJob>) -> Tracker<'t> {
        Tracker {
            job,
            remaining_iters: self.remaining_iters,
            first_start: self.first_start,
            node_secs_held: self.node_secs_held,
            run_secs: self.run_secs,
            iters_done: self.iters_done,
            requeues: self.requeues,
            backfilled: self.backfilled,
            restart_due: self.restart_due,
            failure: self.failure,
        }
    }

    /// The segment's oracle measurement.
    fn segment<'o>(&self, oracle: &'o mut Oracle) -> &'o SegmentRun {
        oracle.measure(self.job.service_key(), &self.job.spec, self.remaining_iters)
    }
}

/// One admitted segment occupying nodes. Checkpoints store all of it; its
/// kernel measurement stays in the pure, memoized oracle, which lends it
/// again when the segment completes.
struct Running {
    id: u64,
    nodes: Vec<usize>,
    start: SimTime,
    end: SimTime,
}

/// The node fleet. `up`/`busy` are the checkpoint image; the free set and
/// alive count are derived views kept in lockstep so allocation is
/// O(width · log n) instead of an O(n) scan per decision.
pub(crate) struct Fleet {
    pub(crate) up: Vec<bool>,
    pub(crate) busy: Vec<bool>,
    free: std::collections::BTreeSet<usize>,
    alive: usize,
}

impl Fleet {
    fn new(n: usize) -> Fleet {
        Fleet {
            up: vec![true; n],
            busy: vec![false; n],
            free: (0..n).collect(),
            alive: n,
        }
    }

    /// Rebuild the derived views from checkpoint images.
    fn from_images(up: Vec<bool>, busy: Vec<bool>) -> Fleet {
        let free = (0..up.len()).filter(|&n| up[n] && !busy[n]).collect();
        let alive = up.iter().filter(|&&u| u).count();
        Fleet { up, busy, free, alive }
    }

    fn alive(&self) -> usize {
        self.alive
    }

    fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The first `need` free node ids, in node-id order — the same ids a
    /// full scan used to return — written over `out`.
    fn first_free(&self, need: usize, out: &mut Vec<usize>) {
        out.clear();
        out.extend(self.free.iter().copied().take(need));
    }

    fn occupy(&mut self, n: usize) {
        self.busy[n] = true;
        self.free.remove(&n);
    }

    fn release(&mut self, n: usize) {
        self.busy[n] = false;
        if self.up[n] {
            self.free.insert(n);
        }
    }

    fn kill(&mut self, n: usize) {
        if self.up[n] {
            self.up[n] = false;
            self.alive -= 1;
            self.free.remove(&n);
        }
    }
}

/// Where jobs come from: jobs borrowed from a caller's list (or from the
/// image a run resumes) in arrival order, or a lazy generator plus one job
/// of lookahead. The generator yields in nondecreasing arrival order, so
/// one job of lookahead is enough to answer "when is the next arrival".
pub(crate) enum JobSource<'s> {
    /// The jobs in arrival order; `jobs[next..]` are not yet submitted.
    Listed { jobs: Vec<&'s BatchJob>, next: usize },
    Stream { gen: FleetJobs, next: Option<BatchJob>, popped: u64 },
}

impl<'s> JobSource<'s> {
    /// A caller's list, sorted by arrival (ties by id).
    fn sorted(stream: &'s [BatchJob]) -> JobSource<'s> {
        let mut jobs: Vec<&BatchJob> = stream.iter().collect();
        jobs.sort_by_key(|j| (arrival_time(j), j.id));
        JobSource::Listed { jobs, next: 0 }
    }

    /// A generator that has already handed `popped` jobs to the engine.
    fn generate(mut gen: FleetJobs, popped: u64) -> JobSource<'s> {
        let next = gen.next();
        JobSource::Stream { gen, next, popped }
    }

    /// The checkpoint image: the jobs not yet submitted, or the generator
    /// config plus its position.
    fn image(&self) -> SourceImage {
        match self {
            JobSource::Listed { jobs, next } => {
                SourceImage::Pending(jobs[*next..].iter().map(|&j| j.clone()).collect())
            }
            JobSource::Stream { gen, popped, .. } => {
                SourceImage::Generator { stream: *gen.config(), popped: *popped }
            }
        }
    }

    /// Rebuild from a checkpoint image, borrowing its jobs; a generator
    /// replays to its imaged position.
    fn from_image(image: &'s SourceImage) -> JobSource<'s> {
        match image {
            SourceImage::Pending(q) => JobSource::Listed { jobs: q.iter().collect(), next: 0 },
            SourceImage::Generator { stream, popped } => {
                JobSource::generate(FleetJobs::replay(stream, *popped), *popped)
            }
        }
    }

    fn peek_arrival(&self) -> Option<SimTime> {
        match self {
            JobSource::Listed { jobs, next } => jobs.get(*next).map(|&j| arrival_time(j)),
            JobSource::Stream { next, .. } => next.as_ref().map(arrival_time),
        }
    }

    fn pop(&mut self) -> Option<Cow<'s, BatchJob>> {
        match self {
            JobSource::Listed { jobs, next } => {
                let out = jobs.get(*next).copied();
                *next += usize::from(out.is_some());
                out.map(Cow::Borrowed)
            }
            JobSource::Stream { gen, next, popped } => {
                let out = next.take();
                if out.is_some() {
                    *popped += 1;
                    *next = gen.next();
                }
                out.map(Cow::Owned)
            }
        }
    }
}

struct Counters {
    submitted: telemetry::Counter,
    completed: telemetry::Counter,
    degraded: telemetry::Counter,
    backfilled: telemetry::Counter,
    requeues: telemetry::Counter,
    nodes_failed: telemetry::Counter,
    wait_us: telemetry::HistogramHandle,
    turnaround_us: telemetry::HistogramHandle,
    /// Bounded slowdown ×1000 — log2-bucketed distribution, O(1) memory.
    slowdown_milli: telemetry::HistogramHandle,
    /// Node·seconds held per completed job ×1000, log2-bucketed.
    node_secs_ms: telemetry::HistogramHandle,
    queue_peak: telemetry::Gauge,
    /// EASY head reservations, counted once per blocked-head stretch.
    reservations: telemetry::Counter,
}

impl Counters {
    fn new(reg: &MetricsRegistry) -> Counters {
        reg.register(|r| Counters {
            submitted: r.counter("batch.jobs.submitted"),
            completed: r.counter("batch.jobs.completed"),
            degraded: r.counter("batch.jobs.degraded"),
            backfilled: r.counter("batch.jobs.backfilled"),
            requeues: r.counter("batch.jobs.requeues"),
            nodes_failed: r.counter("batch.nodes.failed"),
            wait_us: r.histogram("batch.wait_us"),
            turnaround_us: r.histogram("batch.turnaround_us"),
            slowdown_milli: r.histogram("batch.slowdown_milli"),
            node_secs_ms: r.histogram("batch.node_secs_ms"),
            queue_peak: r.gauge("batch.queue_depth_peak"),
            reservations: r.counter("batch.reservations"),
        })
    }
}

/// A job's submission instant on the exact event clock.
fn arrival_time(job: &BatchJob) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs_f64(job.arrival)
}

/// The complete mutable state of one batch run between loop iterations —
/// exactly what a checkpoint captures. Every field is either plain data
/// or re-derivable from plain data plus the pure oracle.
pub(crate) struct EngineState<'s> {
    pub(crate) source: JobSource<'s>,
    pub(crate) fleet: Fleet,
    pub(crate) trackers: BTreeMap<u64, Tracker<'s>>,
    pub(crate) pending: PendingQueue,
    /// Admission sequence → running segment; iteration order is admission
    /// order, which the release index's tie-break mirrors.
    running: BTreeMap<u64, Running>,
    release: ReleaseIndex,
    next_seq: u64,
    pub(crate) summary: Summary,
    /// Present when the entry point returns a [`BatchOutcome`].
    pub(crate) recording: Option<Recording>,
    /// Jobs (service key, in admit order) whose kernel conformance must be
    /// reported; reports re-derive from the memoized oracle at outcome
    /// build.
    pub(crate) conformance_src: Vec<(u64, JobSpec)>,
    pub(crate) completions: u32,
    pub(crate) fault_armed: Option<BatchFault>,
    pub(crate) now: SimTime,
    /// The trace line being hashed; kept so that emitting allocates
    /// nothing. Never imaged.
    line: String,
    /// Buffers the loop refills every pass; never imaged.
    scratch: Scratch,
}

/// The loop's per-pass lists, owned by the run so that a pass allocates
/// only what it keeps: the admission sequences a clock advance released,
/// their segments in id order, EASY's backfill candidates and the ones it
/// admits, and an admitted job's nodes.
#[derive(Default)]
struct Scratch {
    released: Vec<u64>,
    finished: Vec<Running>,
    candidates: Vec<u64>,
    admitted: Vec<u64>,
    alloc: Vec<usize>,
}

impl EngineState<'_> {
    /// Append one event to the trace.
    fn emit(&mut self, e: BatchEvent) {
        self.line.clear();
        e.encode_line(&mut self.line);
        let s = &mut self.summary;
        s.trace_hash = fnv1a_fold(s.trace_hash, self.line.as_bytes());
        s.trace_len += 1;
        s.trace_max_t = s.trace_max_t.max(event_time(&e));
        if let Some(rec) = &mut self.recording {
            rec.events.push(e);
        }
    }

    /// Note the reservation EASY computed for the blocked head `job`.
    fn reserve(&mut self, ctr: &Counters, job: u64, at: SimTime, shadow: SimTime) {
        let s = &mut self.summary;
        if s.last_reserved != Some(job) {
            ctr.reservations.inc();
            s.last_reserved = Some(job);
        }
        if let Some(rec) = &mut self.recording {
            rec.reservations.entry(job).or_insert(ReservationRecord { job, at, shadow });
        }
    }

    /// Retire a finished or degraded job. Each job retires exactly once.
    fn retire(&mut self, r: JobRecord) {
        match &mut self.recording {
            Some(rec) => {
                rec.records.insert(r.id, r);
            }
            None => self.summary.accum.fold(&r),
        }
    }

    fn trace_len(&self) -> usize {
        self.summary.trace_len as usize
    }
}

/// Everything one run owns besides its [`EngineState`]: the
/// configuration, the metric registries with their counter handles, and
/// the service-time oracle.
struct Engine {
    cfg: BatchConfig,
    registry: MetricsRegistry,
    /// Supervisor telemetry includes host wall-clock busy time, so it lives
    /// on its own registry, snapshotted into the (non-deterministic)
    /// `pool_metrics` field rather than the byte-compared `metrics`.
    pool_registry: MetricsRegistry,
    ctr: Counters,
    oracle: Oracle,
}

impl Engine {
    fn new(cfg: &BatchConfig) -> Engine {
        let registry = MetricsRegistry::new();
        let ctr = Counters::new(&registry);
        let pool_registry = MetricsRegistry::new();
        let oracle = Oracle {
            cache: BTreeMap::new(),
            nodes: BTreeMap::new(),
            catalog: Arc::default(),
            scratch: PlaceScratch::default(),
            sched: cfg.sched,
            placement: cfg.placement,
            shape: cfg.shape,
            internode_latency: cfg.internode_latency,
            verify_jobs: cfg.verify_jobs,
            policy: SupervisePolicy {
                max_attempts: cfg.retry_limit.saturating_add(1),
                timeout: cfg.watchdog_secs.map(Duration::from_secs_f64),
            },
            abort: cfg.abort,
            counters: SuperviseCounters::register(&pool_registry),
        };
        Engine { cfg: *cfg, registry, pool_registry, ctr, oracle }
    }

    /// A fresh run over `source`; `record` keeps the O(jobs) [`Recording`].
    fn start<'s>(
        &mut self,
        source: JobSource<'s>,
        fault: Option<&BatchFault>,
        record: bool,
    ) -> EngineState<'s> {
        let mut st = EngineState {
            source,
            fleet: Fleet::new(self.cfg.num_nodes),
            trackers: BTreeMap::new(),
            pending: PendingQueue::new(),
            running: BTreeMap::new(),
            release: ReleaseIndex::new(),
            next_seq: 0,
            summary: Summary::default(),
            recording: record.then(Recording::default),
            conformance_src: Vec::new(),
            completions: 0,
            fault_armed: fault.filter(|f| f.node < self.cfg.num_nodes).copied(),
            now: SimTime::ZERO,
            line: String::new(),
            scratch: Scratch::default(),
        };
        // A fault at zero completions hits an idle fleet before any
        // admission. This fires exactly once at start, so a checkpoint
        // (always captured after start) never replays it.
        maybe_fire_fault(&self.cfg, &mut self.oracle, &self.ctr, &mut st);
        st
    }

    /// Rebuild a run from a checkpoint's plain data, borrowing its jobs.
    /// Metrics restore from the imaged snapshot (supervisor counters are
    /// host wall-clock and start fresh); the generator replays to its
    /// imaged position; in-flight segments are measured again (the oracle
    /// is pure, so this recomputes exactly the `SegmentRun` the
    /// interrupted run measured); admission sequences re-derive in imaged
    /// order; and the pending queue rebuilds in its imaged order —
    /// sequence-ranked for FCFS/EASY, service-ranked for SJF.
    fn restore(ckpt: &BatchCheckpoint) -> (Engine, EngineState<'_>) {
        let mut eng = Engine::new(&ckpt.cfg);
        eng.registry.restore(&ckpt.metrics);
        let trackers: BTreeMap<u64, Tracker<'_>> =
            ckpt.trackers.iter().map(|(&id, t)| (id, t.with_job(Cow::Borrowed(&*t.job)))).collect();
        let mut running: BTreeMap<u64, Running> = BTreeMap::new();
        let mut release = ReleaseIndex::new();
        let mut next_seq = 0u64;
        // Segments without a tracker cannot exist in a checksummed
        // checkpoint; they are skipped rather than unwrapped.
        for (id, nodes, start, end) in &ckpt.running {
            if let Some(tr) = trackers.get(id) {
                tr.segment(&mut eng.oracle);
                let seq = next_seq;
                next_seq += 1;
                release.insert(seq, *end, nodes.len());
                running.insert(seq, Running { id: *id, nodes: nodes.clone(), start: *start, end: *end });
            }
        }
        let mut pending = PendingQueue::new();
        for &id in &ckpt.queue {
            let need = trackers.get(&id).map_or(0, |t| t.job.nodes_needed());
            if ckpt.cfg.discipline == Discipline::Sjf {
                let rank = queued_service(&mut eng.oracle, &trackers, id).to_bits();
                pending.push_ranked(id, rank, need);
            } else {
                pending.push_back(id, need);
            }
        }
        let st = EngineState {
            source: JobSource::from_image(&ckpt.source),
            fleet: Fleet::from_images(ckpt.fleet_up.clone(), ckpt.fleet_busy.clone()),
            trackers,
            pending,
            running,
            release,
            next_seq,
            summary: ckpt.summary,
            recording: ckpt.recording.clone(),
            conformance_src: ckpt.conformance_src.clone(),
            completions: ckpt.completions,
            fault_armed: ckpt.fault_armed,
            now: ckpt.now,
            line: String::new(),
            scratch: Scratch::default(),
        };
        (eng, st)
    }

    /// Drive the event loop until the stream drains (returns `false`) or
    /// `stop` says to halt at a loop boundary (returns `true`). The loop
    /// boundary — before `schedule` — is the one point where the state is
    /// closed over plain data, which is what makes it the capture point:
    /// both the interrupted and the resumed run re-enter `schedule` with
    /// identical state, so their continuations are byte-identical.
    fn run(
        &mut self,
        st: &mut EngineState<'_>,
        mut stop: impl FnMut(&Engine, &EngineState<'_>) -> bool,
    ) -> bool {
        loop {
            if stop(self, st) {
                return true;
            }
            let (cfg, oracle, ctr) = (&self.cfg, &mut self.oracle, &self.ctr);
            schedule(cfg, oracle, ctr, st);

            let next_finish = st.release.next_release().unwrap_or(SimTime::MAX);
            let next_arrival = st.source.peek_arrival().unwrap_or(SimTime::MAX);
            if next_finish == SimTime::MAX && next_arrival == SimTime::MAX {
                return false;
            }
            st.now = next_finish.min(next_arrival);

            // Completions first (freeing nodes for same-instant arrivals),
            // in id order for determinism. Timestamps are exact
            // nanoseconds, so "same instant" is integer equality.
            let mut released = std::mem::take(&mut st.scratch.released);
            let mut finished = std::mem::take(&mut st.scratch.finished);
            st.release.pop_released(st.now, &mut released);
            finished.extend(released.drain(..).filter_map(|seq| st.running.remove(&seq)));
            // Ids are unique, so the unstable sort is the stable one.
            finished.sort_unstable_by_key(|r| r.id);
            for seg in finished.drain(..) {
                complete(seg, oracle, ctr, st);
                st.completions += 1;
                maybe_fire_fault(cfg, oracle, ctr, st);
            }
            st.scratch.released = released;
            st.scratch.finished = finished;

            while st.source.peek_arrival().is_some_and(|t| t <= st.now) {
                #[expect(
                    clippy::expect_used,
                    reason = "INVARIANT: guarded by the is_some_and above."
                )]
                let job = st.source.pop().expect("peeked arrival present");
                ctr.submitted.inc();
                st.emit(BatchEvent::Submit {
                    t: st.now,
                    job: job.id,
                    ranks: job.spec.ranks(),
                    nodes: job.nodes_needed(),
                });
                let id = job.id;
                let need = job.nodes_needed();
                st.trackers.insert(id, Tracker::submitted(job));
                if cfg.discipline == Discipline::Sjf {
                    let rank = queued_service(oracle, &st.trackers, id).to_bits();
                    st.pending.push_ranked(id, rank, need);
                } else {
                    st.pending.push_back(id, need);
                }
            }
            let depth = st.pending.len() as i64;
            if depth > ctr.queue_peak.get() {
                ctr.queue_peak.set(depth);
            }
        }
    }

    /// Image the run into a checkpoint (plain data only, every job owned).
    fn capture(&self, st: &EngineState<'_>) -> BatchCheckpoint {
        BatchCheckpoint {
            cfg: self.cfg,
            fault_armed: st.fault_armed,
            now: st.now,
            completions: st.completions,
            fleet_up: st.fleet.up.clone(),
            fleet_busy: st.fleet.busy.clone(),
            source: st.source.image(),
            queue: st.pending.iter().collect(),
            trackers: st
                .trackers
                .iter()
                .map(|(&id, t)| (id, t.with_job(Cow::Owned(BatchJob::clone(&t.job)))))
                .collect(),
            running: st
                .running
                .values()
                .map(|r| (r.id, r.nodes.clone(), r.start, r.end))
                .collect(),
            summary: st.summary,
            recording: st.recording.clone(),
            conformance_src: st.conformance_src.clone(),
            metrics: self.registry.snapshot(),
        }
    }

    /// Close a run into its [`BatchOutcome`], whose events, reservations
    /// and job records are empty unless the run recorded.
    fn finish(mut self, st: EngineState<'_>) -> BatchOutcome {
        // Conformance reports re-derive from the pure oracle: for jobs
        // measured before a checkpoint this is a fresh (memoized) kernel
        // run, for everything else a cache hit — identical reports either
        // way.
        let mut conformance: Vec<(u64, Report)> = Vec::new();
        if self.cfg.verify_jobs {
            for (key, spec) in &st.conformance_src {
                for rep in &self.oracle.measure(*key, spec, spec.iterations).reports {
                    conformance.push((*key, rep.clone()));
                }
            }
        }
        let s = st.summary;
        let recorded = st.recording.is_some();
        let rec = st.recording.unwrap_or_default();
        let jobs: Vec<JobRecord> = rec.records.into_values().collect();
        // A recording run folds its records in id order: the float sums
        // BENCH_batch.json pins were computed that way.
        let accum = if recorded { FleetAccum::from_records(&jobs) } else { s.accum };
        BatchOutcome {
            config_nodes: self.cfg.num_nodes,
            jobs,
            events: rec.events,
            reservations: rec.reservations.into_values().collect(),
            trace_hash: s.trace_hash,
            trace_events: s.trace_len as usize,
            accum,
            failed_nodes: (0..st.fleet.up.len()).filter(|&n| !st.fleet.up[n]).collect(),
            makespan: s.trace_max_t.as_secs_f64(),
            metrics: self.registry.snapshot(),
            pool_metrics: self.pool_registry.snapshot(),
            conformance,
        }
    }
}

/// Run a batch stream to completion. Never panics on the fault path: jobs
/// that cannot be (re)placed degrade with partial accounting instead.
pub fn run_batch(
    stream: &[BatchJob],
    cfg: &BatchConfig,
    fault: Option<&BatchFault>,
) -> BatchOutcome {
    let mut eng = Engine::new(cfg);
    let mut st = eng.start(JobSource::sorted(stream), fault, true);
    eng.run(&mut st, |_, _| false);
    eng.finish(st)
}

/// [`run_batch`] with periodic crash-consistent checkpoints: whenever the
/// run crosses `policy`'s event/completion cadence (checked at the loop
/// boundary), a [`BatchCheckpoint`] is captured and handed to `sink`.
/// The run itself is unaffected — its trace is byte-identical to
/// [`run_batch`]'s.
pub fn run_batch_checkpointed(
    stream: &[BatchJob],
    cfg: &BatchConfig,
    fault: Option<&BatchFault>,
    policy: &CheckpointPolicy,
    mut sink: impl FnMut(&BatchCheckpoint),
) -> BatchOutcome {
    let mut eng = Engine::new(cfg);
    let mut st = eng.start(JobSource::sorted(stream), fault, true);
    let mut last_events = 0usize;
    let mut last_jobs = 0u32;
    eng.run(&mut st, |eng, s| {
        let due_events = policy.every_events.is_some_and(|k| s.trace_len() - last_events >= k);
        let due_jobs = policy.every_jobs.is_some_and(|j| s.completions - last_jobs >= j);
        if due_events || due_jobs {
            last_events = s.trace_len();
            last_jobs = s.completions;
            sink(&eng.capture(s));
        }
        false
    });
    eng.finish(st)
}

/// Run until the trace holds at least `stop_after_events` events (checked
/// at the loop boundary) and capture a checkpoint there; `None` when the
/// stream drained first. This is the kill-at-event primitive the recovery
/// tests and the `--ckpt-smoke` harness are built on.
pub fn run_batch_until(
    stream: &[BatchJob],
    cfg: &BatchConfig,
    fault: Option<&BatchFault>,
    stop_after_events: usize,
) -> Option<BatchCheckpoint> {
    let mut eng = Engine::new(cfg);
    let mut st = eng.start(JobSource::sorted(stream), fault, true);
    let stopped = eng.run(&mut st, |_, s| s.trace_len() >= stop_after_events);
    stopped.then(|| eng.capture(&st))
}

/// Continue a checkpointed batch or fleet run to completion. The resumed
/// trace (which includes the pre-checkpoint prefix) is byte-identical to
/// the uninterrupted run's, and so are its `trace_hash`, accumulator and
/// metrics: state and metrics are restored exactly and kernel results
/// re-derive from the pure oracle. An image of a run that did not record
/// resumes with an empty trace, reservations and job records.
pub fn resume_batch(ckpt: &BatchCheckpoint) -> BatchOutcome {
    let (mut eng, mut st) = Engine::restore(ckpt);
    eng.run(&mut st, |_, _| false);
    eng.finish(st)
}

/// Run a fleet-scale streaming batch to completion: lazy arrivals, hashed
/// trace, O(1)-memory statistics. The outcome's recording (`jobs`,
/// `events`, `reservations`) stays empty. See [`crate::fleet`].
pub fn run_fleet(cfg: &FleetConfig) -> BatchOutcome {
    let mut eng = Engine::new(&cfg.batch);
    let mut st = eng.start(JobSource::generate(FleetJobs::new(&cfg.stream), 0), None, false);
    eng.run(&mut st, |_, _| false);
    eng.finish(st)
}

/// Run a fleet stream until the trace holds at least `stop_after_events`
/// events and capture a checkpoint there; `None` when the stream drained
/// first.
pub fn run_fleet_until(cfg: &FleetConfig, stop_after_events: usize) -> Option<BatchCheckpoint> {
    let mut eng = Engine::new(&cfg.batch);
    let mut st = eng.start(JobSource::generate(FleetJobs::new(&cfg.stream), 0), None, false);
    let stopped = eng.run(&mut st, |_, s| s.trace_len() >= stop_after_events);
    stopped.then(|| eng.capture(&st))
}

fn complete(seg: Running, oracle: &mut Oracle, ctr: &Counters, st: &mut EngineState<'_>) {
    let now = st.now;
    for &n in &seg.nodes {
        st.fleet.release(n);
    }
    st.emit(BatchEvent::Finish { t: now, job: seg.id });
    ctr.completed.inc();
    let Some(mut tr) = st.trackers.remove(&seg.id) else {
        // INVARIANT: every running segment has a tracker; nothing to do
        // if the map was corrupted, and degrading silently beats a panic.
        return;
    };
    let ran = now.saturating_since(seg.start).as_secs_f64();
    tr.node_secs_held += ran * seg.nodes.len() as f64;
    tr.run_secs += ran;
    tr.iters_done += tr.remaining_iters;
    let full_service = oracle.service(tr.job.service_key(), &tr.job.spec, tr.job.spec.iterations);
    let first_start = tr.first_start.unwrap_or(seg.start);
    let wait = first_start.saturating_since(arrival_time(&tr.job)).as_secs_f64();
    let turnaround = now.saturating_since(arrival_time(&tr.job)).as_secs_f64();
    let slowdown = if full_service > 0.0 { turnaround / full_service } else { 1.0 };
    ctr.wait_us.record((wait * 1e6) as u64);
    ctr.turnaround_us.record((turnaround * 1e6) as u64);
    ctr.slowdown_milli.record((slowdown * 1e3) as u64);
    ctr.node_secs_ms.record((tr.node_secs_held * 1e3) as u64);
    if tr.backfilled {
        ctr.backfilled.inc();
    }
    // The record keeps its own copy of the segment's placement and node
    // times; the oracle keeps the measurement.
    let run = tr.segment(oracle);
    let (placement, node_secs) = (run.placement.clone(), run.node_secs.clone());
    st.retire(JobRecord {
        id: seg.id,
        name: tr.job.spec.name.clone(),
        ranks: tr.job.spec.ranks(),
        arrival: arrival_time(&tr.job).as_secs_f64(),
        first_start: Some(first_start.as_secs_f64()),
        end: now.as_secs_f64(),
        wait,
        turnaround,
        slowdown,
        backfilled: tr.backfilled,
        requeues: tr.requeues,
        node_secs_held: tr.node_secs_held,
        outcome: ClusterOutcome {
            result: ClusterResult { placement, node_secs, makespan: tr.run_secs },
            failure: tr.failure.map(|(node, at)| NodeFailureRecord {
                node,
                at_iteration: at,
                retries_used: tr.requeues,
                absorbed: true,
            }),
            degraded: false,
        },
    });
}

fn maybe_fire_fault(
    cfg: &BatchConfig,
    oracle: &mut Oracle,
    ctr: &Counters,
    st: &mut EngineState<'_>,
) {
    let fires = st.fault_armed.is_some_and(|f| st.completions >= f.after_completions);
    if !fires {
        return;
    }
    let Some(f) = st.fault_armed.take() else {
        // INVARIANT: is_some_and above guarantees presence.
        return;
    };
    if !st.fleet.up[f.node] {
        return;
    }
    st.fleet.kill(f.node);
    ctr.nodes_failed.inc();
    st.emit(BatchEvent::NodeFail { t: st.now, node: f.node });

    // First victim in admission order — the same segment the old linear
    // scan over the admission-ordered running list found.
    let hit = st
        .running
        .iter()
        .find(|(_, r)| r.nodes.contains(&f.node))
        .map(|(&seq, _)| seq);
    let Some(seq) = hit else {
        return;
    };
    let Some(seg) = st.running.remove(&seq) else {
        // INVARIANT: seq was just found in the map.
        return;
    };
    st.release.remove(seq);
    for &n in &seg.nodes {
        st.fleet.release(n);
    }
    let now = st.now;
    let Some(tr) = st.trackers.get_mut(&seg.id) else {
        // INVARIANT: every running segment has a tracker (see `complete`).
        return;
    };
    let elapsed = now.saturating_since(seg.start).as_secs_f64();
    tr.node_secs_held += elapsed * seg.nodes.len() as f64;
    tr.run_secs += elapsed;
    let iters = tr.remaining_iters;
    let span = seg.end.saturating_since(seg.start).as_secs_f64();
    let frac = if span > 0.0 { elapsed / span } else { 0.0 };
    let iters_done = ((frac * iters as f64) as u32).min(iters.saturating_sub(1));
    tr.iters_done += iters_done;
    let remaining_iters = iters - iters_done;
    tr.failure = Some((f.node, tr.iters_done));
    tr.requeues += 1;
    ctr.requeues.inc();

    if tr.requeues > f.max_retries {
        degrade(seg.id, "retries-exhausted", ctr, st);
        return;
    }
    tr.remaining_iters = remaining_iters;
    tr.restart_due = f.restart_secs;
    let need = tr.job.nodes_needed();
    if cfg.discipline == Discipline::Sjf {
        // Re-rank under the new remaining segment + restart overhead —
        // the position the old full re-sort would have given it.
        let rank = queued_service(oracle, &st.trackers, seg.id).to_bits();
        st.pending.push_ranked(seg.id, rank, need);
    } else {
        st.pending.push_front(seg.id, need);
    }
    st.emit(BatchEvent::Requeue { t: now, job: seg.id, remaining_iters });
}

fn degrade(id: u64, reason: &'static str, ctr: &Counters, st: &mut EngineState<'_>) {
    let Some(tr) = st.trackers.remove(&id) else {
        // INVARIANT: callers only degrade ids they hold in the map.
        return;
    };
    ctr.degraded.inc();
    st.emit(BatchEvent::Degraded { t: st.now, job: id, reason });
    let n = tr.job.nodes_needed().min(st.fleet.up.len().max(1));
    st.retire(JobRecord {
        id,
        name: tr.job.spec.name.clone(),
        ranks: tr.job.spec.ranks(),
        arrival: arrival_time(&tr.job).as_secs_f64(),
        first_start: tr.first_start.map(SimTime::as_secs_f64),
        end: st.now.as_secs_f64(),
        wait: 0.0,
        turnaround: st.now.saturating_since(arrival_time(&tr.job)).as_secs_f64(),
        slowdown: 0.0,
        backfilled: tr.backfilled,
        requeues: tr.requeues,
        node_secs_held: tr.node_secs_held,
        outcome: ClusterOutcome {
            result: ClusterResult {
                placement: Placement {
                    strategy: PlacementStrategy::RoundRobin,
                    nodes: vec![Vec::new(); n],
                },
                node_secs: vec![0.0; n],
                makespan: tr.run_secs,
            },
            failure: tr.failure.map(|(node, at)| NodeFailureRecord {
                node,
                at_iteration: at,
                retries_used: tr.requeues,
                absorbed: false,
            }),
            degraded: true,
        },
    });
}

fn schedule(cfg: &BatchConfig, oracle: &mut Oracle, ctr: &Counters, st: &mut EngineState<'_>) {
    // Jobs wider than the surviving fleet can never start: degrade them
    // instead of deadlocking the queue. The width index answers this as a
    // range query, in queue order.
    let alive = st.fleet.alive();
    for id in st.pending.wider_than(alive) {
        st.pending.remove(id);
        degrade(id, "unplaceable", ctr, st);
    }

    // Admit from the head while it fits. The pending queue iterates in
    // discipline order (insertion sequence for FCFS/EASY, service rank
    // for SJF), so no per-pass re-sort is needed.
    loop {
        let Some(head) = st.pending.first() else { return };
        let need = st.trackers.get(&head).map_or(0, |t| t.job.nodes_needed());
        if need > st.fleet.free_count() {
            break;
        }
        st.pending.remove(head);
        admit(head, false, cfg, oracle, ctr, st);
    }

    if cfg.discipline != Discipline::Easy || st.pending.is_empty() {
        return;
    }

    // EASY backfill: reserve the head, let later jobs jump ahead iff they
    // cannot delay it. The shadow walk visits releases in end order and
    // stops once the head fits — O(head_need · log r), not a sort.
    let Some(head) = st.pending.first() else { return };
    let head_need = st.trackers.get(&head).map_or(0, |t| t.job.nodes_needed());
    let mut free = st.fleet.free_count();
    let Some((shadow, avail)) = st.release.shadow(free, head_need) else {
        // Head cannot be satisfied even when everything drains — it would
        // have been dropped as unplaceable above; leave the queue alone.
        return;
    };
    st.reserve(ctr, head, st.now, shadow);
    // Nodes free at the shadow instant beyond what the head will take.
    let mut spare = avail - head_need;

    let window = cfg.backfill_window.unwrap_or(usize::MAX);
    let mut candidates = std::mem::take(&mut st.scratch.candidates);
    let mut admitted = std::mem::take(&mut st.scratch.admitted);
    candidates.clear();
    candidates.extend(st.pending.iter().skip(1).take(window));
    admitted.clear();
    for &id in &candidates {
        let Some(tr) = st.trackers.get(&id) else { continue };
        let need = tr.job.nodes_needed();
        if need > free {
            continue;
        }
        let svc = queued_service(oracle, &st.trackers, id);
        // Exact nanosecond comparison: the candidate's completion instant
        // is computed the same way `admit` will compute it.
        let fits_before_shadow = st.now + SimDuration::from_secs_f64(svc) <= shadow;
        let fits_in_spare = need <= spare;
        if !fits_before_shadow && !fits_in_spare {
            continue;
        }
        if !fits_before_shadow {
            spare -= need;
        }
        free -= need;
        admitted.push(id);
    }
    for &id in &admitted {
        st.pending.remove(id);
        admit(id, true, cfg, oracle, ctr, st);
    }
    st.scratch.candidates = candidates;
    st.scratch.admitted = admitted;
}

/// Effective service of a queued job: measured segment time plus any
/// restart overhead owed from a requeue.
fn queued_service(oracle: &mut Oracle, trackers: &BTreeMap<u64, Tracker<'_>>, id: u64) -> f64 {
    trackers.get(&id).map_or(0.0, |t| t.segment(oracle).service + t.restart_due)
}

/// Start queued job `id` on the first free nodes it needs.
fn admit(
    id: u64,
    backfilled: bool,
    cfg: &BatchConfig,
    oracle: &mut Oracle,
    ctr: &Counters,
    st: &mut EngineState<'_>,
) {
    let (service, failed) = {
        let Some(tr) = st.trackers.get(&id) else {
            // INVARIANT: admit is only called with queued ids, which
            // always have trackers.
            return;
        };
        let run = tr.segment(oracle);
        (run.service, run.failed)
    };
    if let Some(reason) = failed {
        // The supervisor gave up on this job's kernel measurement
        // (quarantined panic loop or watchdog timeout): there is no
        // service time to schedule with, so the job degrades with the
        // typed reason instead of starting.
        degrade(id, reason, ctr, st);
        return;
    }
    let now = st.now;
    let Some(tr) = st.trackers.get_mut(&id) else {
        return;
    };
    if cfg.verify_jobs && tr.requeues == 0 {
        // Record the *source* of the conformance check, not the reports:
        // the oracle is pure and memoized, so reports re-derive at outcome
        // build — which keeps checkpoints free of report payloads.
        let spec = JobSpec { iterations: tr.remaining_iters, ..tr.job.spec.clone() };
        st.conformance_src.push((tr.job.service_key(), spec));
    }
    let service = service + tr.restart_due;
    tr.restart_due = 0.0;
    if tr.first_start.is_none() {
        tr.first_start = Some(now);
    }
    if backfilled {
        tr.backfilled = true;
    }
    let need = tr.job.nodes_needed();
    let mut alloc = std::mem::take(&mut st.scratch.alloc);
    st.fleet.first_free(need, &mut alloc);
    for &n in &alloc {
        st.fleet.occupy(n);
    }
    st.emit(BatchEvent::Start { t: now, job: id, nodes: alloc.clone(), backfilled });
    let end = now + SimDuration::from_secs_f64(service);
    let seq = st.next_seq;
    st.next_seq += 1;
    st.release.insert(seq, end, alloc.len());
    st.running.insert(seq, Running { id, nodes: alloc.clone(), start: now, end });
    st.scratch.alloc = alloc;
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimRng;
    use PlacementStrategy::{GreedyLpt, RoundRobin, SmtAware};

    /// 2 heavy + 6 light ranks: two nodes' worth.
    fn heavy_light_job() -> JobSpec {
        JobSpec::new("hl", vec![0.32, 0.32, 0.08, 0.08, 0.08, 0.08, 0.08, 0.08], 5)
    }

    fn fleet(num_nodes: usize, sched: LocalSched, placement: PlacementStrategy) -> BatchConfig {
        BatchConfig { num_nodes, sched, placement, ..BatchConfig::default() }
    }

    /// Cluster side of `spec` submitted alone: a one-job batch stream.
    fn run_alone(spec: &JobSpec, cfg: &BatchConfig, fault: Option<&BatchFault>) -> ClusterOutcome {
        let out = run_batch(&[BatchJob::new(0, spec.clone(), 0.0)], cfg, fault);
        out.jobs[0].outcome.clone()
    }

    fn makespan(spec: &JobSpec, cfg: &BatchConfig) -> f64 {
        run_alone(spec, cfg, None).result.makespan
    }

    #[test]
    fn smt_aware_beats_round_robin_on_skewed_jobs() {
        let job = heavy_light_job();
        let rr = makespan(&job, &fleet(2, LocalSched::Hpc, RoundRobin));
        let smt = makespan(&job, &fleet(2, LocalSched::Hpc, SmtAware));
        assert!(smt <= rr * 1.001, "smt {smt} vs rr {rr}");
    }

    #[test]
    fn hpcsched_nodes_beat_cfs_nodes_for_any_placement() {
        let job = heavy_light_job();
        for s in [RoundRobin, GreedyLpt, SmtAware] {
            let cfs = makespan(&job, &fleet(2, LocalSched::Cfs, s));
            let hpc = makespan(&job, &fleet(2, LocalSched::Hpc, s));
            assert!(hpc <= cfs * 1.001, "{s:?}: hpc {hpc} vs cfs {cfs}");
        }
    }

    #[test]
    fn makespan_includes_network_component() {
        let job = JobSpec::new("tiny", vec![0.05; 4], 10);
        let cfg = BatchConfig { num_nodes: 1, internode_latency: 0.01, ..BatchConfig::default() };
        let r = run_alone(&job, &cfg, None).result;
        assert!(r.makespan >= r.node_secs[0] + 0.1 - 1e-6, "10 barriers × 10 ms");
    }

    #[test]
    fn random_jobs_run_end_to_end() {
        let job = JobSpec::random("rand", 12, 3, &mut SimRng::seed_from_u64(9));
        let r = run_alone(&job, &fleet(3, LocalSched::Hpc, SmtAware), None).result;
        assert!(r.placement.is_valid(&job, &FleetShape::Uniform.catalog(3)));
        assert_eq!(r.node_secs.len(), 3);
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn single_node_cluster_failure_never_panics() {
        let job = JobSpec::new("j", vec![0.05; 4], 4);
        let f = BatchFault { node: 0, after_completions: 0, max_retries: 2, restart_secs: 0.1 };
        let out = run_alone(&job, &fleet(1, LocalSched::Hpc, RoundRobin), Some(&f));
        assert!(out.degraded, "zero survivors can never absorb");
    }

    #[test]
    fn out_of_range_failure_matches_plain_run() {
        let stream = [BatchJob::new(0, heavy_light_job(), 0.0)];
        let cfg = fleet(2, LocalSched::Hpc, SmtAware);
        let f = BatchFault { node: 7, after_completions: 0, max_retries: 1, restart_secs: 0.1 };
        let faulted = run_batch(&stream, &cfg, Some(&f));
        assert!(faulted.failed_nodes.is_empty());
        assert_eq!(faulted.render_trace(), run_batch(&stream, &cfg, None).render_trace());
    }

    /// Timestamps the encoder must render like `{}.{:09}`: zero, either
    /// side of whole seconds, and the far end of the clock.
    fn arb_time() -> impl proptest::strategy::Strategy<Value = SimTime> {
        use proptest::prelude::*;
        let near_second = (0u64..1_000_000, prop_oneof![Just(0u64), Just(1), Just(999_999_999)])
            .prop_map(|(s, ns)| s * 1_000_000_000 + ns);
        prop_oneof![Just(0u64), Just(u64::MAX), near_second, any::<u64>()]
            .prop_map(|ns| SimTime::ZERO + SimDuration::from_nanos(ns))
    }

    fn arb_id() -> impl proptest::strategy::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]
    }

    fn arb_event() -> impl proptest::strategy::Strategy<Value = BatchEvent> {
        use proptest::prelude::*;
        // Every reason `degrade` is ever given.
        let reason = prop_oneof![
            Just("unplaceable"),
            Just("retries-exhausted"),
            Just("task-quarantined"),
            Just("task-timeout"),
        ];
        let size = || prop_oneof![Just(0usize), Just(usize::MAX), any::<usize>()];
        prop_oneof![
            (arb_time(), arb_id(), size(), size())
                .prop_map(|(t, job, ranks, nodes)| BatchEvent::Submit { t, job, ranks, nodes }),
            (arb_time(), arb_id(), proptest::collection::vec(size(), 0..40), any::<bool>())
                .prop_map(|(t, job, nodes, backfilled)| BatchEvent::Start {
                    t,
                    job,
                    nodes,
                    backfilled
                }),
            (arb_time(), arb_id()).prop_map(|(t, job)| BatchEvent::Finish { t, job }),
            (arb_time(), size()).prop_map(|(t, node)| BatchEvent::NodeFail { t, node }),
            (arb_time(), arb_id(), any::<u32>()).prop_map(|(t, job, remaining_iters)| {
                BatchEvent::Requeue { t, job, remaining_iters }
            }),
            (arb_time(), arb_id(), reason)
                .prop_map(|(t, job, reason)| BatchEvent::Degraded { t, job, reason }),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 2_000,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The byte encoder writes exactly what `Display` does, line by
        /// line, so the trace hash and the rendered trace are unchanged.
        #[test]
        fn encoder_matches_display(e in arb_event()) {
            let mut out = String::from("prefix\n");
            e.encode_line(&mut out);
            proptest::prop_assert_eq!(out, format!("prefix\n{e}\n"));
        }
    }
}
