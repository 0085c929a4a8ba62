//! Crash-consistent checkpoint/restore for batch runs.
//!
//! A [`BatchCheckpoint`] images the engine state at a loop boundary (see
//! `sim::Engine::run`) into plain data, encoded with `simcore::snapshot`'s
//! versioned, checksummed wire format. [`crate::resume_batch`] rebuilds the
//! engine from it and produces a trace byte-identical to the uninterrupted
//! run — that identity is the subsystem's testable contract.
//!
//! [`CheckpointStore`] adds the durability half: atomic write-then-rename
//! with one generation of history, so a crash mid-write (or a corrupted
//! latest image, exercised by faultsim's `ckptcorrupt:` class) falls back
//! to the previous good checkpoint instead of wedging recovery.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};

use faultsim::TaskAbortSpec;
use simcore::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use simcore::SimTime;
use telemetry::MetricsSnapshot;

use crate::arrivals::FleetStreamConfig;
use crate::discipline::Discipline;
use crate::fleet::FleetAccum;
use crate::job::{BatchJob, JobSpec};
use crate::sim::{
    BatchConfig, BatchEvent, BatchFault, ClusterOutcome, ClusterResult, FleetShape, JobRecord,
    NodeFailureRecord, Recording, ReservationRecord, Summary, Tracker,
};

/// Version of the batch checkpoint payload layout. Bumped to 2 when the
/// fleet extension, `BatchConfig::backfill_window`, and `BatchJob::class`
/// entered the format, to 3 when `BatchConfig::shape` (the
/// heterogeneous-fleet axis) did, to 4 when every image came to carry
/// the run summary and the metrics snapshot, with the recording optional,
/// and to 5 when `LocalSched` gained a variant-tagged wire form (its label
/// alone could not tell the builtin `static` regime from the zoo's
/// `static` policy), and to 6 when the caller's list and the generator
/// position became one job-source image and the reservation tally moved
/// from the run summary into the metrics snapshot, and to 7 when
/// `BatchConfig::threads` left the image (node runs are serial, so the
/// field is read by nothing); decode rejects other versions rather than
/// misinterpreting old images.
pub const BATCH_CHECKPOINT_VERSION: u32 = 7;

/// When a checkpointing run captures images (checked at the engine loop
/// boundary; both cadences may be set, either firing captures).
#[derive(Clone, Copy, Debug, Default)]
pub struct CheckpointPolicy {
    /// Capture once at least this many new trace events accumulated.
    pub every_events: Option<usize>,
    /// Capture once at least this many new jobs completed.
    pub every_jobs: Option<u32>,
}

/// A crash-consistent image of a batch run at an engine loop boundary.
/// Encode/decode round-trips byte-exactly; resuming replays a trace
/// byte-identical to the uninterrupted run.
#[derive(Clone, Debug)]
pub struct BatchCheckpoint {
    pub(crate) cfg: BatchConfig,
    pub(crate) fault_armed: Option<BatchFault>,
    pub(crate) now: SimTime,
    pub(crate) completions: u32,
    pub(crate) fleet_up: Vec<bool>,
    pub(crate) fleet_busy: Vec<bool>,
    pub(crate) source: SourceImage,
    pub(crate) queue: VecDeque<u64>,
    pub(crate) trackers: BTreeMap<u64, Tracker>,
    /// In-flight segments as `(id, nodes, start, end)`; the kernel
    /// measurement re-derives from the pure oracle on resume.
    pub(crate) running: Vec<(u64, Vec<usize>, SimTime, SimTime)>,
    pub(crate) summary: Summary,
    pub(crate) recording: Option<Recording>,
    pub(crate) conformance_src: Vec<(u64, JobSpec)>,
    /// The run's metric values at the capture instant.
    pub(crate) metrics: MetricsSnapshot,
}

/// Where the rest of the run's jobs come from — the image of the
/// engine's job source.
#[derive(Clone, Debug)]
pub(crate) enum SourceImage {
    /// The caller's jobs not yet submitted, in arrival order.
    Pending(VecDeque<BatchJob>),
    /// A lazy generator: generation is pure in `(config, index)`, so the
    /// image is the config plus the count of jobs already handed to the
    /// engine.
    Generator { stream: FleetStreamConfig, popped: u64 },
}

impl Snapshot for FleetStreamConfig {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.seed);
        w.put_u64(self.jobs);
        w.put_u32(self.classes);
        w.put_f64(self.mean_interarrival);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FleetStreamConfig {
            seed: r.get_u64()?,
            jobs: r.get_u64()?,
            classes: r.get_u32()?,
            mean_interarrival: r.get_f64()?,
        })
    }
}

impl Snapshot for FleetAccum {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.jobs);
        w.put_u64(self.completed);
        w.put_u64(self.degraded);
        w.put_u64(self.backfilled);
        w.put_u64(self.requeued);
        w.put_f64(self.wait_sum);
        w.put_f64(self.wait_max);
        w.put_f64(self.turnaround_sum);
        w.put_f64(self.turnaround_max);
        w.put_f64(self.slowdown_sum);
        w.put_f64(self.slowdown_max);
        w.put_f64(self.node_secs);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FleetAccum {
            jobs: r.get_u64()?,
            completed: r.get_u64()?,
            degraded: r.get_u64()?,
            backfilled: r.get_u64()?,
            requeued: r.get_u64()?,
            wait_sum: r.get_f64()?,
            wait_max: r.get_f64()?,
            turnaround_sum: r.get_f64()?,
            turnaround_max: r.get_f64()?,
            slowdown_sum: r.get_f64()?,
            slowdown_max: r.get_f64()?,
            node_secs: r.get_f64()?,
        })
    }
}

impl Snapshot for SourceImage {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            SourceImage::Pending(jobs) => {
                w.put_u8(0);
                w.put(jobs);
            }
            SourceImage::Generator { stream, popped } => {
                w.put_u8(1);
                w.put(stream);
                w.put_u64(*popped);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(SourceImage::Pending(r.get()?)),
            1 => Ok(SourceImage::Generator { stream: r.get()?, popped: r.get_u64()? }),
            _ => Err(SnapshotError::Malformed("bad SourceImage tag")),
        }
    }
}

impl Snapshot for Summary {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.trace_hash);
        w.put_u64(self.trace_len);
        w.put(&self.trace_max_t);
        w.put(&self.last_reserved);
        self.accum.snapshot(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Summary {
            trace_hash: r.get_u64()?,
            trace_len: r.get_u64()?,
            trace_max_t: r.get()?,
            last_reserved: r.get()?,
            accum: r.get()?,
        })
    }
}

impl Snapshot for Recording {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.events);
        w.put(&self.reservations);
        w.put(&self.records);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Recording { events: r.get()?, reservations: r.get()?, records: r.get()? })
    }
}

impl BatchCheckpoint {
    /// Serialize to the framed `simcore::snapshot` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.snapshot(&mut w);
        w.finish()
    }

    /// Decode a checkpoint, verifying frame, version, and checksum,
    /// rejecting trailing garbage, and checking the cross-field facts the
    /// resumed engine indexes on (`check_consistent`).
    pub fn decode(bytes: &[u8]) -> Result<BatchCheckpoint, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        let ckpt = BatchCheckpoint::restore(&mut r)?;
        r.finish()?;
        ckpt.check_consistent()?;
        Ok(ckpt)
    }

    /// A checksum proves the bytes are the ones written, not that they
    /// describe a state the engine can reach. Every image a run captures
    /// satisfies these facts, and resuming indexes the fleet and the
    /// tracker map on them: the fleet images are `num_nodes` long, the
    /// running segments hold distinct in-range nodes that are marked busy,
    /// every running or queued job has a tracker, and an armed node
    /// failure names a node of the fleet.
    fn check_consistent(&self) -> Result<(), SnapshotError> {
        let n = self.cfg.num_nodes;
        if self.fleet_up.len() != n || self.fleet_busy.len() != n {
            return Err(SnapshotError::Malformed("fleet image length differs from num_nodes"));
        }
        let mut held = vec![false; n];
        for (id, nodes, _, _) in &self.running {
            for &node in nodes {
                if node >= n || !self.fleet_busy[node] {
                    return Err(SnapshotError::Malformed("running segment off the busy fleet"));
                }
                if std::mem::replace(&mut held[node], true) {
                    return Err(SnapshotError::Malformed("node held by two running segments"));
                }
            }
            if !self.trackers.contains_key(id) {
                return Err(SnapshotError::Malformed("running job without a tracker"));
            }
        }
        if !self.queue.iter().all(|id| self.trackers.contains_key(id)) {
            return Err(SnapshotError::Malformed("queued job without a tracker"));
        }
        if self.fault_armed.is_some_and(|f| f.node >= n) {
            return Err(SnapshotError::Malformed("armed node failure outside the fleet"));
        }
        Ok(())
    }

    /// Simulated instant the image was captured at.
    pub fn captured_at(&self) -> SimTime {
        self.now
    }

    /// Trace events accumulated before the capture.
    pub fn events_len(&self) -> usize {
        self.summary.trace_len as usize
    }
}

impl Snapshot for BatchCheckpoint {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u32(BATCH_CHECKPOINT_VERSION);
        self.cfg.snapshot(w);
        w.put(&self.fault_armed);
        w.put(&self.now);
        w.put_u32(self.completions);
        w.put(&self.fleet_up);
        w.put(&self.fleet_busy);
        w.put(&self.source);
        w.put(&self.queue);
        w.put(&self.trackers);
        w.put(&self.running);
        w.put(&self.summary);
        w.put(&self.recording);
        w.put(&self.conformance_src);
        w.put(&self.metrics);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        if r.get_u32()? != BATCH_CHECKPOINT_VERSION {
            return Err(SnapshotError::Malformed("unsupported batch checkpoint version"));
        }
        Ok(BatchCheckpoint {
            cfg: r.get()?,
            fault_armed: r.get()?,
            now: r.get()?,
            completions: r.get_u32()?,
            fleet_up: r.get()?,
            fleet_busy: r.get()?,
            source: r.get()?,
            queue: r.get()?,
            trackers: r.get()?,
            running: r.get()?,
            summary: r.get()?,
            recording: r.get()?,
            conformance_src: r.get()?,
            metrics: r.get()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Wire encodings for batchsim types. Enum tags and field order are part of
// the format; version-bump `simcore::snapshot` when changing them.
// ---------------------------------------------------------------------------

impl Snapshot for Discipline {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_str(self.label());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let label = r.get_str()?;
        Discipline::parse(&label).ok_or(SnapshotError::Malformed("unknown Discipline label"))
    }
}

impl Snapshot for BatchConfig {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.num_nodes);
        self.discipline.snapshot(w);
        self.sched.snapshot(w);
        self.placement.snapshot(w);
        w.put_f64(self.internode_latency);
        w.put_u64(self.seed);
        w.put_bool(self.verify_jobs);
        w.put_u32(self.retry_limit);
        w.put(&self.watchdog_secs);
        // `TaskAbortSpec` is a faultsim type (orphan rule), so its fields
        // are framed inline here.
        match self.abort {
            None => w.put_bool(false),
            Some(a) => {
                w.put_bool(true);
                w.put_u64(a.job);
                w.put_len(a.node);
                w.put_u32(a.aborts);
                w.put_bool(a.hang);
            }
        }
        w.put(&self.backfill_window);
        w.put(&self.shape);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(BatchConfig {
            num_nodes: r.get_len()?,
            discipline: r.get()?,
            sched: r.get()?,
            placement: r.get()?,
            internode_latency: r.get_f64()?,
            seed: r.get_u64()?,
            verify_jobs: r.get_bool()?,
            threads: 1,
            retry_limit: r.get_u32()?,
            watchdog_secs: r.get()?,
            abort: if r.get_bool()? {
                Some(TaskAbortSpec {
                    job: r.get_u64()?,
                    node: r.get_len()?,
                    aborts: r.get_u32()?,
                    hang: r.get_bool()?,
                })
            } else {
                None
            },
            backfill_window: r.get()?,
            shape: r.get()?,
        })
    }
}

impl Snapshot for FleetShape {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            FleetShape::Uniform => w.put_u8(0),
            FleetShape::Preset(p) => {
                w.put_u8(1);
                w.put(p);
            }
            FleetShape::Mixed => w.put_u8(2),
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(FleetShape::Uniform),
            1 => Ok(FleetShape::Preset(r.get()?)),
            2 => Ok(FleetShape::Mixed),
            _ => Err(SnapshotError::Malformed("bad FleetShape tag")),
        }
    }
}

impl Snapshot for BatchFault {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.node);
        w.put_u32(self.after_completions);
        w.put_u32(self.max_retries);
        w.put_f64(self.restart_secs);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(BatchFault {
            node: r.get_len()?,
            after_completions: r.get_u32()?,
            max_retries: r.get_u32()?,
            restart_secs: r.get_f64()?,
        })
    }
}

impl Snapshot for BatchJob {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.id);
        self.spec.snapshot(w);
        w.put_f64(self.arrival);
        w.put(&self.class);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(BatchJob {
            id: r.get_u64()?,
            spec: r.get()?,
            arrival: r.get_f64()?,
            class: r.get()?,
        })
    }
}

/// Degradation reasons are `&'static str` in the event type; decoding
/// re-interns against this closed set so restore stays allocation-free in
/// the event and rejects unknown reasons as malformed rather than leaking.
fn intern_reason(s: &str) -> Option<&'static str> {
    ["retries-exhausted", "unplaceable", "task-quarantined", "task-timeout"]
        .into_iter()
        .find(|&k| k == s)
}

impl Snapshot for BatchEvent {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            BatchEvent::Submit { t, job, ranks, nodes } => {
                w.put_u8(0);
                w.put(t);
                w.put_u64(*job);
                w.put_len(*ranks);
                w.put_len(*nodes);
            }
            BatchEvent::Start { t, job, nodes, backfilled } => {
                w.put_u8(1);
                w.put(t);
                w.put_u64(*job);
                w.put(nodes);
                w.put_bool(*backfilled);
            }
            BatchEvent::Finish { t, job } => {
                w.put_u8(2);
                w.put(t);
                w.put_u64(*job);
            }
            BatchEvent::NodeFail { t, node } => {
                w.put_u8(3);
                w.put(t);
                w.put_len(*node);
            }
            BatchEvent::Requeue { t, job, remaining_iters } => {
                w.put_u8(4);
                w.put(t);
                w.put_u64(*job);
                w.put_u32(*remaining_iters);
            }
            BatchEvent::Degraded { t, job, reason } => {
                w.put_u8(5);
                w.put(t);
                w.put_u64(*job);
                w.put_str(reason);
            }
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.get_u8()? {
            0 => BatchEvent::Submit {
                t: r.get()?,
                job: r.get_u64()?,
                ranks: r.get_len()?,
                nodes: r.get_len()?,
            },
            1 => BatchEvent::Start {
                t: r.get()?,
                job: r.get_u64()?,
                nodes: r.get()?,
                backfilled: r.get_bool()?,
            },
            2 => BatchEvent::Finish { t: r.get()?, job: r.get_u64()? },
            3 => BatchEvent::NodeFail { t: r.get()?, node: r.get_len()? },
            4 => BatchEvent::Requeue {
                t: r.get()?,
                job: r.get_u64()?,
                remaining_iters: r.get_u32()?,
            },
            5 => {
                let t = r.get()?;
                let job = r.get_u64()?;
                let reason = r.get_str()?;
                BatchEvent::Degraded {
                    t,
                    job,
                    reason: intern_reason(&reason)
                        .ok_or(SnapshotError::Malformed("unknown degradation reason"))?,
                }
            }
            _ => return Err(SnapshotError::Malformed("bad BatchEvent tag")),
        })
    }
}

impl Snapshot for ReservationRecord {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.job);
        w.put(&self.at);
        w.put(&self.shadow);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ReservationRecord { job: r.get_u64()?, at: r.get()?, shadow: r.get()? })
    }
}

impl Snapshot for JobRecord {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.id);
        w.put_str(&self.name);
        w.put_len(self.ranks);
        w.put_f64(self.arrival);
        w.put(&self.first_start);
        w.put_f64(self.end);
        w.put_f64(self.wait);
        w.put_f64(self.turnaround);
        w.put_f64(self.slowdown);
        w.put_bool(self.backfilled);
        w.put_u32(self.requeues);
        w.put_f64(self.node_secs_held);
        w.put(&self.outcome);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(JobRecord {
            id: r.get_u64()?,
            name: r.get_str()?,
            ranks: r.get_len()?,
            arrival: r.get_f64()?,
            first_start: r.get()?,
            end: r.get_f64()?,
            wait: r.get_f64()?,
            turnaround: r.get_f64()?,
            slowdown: r.get_f64()?,
            backfilled: r.get_bool()?,
            requeues: r.get_u32()?,
            node_secs_held: r.get_f64()?,
            outcome: r.get()?,
        })
    }
}

impl Snapshot for ClusterResult {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.placement);
        w.put(&self.node_secs);
        w.put_f64(self.makespan);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ClusterResult { placement: r.get()?, node_secs: r.get()?, makespan: r.get_f64()? })
    }
}

impl Snapshot for NodeFailureRecord {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_len(self.node);
        w.put_u32(self.at_iteration);
        w.put_u32(self.retries_used);
        w.put_bool(self.absorbed);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(NodeFailureRecord {
            node: r.get_len()?,
            at_iteration: r.get_u32()?,
            retries_used: r.get_u32()?,
            absorbed: r.get_bool()?,
        })
    }
}

impl Snapshot for ClusterOutcome {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put(&self.result);
        w.put(&self.failure);
        w.put_bool(self.degraded);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ClusterOutcome { result: r.get()?, failure: r.get()?, degraded: r.get_bool()? })
    }
}

impl Snapshot for Tracker {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.job.snapshot(w);
        self.remaining.snapshot(w);
        w.put(&self.first_start);
        w.put_f64(self.node_secs_held);
        w.put_f64(self.run_secs);
        w.put_u32(self.iters_done);
        w.put_u32(self.requeues);
        w.put_bool(self.backfilled);
        w.put_f64(self.restart_due);
        w.put(&self.failure);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Tracker {
            job: r.get()?,
            remaining: r.get()?,
            first_start: r.get()?,
            node_secs_held: r.get_f64()?,
            run_secs: r.get_f64()?,
            iters_done: r.get_u32()?,
            requeues: r.get_u32()?,
            backfilled: r.get_bool()?,
            restart_due: r.get_f64()?,
            failure: r.get()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Durable storage: atomic rotation with one generation of fallback.
// ---------------------------------------------------------------------------

/// Why a checkpoint could not be loaded.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// The (only) image failed frame/checksum/shape validation.
    Decode(SnapshotError),
    /// Both the latest image and the previous generation are unusable.
    BothCorrupt { latest: SnapshotError, previous: SnapshotError },
    /// Nothing has been saved in this directory yet.
    Missing(PathBuf),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "checkpoint io error: {e}"),
            StoreError::Decode(e) => write!(f, "checkpoint corrupt: {e:?}"),
            StoreError::BothCorrupt { latest, previous } => write!(
                f,
                "checkpoint and fallback both corrupt: latest {latest:?}, previous {previous:?}"
            ),
            StoreError::Missing(p) => write!(f, "no checkpoint found under {}", p.display()),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Offset of the first payload byte in the framed encoding — flipping it
/// corrupts the image without touching the header, so loads fail on the
/// checksum (the realistic torn-write shape `ckptcorrupt:` models).
const PAYLOAD_OFFSET: usize = simcore::snapshot::SNAPSHOT_HEADER_LEN;

/// Rotating on-disk checkpoint store: `batch.ckpt` is the latest good
/// image, `batch.ckpt.prev` the one before it. Saves are atomic
/// (write-to-temp, then rename), so a crash mid-save never destroys the
/// previous generation.
pub struct CheckpointStore {
    dir: PathBuf,
    saves: u32,
    /// Corrupt the nth save (1-based) after writing it — faultsim's
    /// `ckptcorrupt:` injection, used to exercise the fallback path.
    corrupt_nth: Option<u32>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "checkpoint durability quarantine: atomic save/rotate/load is filesystem \
              code by design; the engine hands the store plain bytes (DESIGN.md §14)"
)]
impl CheckpointStore {
    const LATEST: &'static str = "batch.ckpt";
    const PREV: &'static str = "batch.ckpt.prev";
    const TMP: &'static str = "batch.ckpt.tmp";

    pub fn new(dir: impl Into<PathBuf>) -> CheckpointStore {
        CheckpointStore { dir: dir.into(), saves: 0, corrupt_nth: None }
    }

    /// Arm `ckptcorrupt:` injection: the `nth` save (counting from 1) is
    /// flipped after landing, as if the write tore.
    pub fn corrupt_nth_save(mut self, nth: u32) -> CheckpointStore {
        self.corrupt_nth = Some(nth);
        self
    }

    /// Persist a checkpoint, rotating the previous latest into `.prev`.
    pub fn save(&mut self, ckpt: &BatchCheckpoint) -> Result<PathBuf, StoreError> {
        std::fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(Self::TMP);
        let latest = self.dir.join(Self::LATEST);
        let prev = self.dir.join(Self::PREV);
        std::fs::write(&tmp, ckpt.encode())?;
        if latest.exists() {
            std::fs::rename(&latest, &prev)?;
        }
        std::fs::rename(&tmp, &latest)?;
        self.saves += 1;
        if self.corrupt_nth == Some(self.saves) {
            let mut bytes = std::fs::read(&latest)?;
            if let Some(b) = bytes.get_mut(PAYLOAD_OFFSET) {
                *b ^= 0xFF;
            }
            std::fs::write(&latest, bytes)?;
        }
        Ok(latest)
    }

    /// Load a single checkpoint file with no fallback (the `--resume
    /// <file>` path).
    pub fn load_file(path: &Path) -> Result<BatchCheckpoint, StoreError> {
        let bytes = std::fs::read(path)?;
        BatchCheckpoint::decode(&bytes).map_err(StoreError::Decode)
    }

    /// Load the newest usable checkpoint in `dir`. Returns the image and
    /// whether the latest was corrupt and recovery fell back to `.prev`.
    pub fn load_latest(dir: &Path) -> Result<(BatchCheckpoint, bool), StoreError> {
        let latest = dir.join(Self::LATEST);
        let prev = dir.join(Self::PREV);
        if !latest.exists() && !prev.exists() {
            return Err(StoreError::Missing(dir.to_path_buf()));
        }
        let latest_err = if latest.exists() {
            let bytes = std::fs::read(&latest)?;
            match BatchCheckpoint::decode(&bytes) {
                Ok(ckpt) => return Ok((ckpt, false)),
                Err(e) => Some(e),
            }
        } else {
            None
        };
        if prev.exists() {
            let bytes = std::fs::read(&prev)?;
            match BatchCheckpoint::decode(&bytes) {
                Ok(ckpt) => return Ok((ckpt, true)),
                Err(prev_err) => match latest_err {
                    Some(latest) => {
                        return Err(StoreError::BothCorrupt { latest, previous: prev_err })
                    }
                    None => return Err(StoreError::Decode(prev_err)),
                },
            }
        }
        // INVARIANT: latest existed (the double-missing case returned
        // above) and failed to decode, and there is no fallback.
        match latest_err {
            Some(e) => Err(StoreError::Decode(e)),
            None => Err(StoreError::Missing(dir.to_path_buf())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::heavy_light_mix;
    use crate::sim::{resume_batch, run_batch, run_batch_checkpointed, run_batch_until};

    fn cfg() -> BatchConfig {
        BatchConfig { discipline: Discipline::Easy, ..BatchConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("batchsim-ckpt-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn encode_decode_round_trips_byte_exactly() {
        let stream = heavy_light_mix(7, 24);
        let ckpt = run_batch_until(&stream, &cfg(), None, 12).expect("stream outlives the cut");
        let bytes = ckpt.encode();
        let back = BatchCheckpoint::decode(&bytes).expect("decodes");
        assert_eq!(back.encode(), bytes, "decode → encode is the identity");
        assert!(ckpt.events_len() >= 12);
        assert!(back.captured_at() >= SimTime::ZERO);
    }

    #[test]
    fn decode_rejects_a_flipped_payload_byte() {
        let stream = heavy_light_mix(7, 12);
        let ckpt = run_batch_until(&stream, &cfg(), None, 4).expect("cut exists");
        let mut bytes = ckpt.encode();
        bytes[PAYLOAD_OFFSET] ^= 0xFF;
        assert!(matches!(
            BatchCheckpoint::decode(&bytes),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
    }

    /// Garbage never panics the decoder: every truncation and every
    /// single-bit flip of a valid image is an `Err`, and a well-framed
    /// image of another layout version gets the typed version error.
    #[test]
    fn decode_rejects_truncations_bit_flips_and_old_versions() {
        let stream = heavy_light_mix(7, 8);
        let bytes = run_batch_until(&stream, &cfg(), None, 6).expect("cut exists").encode();
        for len in 0..bytes.len() {
            assert!(BatchCheckpoint::decode(&bytes[..len]).is_err(), "truncated to {len}");
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(BatchCheckpoint::decode(&flipped).is_err(), "bit {bit} flipped");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for old in [4u32, 6] {
            let mut payload = bytes[PAYLOAD_OFFSET..].to_vec();
            payload[..4].copy_from_slice(&old.to_le_bytes());
            let mut w = SnapshotWriter::new();
            for b in payload {
                w.put_u8(b);
            }
            assert!(
                matches!(
                    BatchCheckpoint::decode(&w.finish()),
                    Err(SnapshotError::Malformed("unsupported batch checkpoint version"))
                ),
                "version {old}"
            );
        }
    }

    /// A checksummed image whose fields contradict each other is a typed
    /// decode error, never a panic in the resumed engine.
    #[test]
    fn decode_rejects_checksummed_but_inconsistent_images() {
        let stream = heavy_light_mix(7, 24);
        let fault =
            BatchFault { node: 1, after_completions: 30, max_retries: 1, restart_secs: 1.0 };
        let ckpt = (1..200)
            .filter_map(|cut| run_batch_until(&stream, &cfg(), Some(&fault), cut))
            .find(|c| !c.running.is_empty() && !c.queue.is_empty() && c.fault_armed.is_some())
            .expect("a cut with running and queued jobs and an armed fault");
        assert!(BatchCheckpoint::decode(&ckpt.encode()).is_ok(), "the unedited image is valid");
        let (id, node) = (ckpt.running[0].0, ckpt.running[0].1[0]);
        let queued = ckpt.queue[0];
        type Edit<'a> = &'a dyn Fn(&mut BatchCheckpoint);
        let edits: [(&str, Edit); 11] = [
            ("segment on node 99", &|c| c.running[0].1 = vec![99]),
            ("segment repeats a node", &|c| c.running[0].1 = vec![node; 2]),
            ("segment on a free node", &|c| c.fleet_busy[node] = false),
            ("short busy image", &|c| c.fleet_busy.truncate(1)),
            ("short up image", &|c| c.fleet_up.truncate(1)),
            ("num_nodes grown", &|c| c.cfg.num_nodes += 1),
            ("running job untracked", &|c| c.trackers.retain(|&k, _| k != id)),
            ("queued job untracked", &|c| c.trackers.retain(|&k, _| k != queued)),
            ("fault on node 99", &|c| c.fault_armed.iter_mut().for_each(|f| f.node = 99)),
            ("no ranks", &|c| c.trackers.values_mut().for_each(|t| t.remaining.rank_loads.clear())),
            ("load 0", &|c| c.trackers.values_mut().for_each(|t| t.job.spec.rank_loads[0] = 0.0)),
        ];
        for (what, edit) in &edits {
            let mut bad = ckpt.clone();
            edit(&mut bad);
            assert!(
                matches!(BatchCheckpoint::decode(&bad.encode()), Err(SnapshotError::Malformed(_))),
                "{what}: decoded without complaint"
            );
        }
    }

    #[test]
    fn resume_is_byte_identical_including_metrics() {
        let stream = heavy_light_mix(11, 30);
        let cfg = cfg();
        let fault =
            BatchFault { node: 1, after_completions: 3, max_retries: 2, restart_secs: 5.0 };
        let full = run_batch(&stream, &cfg, Some(&fault));
        for cut in [1, 7, 25, 60] {
            let Some(ckpt) = run_batch_until(&stream, &cfg, Some(&fault), cut) else {
                continue;
            };
            let ckpt = BatchCheckpoint::decode(&ckpt.encode()).expect("round trip");
            let resumed = resume_batch(&ckpt);
            assert_eq!(resumed.render_trace(), full.render_trace(), "cut at {cut} events");
            assert_eq!(resumed.metrics, full.metrics, "metrics restored, cut at {cut}");
            assert_eq!(resumed.makespan.to_bits(), full.makespan.to_bits());
            assert_eq!(resumed.jobs.len(), full.jobs.len());
        }
    }

    /// `Policy("static")` shares its label with the builtin `Static`
    /// regime; a resumed run must come back on the zoo policy it was cut
    /// under, not on pinned-priority CFS.
    #[test]
    fn resume_under_the_static_policy_is_byte_identical() {
        let stream = heavy_light_mix(2008, 30);
        let cfg =
            BatchConfig { sched: crate::LocalSched::Policy("static"), ..BatchConfig::default() };
        let full = run_batch(&stream, &cfg, None);
        let ckpt = run_batch_until(&stream, &cfg, None, 5).expect("cut exists");
        let ckpt = BatchCheckpoint::decode(&ckpt.encode()).expect("round trip");
        let resumed = resume_batch(&ckpt);
        assert_eq!(resumed.render_trace(), full.render_trace());
        assert_eq!(resumed.metrics, full.metrics);
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_feeds_the_sink() {
        let stream = heavy_light_mix(5, 16);
        let cfg = cfg();
        let full = run_batch(&stream, &cfg, None);
        let mut cuts: Vec<usize> = Vec::new();
        let policy = CheckpointPolicy { every_events: Some(8), every_jobs: None };
        let out = run_batch_checkpointed(&stream, &cfg, None, &policy, |c| {
            cuts.push(c.events_len());
        });
        assert_eq!(out.render_trace(), full.render_trace());
        assert!(!cuts.is_empty(), "cadence of 8 events must fire on this stream");
        assert!(cuts.windows(2).all(|w| w[0] < w[1]), "cuts advance monotonically");
    }

    #[test]
    fn store_rotates_and_falls_back_when_latest_is_corrupt() {
        let dir = tmpdir("fallback");
        let stream = heavy_light_mix(9, 20);
        let first = run_batch_until(&stream, &cfg(), None, 5).expect("cut exists");
        let second = run_batch_until(&stream, &cfg(), None, 15).expect("cut exists");
        // Corrupt the *second* save: load_latest must fall back to the first.
        let mut store = CheckpointStore::new(&dir).corrupt_nth_save(2);
        store.save(&first).expect("save 1");
        store.save(&second).expect("save 2");
        let (loaded, fell_back) = CheckpointStore::load_latest(&dir).expect("fallback works");
        assert!(fell_back, "latest is corrupt, so recovery used .prev");
        assert_eq!(loaded.encode(), first.encode());
        // The fallback image still resumes to the uninterrupted trace.
        let full = run_batch(&stream, &cfg(), None);
        assert_eq!(resume_batch(&loaded).render_trace(), full.render_trace());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_load_reports_typed_errors() {
        let dir = tmpdir("errors");
        assert!(matches!(CheckpointStore::load_latest(&dir), Err(StoreError::Missing(_))));
        let stream = heavy_light_mix(2, 10);
        let ckpt = run_batch_until(&stream, &cfg(), None, 3).expect("cut exists");
        let mut store = CheckpointStore::new(&dir).corrupt_nth_save(1);
        let path = store.save(&ckpt).expect("save");
        // Only one (corrupt) generation: no fallback is possible.
        assert!(matches!(CheckpointStore::load_latest(&dir), Err(StoreError::Decode(_))));
        assert!(matches!(CheckpointStore::load_file(&path), Err(StoreError::Decode(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
