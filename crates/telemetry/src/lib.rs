//! Lock-cheap metrics for the scheduler kernel and its harnesses.
//!
//! A [`MetricsRegistry`] hands out typed handles — [`Counters`] and
//! [`Histograms`] for a block of names, and [`Counter`], [`Gauge`] and
//! [`HistogramHandle`] for one — over shared atomic cells: recording a
//! sample is one or two relaxed atomic ops (five for a histogram), cheap
//! enough for most instrumented paths (hardware-priority writes, MPI
//! messages, batch queue events). Registration is idempotent by name, so
//! instrumented components can request the same metric without
//! coordinating, and it allocates nothing per metric: a name, a string or
//! a tuple of parts ([`MetricName`]), is written straight into the
//! registry, and a block of metrics shares one reference to its cells.
//!
//! The kernel's hottest paths record into plain memory instead: it tallies
//! ticks and context switches as `u64`s and the per-pick histograms
//! (`kernel.runq_depth`, `kernel.dispatch_latency_ns`) in
//! [`LocalHistogram`]s, and adds them to the registry
//! ([`Counters::add`], [`Histograms::absorb`]) before each public kernel
//! call returns, so a snapshot taken between calls is exact.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are deterministic: metrics are
//! reported sorted by name, so two runs with the same seed produce
//! byte-identical exports. Exporters live in [`export`]: JSON for machine
//! consumption, CSV for time series, and a human-readable summary for the
//! `--telemetry` flag of the experiment binaries.

#![forbid(unsafe_code)]

pub mod export;

use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

// The registry is one of the purity gate's quarantines (DESIGN.md §13):
// shared state by design, but it only counts. Its atomics and mutex are
// named once, here.
#[expect(clippy::disallowed_types, reason = "monotone metric cells; never read by a decision")]
type AtomicU64 = std::sync::atomic::AtomicU64;
#[expect(
    clippy::disallowed_types,
    reason = "taken only at registration and snapshot time; a snapshot sorts by name, so its \
              order is the names', not the threads'"
)]
type Mutex<T> = std::sync::Mutex<T>;

/// Number of log2 buckets: bucket `i < 64` counts values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 is `v == 0`), bucket 64 is `u64::MAX`
/// overflow territory shared with the largest magnitudes.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A histogram's cells: its buckets, then its count, sum, min and max.
const HISTOGRAM_CELLS: usize = HISTOGRAM_BUCKETS + 4;
const COUNT: usize = HISTOGRAM_BUCKETS;
const SUM: usize = COUNT + 1;
const MIN: usize = SUM + 1;
const MAX: usize = MIN + 1;

/// Metric cells, shared by the handles a registry gave out.
type Slab = Arc<[AtomicU64]>;

/// Cells in a registry's first slab: room for a node kernel's counters and
/// its two histograms. Each later slab has at least twice the cells of the
/// one before, so `n` registrations allocate `O(log n)` slabs.
const FIRST_SLAB_CELLS: usize = 256;

fn slab(cells: usize) -> Slab {
    (0..cells).map(|_| AtomicU64::new(0)).collect()
}

/// A metric's kind, which fixes how many cells it takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn width(self) -> usize {
        match self {
            Kind::Counter | Kind::Gauge => 1,
            Kind::Histogram => HISTOGRAM_CELLS,
        }
    }
}

/// The cells of a block of metrics of one kind, behind one reference to
/// the slab they are in. Metric `i` of the block is the block's `i`th name.
#[derive(Clone)]
enum Cells {
    /// The `len` metrics lie one after another in one slab from `first`:
    /// a block of names registered for the first time together, or a
    /// single name.
    Run { slab: Slab, first: usize, len: usize },
    /// Where each metric starts: a block that names a metric registered
    /// before, in another block.
    Each(Box<[(Slab, usize)]>),
}

impl Cells {
    /// One metric of `kind` in a slab of its own, in no registry.
    fn detached(kind: Kind) -> Cells {
        let slab = slab(kind.width());
        if kind == Kind::Histogram {
            slab[MIN].store(u64::MAX, Ordering::Relaxed);
        }
        Cells::Run { slab, first: 0, len: 1 }
    }

    /// The `width` cells of metric `i`. Panics if the block has no metric
    /// `i`: the cells after a block's last metric are another block's.
    fn metric(&self, i: usize, width: usize) -> &[AtomicU64] {
        let (slab, first) = match self {
            Cells::Run { slab, first, len } => {
                assert!(i < *len, "metric {i} of a block of {len}");
                (slab, first + i * width)
            }
            Cells::Each(each) => (&each[i].0, each[i].1),
        };
        &slab[first..first + width]
    }
}

/// Counters registered together ([`Registrar::counters`]); counter `i` is
/// the block's `i`th name. They share one slab reference, so a component
/// pays for one however many counters it registers.
#[derive(Clone)]
pub struct Counters {
    cells: Cells,
}

impl Counters {
    pub fn inc(&self, i: usize) {
        self.add(i, 1);
    }

    pub fn add(&self, i: usize, n: u64) {
        self.cell(i).fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self, i: usize) -> u64 {
        self.cell(i).load(Ordering::Relaxed)
    }

    fn cell(&self, i: usize) -> &AtomicU64 {
        &self.cells.metric(i, 1)[0]
    }
}

/// Monotonically increasing event count: a block of one counter.
#[derive(Clone)]
pub struct Counter(Counters);

impl Default for Counter {
    fn default() -> Counter {
        Counter(Counters { cells: Cells::detached(Kind::Counter) })
    }
}

impl Counter {
    pub fn inc(&self) {
        self.0.inc(0);
    }

    pub fn add(&self, n: u64) {
        self.0.add(0, n);
    }

    pub fn get(&self) -> u64 {
        self.0.get(0)
    }
}

/// Last-write-wins signed level (queue depths, priority values).
///
/// The cell holds the level's two's-complement bits, so a wrapping add of
/// the bits is a wrapping add of the level.
#[derive(Clone)]
pub struct Gauge {
    cells: Cells,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge { cells: Cells::detached(Kind::Gauge) }
    }
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.cell().store(v as u64, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.cell().fetch_add(delta as u64, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell().load(Ordering::Relaxed) as i64
    }

    fn cell(&self) -> &AtomicU64 {
        &self.cells.metric(0, 1)[0]
    }
}

/// Bucket index for a sample: 0 for zero, else `1 + floor(log2(v))`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket, for reporting.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Inverse of [`bucket_upper_bound`]: the bucket index a reported upper
/// bound came from. Upper bounds are `2^i - 1`, so `ub + 1` is a power of
/// two whose trailing-zero count recovers `i`.
fn bucket_index_of_upper_bound(ub: u64) -> usize {
    if ub == 0 {
        0
    } else if ub == u64::MAX {
        64
    } else {
        (ub + 1).trailing_zeros() as usize
    }
}

/// Log2-bucketed distributions of `u64` samples with exact
/// count/sum/min/max, registered together ([`Registrar::histograms`]);
/// histogram `i` is the block's `i`th name.
#[derive(Clone)]
pub struct Histograms {
    cells: Cells,
}

impl Histograms {
    fn cells(&self, i: usize) -> &[AtomicU64] {
        self.cells.metric(i, HISTOGRAM_CELLS)
    }

    fn record(&self, i: usize, v: u64) {
        let c = self.cells(i);
        c[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c[COUNT].fetch_add(1, Ordering::Relaxed);
        c[SUM].fetch_add(v, Ordering::Relaxed);
        c[MIN].fetch_min(v, Ordering::Relaxed);
        c[MAX].fetch_max(v, Ordering::Relaxed);
    }

    /// Add every sample `local` tallied to histogram `i`, as if each had
    /// been recorded there one by one, and empty it. An empty
    /// `local` leaves the histogram as it was.
    pub fn absorb(&self, i: usize, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let c = self.cells(i);
        let mut occupied = local.occupied;
        while occupied != 0 {
            let b = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            c[b].fetch_add(u64::from(std::mem::take(&mut local.buckets[b])), Ordering::Relaxed);
        }
        c[COUNT].fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
        c[SUM].fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
        c[MIN].fetch_min(std::mem::replace(&mut local.min, u64::MAX), Ordering::Relaxed);
        c[MAX].fetch_max(std::mem::take(&mut local.max), Ordering::Relaxed);
        local.occupied = 0;
    }

    /// [`HistogramHandle::restore`] for histogram `i`.
    fn restore(&self, i: usize, stats: &HistogramStats) {
        let c = self.cells(i);
        for b in &c[..HISTOGRAM_BUCKETS] {
            b.store(0, Ordering::Relaxed);
        }
        for &(ub, n) in &stats.buckets {
            c[bucket_index_of_upper_bound(ub)].store(n, Ordering::Relaxed);
        }
        c[COUNT].store(stats.count, Ordering::Relaxed);
        c[SUM].store(stats.sum, Ordering::Relaxed);
        // `stats` reports min as 0 when empty; internally an empty
        // histogram keeps min at u64::MAX so the next sample wins.
        let min = if stats.count == 0 { u64::MAX } else { stats.min };
        c[MIN].store(min, Ordering::Relaxed);
        c[MAX].store(stats.max, Ordering::Relaxed);
    }

    pub fn stats(&self, i: usize) -> HistogramStats {
        histogram_stats(self.cells(i))
    }
}

/// The stats of the histogram whose cells are `c`.
fn histogram_stats(c: &[AtomicU64]) -> HistogramStats {
    let count = c[COUNT].load(Ordering::Relaxed);
    let buckets: Vec<(u64, u64)> = c[..HISTOGRAM_BUCKETS]
        .iter()
        .enumerate()
        .filter_map(|(i, b)| {
            let n = b.load(Ordering::Relaxed);
            (n > 0).then(|| (bucket_upper_bound(i), n))
        })
        .collect();
    HistogramStats {
        count,
        sum: c[SUM].load(Ordering::Relaxed),
        min: if count == 0 { 0 } else { c[MIN].load(Ordering::Relaxed) },
        max: c[MAX].load(Ordering::Relaxed),
        buckets,
    }
}

/// One histogram: a block of one.
#[derive(Clone)]
pub struct HistogramHandle(Histograms);

impl Default for HistogramHandle {
    fn default() -> HistogramHandle {
        HistogramHandle(Histograms { cells: Cells::detached(Kind::Histogram) })
    }
}

impl HistogramHandle {
    pub fn record(&self, v: u64) {
        self.0.record(0, v);
    }

    pub fn count(&self) -> u64 {
        self.0.cells(0)[COUNT].load(Ordering::Relaxed)
    }

    /// [`Histograms::absorb`] into this histogram.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        self.0.absorb(0, local);
    }

    /// Overwrite this histogram from a previously captured
    /// [`HistogramStats`] — the checkpoint-restore path. Buckets absent
    /// from `stats` are cleared; an empty `stats` resets the histogram to
    /// its default state.
    pub fn restore(&self, stats: &HistogramStats) {
        self.0.restore(0, stats);
    }

    pub fn stats(&self) -> HistogramStats {
        self.0.stats(0)
    }
}

/// A histogram's samples tallied in plain memory by one owner, for a hot
/// path that records far more often than anyone reads: recording is a
/// few plain adds, and [`Histograms::absorb`] later publishes the tally
/// with the same buckets, count, wrapping sum, min and max that recording
/// each sample through the registry would have left.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    /// `u32` halves the tally, which its owner may carry by value;
    /// [`LocalHistogram::record`] says when a bucket is full.
    buckets: [u32; HISTOGRAM_BUCKETS],
    /// Bit `i` is set when bucket `i` is not zero, so that absorbing a
    /// few samples touches a few buckets, not all of them.
    occupied: u128,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> LocalHistogram {
        LocalHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            occupied: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Tally `v`. Returns `true` when a bucket is full: absorb the tally
    /// before recording into it again.
    #[must_use = "a full tally must be absorbed before the next sample"]
    pub fn record(&mut self, v: u64) -> bool {
        let b = bucket_of(v);
        self.buckets[b] += 1;
        self.occupied |= 1 << b;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[b] == u32::MAX
    }
}

/// Point-in-time view of one histogram.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    /// Occupied buckets only, as `(inclusive upper bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramStats {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Point-in-time value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramStats),
}

/// Deterministic (name-sorted) view of every registered metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Counter value by name; 0 when absent or of another kind.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    pub fn histogram(&self, name: &str) -> Option<&HistogramStats> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Sum of all counters whose name starts with `prefix` — used to roll
    /// up per-CPU or per-heuristic families.
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.metrics
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) if n.starts_with(prefix) => Some(*c),
                _ => None,
            })
            .sum()
    }
}

/// A hash of a metric name, the registry's lookup key, taken eight bytes
/// at a time; the last word overlaps the one before it when the length is
/// not a multiple of eight. Only lookups read it: snapshots sort by name.
fn name_hash(name: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let bytes = name.as_bytes();
    let word = |at: usize| {
        let mut word = [0u8; 8];
        word.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(word)
    };
    let mut h = bytes.len() as u64;
    if bytes.len() < 8 {
        return mix(h, bytes.iter().fold(0, |w, &b| w << 8 | u64::from(b)));
    }
    for at in (0..bytes.len() - 8).step_by(8) {
        h = mix(h, word(at));
    }
    mix(h, word(bytes.len() - 8))
}

/// A metric name: a string, a number, or a tuple of these written one
/// after another, such as `("cpu", 3, ".hw_prio_transitions")` for
/// `cpu3.hw_prio_transitions`. Each is written straight into the
/// registry, without a trip through `fmt`.
pub trait MetricName {
    /// Append the name to `out`.
    fn write_name(&self, out: &mut String);
}

impl MetricName for str {
    fn write_name(&self, out: &mut String) {
        out.push_str(self);
    }
}

impl MetricName for String {
    fn write_name(&self, out: &mut String) {
        out.push_str(self);
    }
}

/// In decimal.
impl MetricName for usize {
    fn write_name(&self, out: &mut String) {
        let mut digits = [0u8; 20];
        let (mut n, mut len) = (*self, 0);
        loop {
            digits[len] = b'0' + (n % 10) as u8;
            (n, len) = (n / 10, len + 1);
            if n == 0 {
                break;
            }
        }
        out.extend(digits[..len].iter().rev().map(|&d| char::from(d)));
    }
}

impl<A: MetricName, B: MetricName> MetricName for (A, B) {
    fn write_name(&self, out: &mut String) {
        self.0.write_name(out);
        self.1.write_name(out);
    }
}

impl<A: MetricName, B: MetricName, C: MetricName> MetricName for (A, B, C) {
    fn write_name(&self, out: &mut String) {
        self.0.write_name(out);
        self.1.write_name(out);
        self.2.write_name(out);
    }
}

impl<T: MetricName + ?Sized> MetricName for &T {
    fn write_name(&self, out: &mut String) {
        (**self).write_name(out);
    }
}

/// Where a metric's cells start: a slab, and a cell in it.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Place {
    slab: usize,
    index: usize,
}

/// One registered metric.
struct Entry {
    /// The metric's name, as a range of [`Store::names`].
    name: Range<usize>,
    hash: u64,
    kind: Kind,
    at: Place,
}

/// Registry of named metrics.
///
/// The registry itself takes a mutex only at registration and snapshot
/// time; the handles it returns touch nothing but their own atomics, so
/// hot-path recording never contends on the registry. Cloning shares the
/// underlying store.
///
/// A component registers its metrics of a kind as one block
/// ([`Registrar::counters`], [`Registrar::histograms`]) under one lock
/// ([`MetricsRegistry::register`]); a single counter, gauge or histogram
/// is the block of one name. Registering allocates nothing of its own: the
/// names are written into one shared string, the metrics take the next
/// cells of a shared slab (a histogram takes 69), and a hash table over
/// the names finds a name again. Those grow geometrically. Metrics
/// registered together for the first time lie one after another in one
/// slab, so their block holds one slab reference. Snapshots sort by name
/// when taken.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    store: Arc<Mutex<Store>>,
}

/// An empty slot of [`Store::slots`].
const EMPTY: usize = usize::MAX;

struct Store {
    /// Every registered name, back to back.
    names: String,
    /// Every metric, in registration order.
    entries: Vec<Entry>,
    /// Open addressing over `entries`: a name's probe starts at the top
    /// bits of its hash and goes on slot by slot. Each slot holds an index
    /// into `entries`, or [`EMPTY`]. A power of two long, and at most half
    /// full.
    slots: Vec<usize>,
    /// The metric cells; new cells come from the last slab.
    slabs: Vec<Slab>,
    /// Cells taken from the last slab.
    taken: usize,
}

impl Default for Store {
    /// Room for a kernel's metrics, so that building one grows nothing.
    fn default() -> Store {
        Store {
            names: String::with_capacity(1024),
            entries: Vec::with_capacity(32),
            slots: vec![EMPTY; 64],
            slabs: Vec::new(),
            taken: 0,
        }
    }
}

impl Store {
    /// Where the metric called `name` starts, made as a new metric of
    /// `kind` if no metric has that name yet. A new metric's cells come
    /// from the last slab if it has `room` cells left (the rest of the
    /// caller's block), else from a new slab.
    ///
    /// Panics if `name` is registered as another kind, leaving the store
    /// as it was.
    fn resolve(&mut self, name: &dyn MetricName, kind: Kind, room: usize) -> Place {
        let start = self.names.len();
        name.write_name(&mut self.names);
        let hash = name_hash(&self.names[start..]);
        match self.find(&self.names[start..], hash) {
            Ok(i) if self.entries[i].kind == kind => {
                self.names.truncate(start);
                self.entries[i].at
            }
            Ok(_) => {
                let name = self.names.split_off(start);
                panic!("metric `{name}` already registered with a different kind")
            }
            Err(slot) => {
                let at = self.take(kind, room);
                self.slots[slot] = self.entries.len();
                self.entries.push(Entry { name: start..self.names.len(), hash, kind, at });
                if 2 * self.entries.len() > self.slots.len() {
                    self.grow();
                }
                at
            }
        }
    }

    /// The entry called `name`, whose hash is `hash`; or, if there is
    /// none, the empty slot where its probe ends.
    fn find(&self, name: &str, hash: u64) -> Result<usize, usize> {
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                i if self.entries[i].hash == hash && self.name(i) == name => return Ok(i),
                _ => slot = (slot + 1) & (self.slots.len() - 1),
            }
        }
    }

    /// The slot where the probe for `hash` starts.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Double the table.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        for i in 0..self.entries.len() {
            let mut slot = self.home(self.entries[i].hash);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (self.slots.len() - 1);
            }
            self.slots[slot] = i;
        }
    }

    fn name(&self, entry: usize) -> &str {
        &self.names[self.entries[entry].name.clone()]
    }

    /// The cells of a new metric of `kind`: the next ones of the last
    /// slab if it has `room` left, else the first of a new slab.
    fn take(&mut self, kind: Kind, room: usize) -> Place {
        let room = room.max(kind.width());
        match self.slabs.last() {
            Some(last) if last.len() - self.taken >= room => {}
            last => {
                let cells = last.map_or(FIRST_SLAB_CELLS, |s| 2 * s.len()).max(room);
                self.slabs.push(slab(cells));
                self.taken = 0;
            }
        }
        let at = Place { slab: self.slabs.len() - 1, index: self.taken };
        self.taken += kind.width();
        if kind == Kind::Histogram {
            self.cells(at, HISTOGRAM_CELLS)[MIN].store(u64::MAX, Ordering::Relaxed);
        }
        at
    }

    fn cells(&self, at: Place, width: usize) -> &[AtomicU64] {
        &self.slabs[at.slab][at.index..at.index + width]
    }

    fn value(&self, entry: &Entry) -> MetricValue {
        let cells = self.cells(entry.at, entry.kind.width());
        match entry.kind {
            Kind::Counter => MetricValue::Counter(cells[0].load(Ordering::Relaxed)),
            Kind::Gauge => MetricValue::Gauge(cells[0].load(Ordering::Relaxed) as i64),
            Kind::Histogram => MetricValue::Histogram(histogram_stats(cells)),
        }
    }
}

/// Registers metrics while holding the registry's lock; see
/// [`MetricsRegistry::register`]. Each method registers (or retrieves) a
/// block of metrics of one kind, and panics if a name is already
/// registered as a different kind. A name is a [`MetricName`]: a string,
/// a number, or a tuple of these, written without allocating.
pub struct Registrar<'a> {
    store: MutexGuard<'a, Store>,
}

impl Registrar<'_> {
    /// The counters called `names`, in order, behind one slab reference.
    pub fn counters<N: MetricName>(&mut self, names: impl IntoIterator<Item = N>) -> Counters {
        Counters { cells: self.block(Kind::Counter, names) }
    }

    /// The histograms called `names`, in order, behind one slab reference.
    pub fn histograms<N: MetricName>(&mut self, names: impl IntoIterator<Item = N>) -> Histograms {
        Histograms { cells: self.block(Kind::Histogram, names) }
    }

    pub fn counter(&mut self, name: impl MetricName) -> Counter {
        Counter(self.counters([name]))
    }

    pub fn gauge(&mut self, name: impl MetricName) -> Gauge {
        Gauge { cells: self.block(Kind::Gauge, [name]) }
    }

    pub fn histogram(&mut self, name: impl MetricName) -> HistogramHandle {
        HistogramHandle(self.histograms([name]))
    }

    /// The one registration path: the metrics of `kind` called `names`.
    /// The names not registered before take cells of one slab, in order,
    /// as far as the iterator's size hint foresees them.
    fn block<N: MetricName>(&mut self, kind: Kind, names: impl IntoIterator<Item = N>) -> Cells {
        let width = kind.width();
        let mut names = names.into_iter();
        let mut first: Option<Place> = None;
        // Empty while the metrics lie one after another from `first`.
        let mut each: Vec<Place> = Vec::new();
        let mut i = 0;
        while let Some(name) = names.next() {
            let room = (names.size_hint().0 + 1) * width;
            let at = self.store.resolve(&name, kind, room);
            let run = |j: usize| first.map(|f| Place { index: f.index + j * width, ..f });
            match run(i) {
                None => first = Some(at),
                Some(next) if each.is_empty() && at == next => {}
                Some(_) => {
                    if each.is_empty() {
                        each.extend((0..i).filter_map(run));
                    }
                    each.push(at);
                }
            }
            i += 1;
        }
        let slabs = &self.store.slabs;
        match first {
            Some(f) if each.is_empty() => {
                Cells::Run { slab: slabs[f.slab].clone(), first: f.index, len: i }
            }
            _ => Cells::Each(each.iter().map(|at| (slabs[at.slab].clone(), at.index)).collect()),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        // The store is consistent whenever a panic can unwind through a
        // registration (the name is matched and the arena truncated
        // first); recover instead of cascading the poison.
        self.store.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Run `f` with a [`Registrar`] that registers metrics under one
    /// acquisition of the registry's lock, for a component that registers
    /// several at once. `f` must not use this registry otherwise: the lock
    /// is held until it returns.
    pub fn register<R>(&self, f: impl FnOnce(&mut Registrar<'_>) -> R) -> R {
        f(&mut Registrar { store: self.lock() })
    }

    /// Registers (or retrieves) the counter called `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: impl MetricName) -> Counter {
        self.register(|r| r.counter(name))
    }

    /// Registers (or retrieves) the gauge called `name`.
    pub fn gauge(&self, name: impl MetricName) -> Gauge {
        self.register(|r| r.gauge(name))
    }

    /// Registers (or retrieves) the histogram called `name`.
    pub fn histogram(&self, name: impl MetricName) -> HistogramHandle {
        self.register(|r| r.histogram(name))
    }

    /// Restore registry state from a previously captured snapshot — the
    /// checkpoint-restore path. Each snapshot entry is registered (or
    /// retrieved) under its recorded kind and overwritten with the captured
    /// value, so `registry.restore(&snap); registry.snapshot() == snap`.
    ///
    /// Panics if a name is already registered under a different kind, the
    /// same contract as registration itself.
    pub fn restore(&self, snap: &MetricsSnapshot) {
        self.register(|r| {
            for (name, value) in &snap.metrics {
                match value {
                    MetricValue::Counter(v) => {
                        r.counter(name).0.cell(0).store(*v, Ordering::Relaxed);
                    }
                    MetricValue::Gauge(v) => r.gauge(name).set(*v),
                    MetricValue::Histogram(h) => r.histogram(name).restore(h),
                }
            }
        });
    }

    /// Deterministic snapshot: metrics sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let s = self.lock();
        // Names are unique, so the order is total.
        let mut by_name: Vec<usize> = (0..s.entries.len()).collect();
        by_name.sort_unstable_by(|&a, &b| s.name(a).cmp(s.name(b)));
        MetricsSnapshot {
            metrics: by_name
                .into_iter()
                .map(|i| (s.name(i).to_owned(), s.value(&s.entries[i])))
                .collect(),
        }
    }
}

/// One row of a metric time series: sample time plus named values.
#[derive(Clone, Debug, PartialEq)]
pub struct TimeSeriesRow {
    /// Sample timestamp in nanoseconds of simulated time.
    pub time_ns: u64,
    pub values: Vec<(String, f64)>,
}

/// Column-aligned time series collected over a run, exported as CSV.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimeSeries {
    pub rows: Vec<TimeSeriesRow>,
}

impl TimeSeries {
    pub fn push(&mut self, time_ns: u64, values: Vec<(String, f64)>) {
        self.rows.push(TimeSeriesRow { time_ns, values });
    }

    /// Union of column names across rows, sorted for stable output.
    pub fn columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self
            .rows
            .iter()
            .flat_map(|r| r.values.iter().map(|(n, _)| n.clone()))
            .collect();
        cols.sort();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_increments_all_land() {
        let registry = MetricsRegistry::new();
        let counter = registry.counter("kernel.test.increments");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = counter.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(counter.get(), 80_000);
        assert_eq!(registry.snapshot().counter("kernel.test.increments"), 80_000);
    }

    #[test]
    fn registration_is_idempotent_by_name() {
        let registry = MetricsRegistry::new();
        registry.counter("a").add(3);
        registry.counter("a").add(4);
        assert_eq!(registry.snapshot().counter("a"), 7);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_is_rejected() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    #[should_panic(expected = "metric 2 of a block of 2")]
    fn a_block_index_past_its_end_is_rejected() {
        let registry = MetricsRegistry::new();
        let block = registry.register(|r| r.counters(["a", "b"]));
        // The next cell of the slab is `c`'s; the block must not reach it.
        let c = registry.counter("c");
        block.inc(1);
        block.inc(2);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let h = HistogramHandle::default();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
            h.record(v);
        }
        let stats = h.stats();
        assert_eq!(stats.count, 7);
        assert_eq!(stats.min, 0);
        assert_eq!(stats.max, 1024);
        // 0 → bucket 0; 1 → bucket 1; 2,3 → bucket 2; 4 → bucket 3;
        // 1023 → bucket 10 (≤1023); 1024 → bucket 11 (≤2047).
        assert_eq!(
            stats.buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 1), (1023, 1), (2047, 1)]
        );
    }

    #[test]
    fn gauge_tracks_level() {
        let g = Gauge::default();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn snapshot_is_name_sorted_and_deterministic() {
        let registry = MetricsRegistry::new();
        registry.counter("z.last").inc();
        registry.counter("a.first").inc();
        registry.gauge("m.middle").set(-1);
        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "m.middle", "z.last"]);
        assert_eq!(registry.snapshot(), registry.snapshot());
    }

    #[test]
    fn histogram_restore_round_trips() {
        let h = HistogramHandle::default();
        for v in [0u64, 1, 7, 1024, u64::MAX] {
            h.record(v);
        }
        let captured = h.stats();
        let fresh = HistogramHandle::default();
        fresh.restore(&captured);
        assert_eq!(fresh.stats(), captured);
        // Restoring over prior contents overwrites them completely.
        let dirty = HistogramHandle::default();
        dirty.record(42);
        dirty.restore(&captured);
        assert_eq!(dirty.stats(), captured);
        // An empty capture resets to the default (next sample sets min).
        let reset = HistogramHandle::default();
        reset.record(9);
        reset.restore(&HistogramStats {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        });
        reset.record(5);
        assert_eq!(reset.stats().min, 5);
    }

    #[test]
    fn absorbing_a_local_tally_equals_recording_each_sample() {
        let samples = [0u64, u64::MAX, 1, 7, u64::MAX - 3, 1024, 0, 5];
        let direct = HistogramHandle::default();
        let absorbed = HistogramHandle::default();
        let mut local = LocalHistogram::default();
        // Both start from samples recorded the ordinary way, so min and max
        // must merge, not overwrite.
        for h in [&direct, &absorbed] {
            h.record(3);
            h.record(90);
        }
        for v in samples {
            direct.record(v);
            assert!(!local.record(v));
        }
        absorbed.absorb(&mut local);
        let stats = direct.stats();
        // Two samples of u64::MAX wrap the sum.
        assert!(stats.sum < u64::MAX / 2, "sum {} did not wrap", stats.sum);
        assert_eq!(absorbed.stats(), stats);
        // The tally is emptied, and an empty absorb is a no-op.
        absorbed.absorb(&mut local);
        assert_eq!(absorbed.stats(), stats);
        // A refilled tally starts from nothing.
        for v in [2u64, 2, 1 << 40] {
            direct.record(v);
            assert!(!local.record(v));
        }
        absorbed.absorb(&mut local);
        assert_eq!(absorbed.stats(), direct.stats());
        // A bucket one sample short of full reports it, and absorbing then
        // carries its whole count.
        local.buckets[bucket_of(6)] = u32::MAX - 1;
        local.occupied |= 1 << bucket_of(6);
        local.count = u64::from(u32::MAX - 1);
        assert!(local.record(6));
        absorbed.absorb(&mut local);
        let bucket = |h: &HistogramHandle| h.stats().buckets.iter().find(|b| b.0 == 7).map(|b| b.1);
        assert_eq!(bucket(&absorbed), Some(u64::from(u32::MAX) + bucket(&direct).unwrap_or(0)));
        assert_eq!(absorbed.stats().count, direct.stats().count + u64::from(u32::MAX));
        let fresh = HistogramHandle::default();
        fresh.absorb(&mut LocalHistogram::default());
        assert_eq!(fresh.stats(), HistogramHandle::default().stats());
        fresh.record(9);
        assert_eq!(fresh.stats().min, 9);
    }

    #[test]
    fn registry_restore_round_trips() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs.completed").add(12);
        registry.gauge("queue.depth").set(-3);
        registry.histogram("wait.us").record(77);
        let snap = registry.snapshot();
        let restored = MetricsRegistry::new();
        restored.restore(&snap);
        assert_eq!(restored.snapshot(), snap);
        // Handles registered after restore keep accumulating on top.
        restored.counter("jobs.completed").inc();
        assert_eq!(restored.snapshot().counter("jobs.completed"), 13);
    }

    #[test]
    fn counter_family_rollup() {
        let registry = MetricsRegistry::new();
        registry.counter("cpu0.transitions").add(2);
        registry.counter("cpu1.transitions").add(3);
        registry.counter("other").add(10);
        assert_eq!(registry.snapshot().counter_family("cpu"), 5);
    }
}
