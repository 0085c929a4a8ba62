//! Lock-cheap metrics for the scheduler kernel and its harnesses.
//!
//! A [`MetricsRegistry`] hands out typed handles — [`Counter`], [`Gauge`],
//! [`HistogramHandle`] — over shared atomic cells: recording a sample is
//! one or two relaxed atomic ops (five for a histogram), cheap enough for
//! most instrumented paths (hardware-priority writes, MPI messages, batch
//! queue events). Registration is idempotent by name, so instrumented
//! components can request the same metric without coordinating, and it
//! allocates nothing per metric: a name may be given as
//! [`format_args!`] and is written straight into the registry.
//!
//! The kernel's hottest paths record into plain memory instead: it tallies
//! ticks and context switches as `u64`s and the per-pick histograms
//! (`kernel.runq_depth`, `kernel.dispatch_latency_ns`) in
//! [`LocalHistogram`]s, and adds them to the registry
//! ([`Counter::add`], [`HistogramHandle::absorb`]) before each public
//! kernel call returns, so a snapshot taken between calls is exact.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are deterministic: metrics are
//! reported sorted by name, so two runs with the same seed produce
//! byte-identical exports. Exporters live in [`export`]: JSON for machine
//! consumption, CSV for time series, and a human-readable summary for the
//! `--telemetry` flag of the experiment binaries.

#![forbid(unsafe_code)]

pub mod export;

use std::fmt::{self, Write as _};
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

/// Counter and gauge cells, shared by the handles a registry gave out.
type Slab = Arc<[AtomicU64]>;

/// Cells in a registry's first slab; each later slab has twice the cells
/// of the one before, so `n` registrations allocate `O(log n)` slabs.
const FIRST_SLAB_CELLS: usize = 32;

fn slab(cells: usize) -> Slab {
    (0..cells).map(|_| AtomicU64::new(0)).collect()
}

/// One atomic cell of a slab.
#[derive(Clone)]
struct Cell {
    slab: Slab,
    index: usize,
}

impl Cell {
    fn atomic(&self) -> &AtomicU64 {
        &self.slab[self.index]
    }
}

/// A detached cell, in a slab of its own.
impl Default for Cell {
    fn default() -> Cell {
        Cell { slab: slab(1), index: 0 }
    }
}

/// Monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Cell,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.cell.atomic().fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.cell.atomic().load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed level (queue depths, priority values).
///
/// The cell holds the level's two's-complement bits, so a wrapping add of
/// the bits is a wrapping add of the level.
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Cell,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.cell.atomic().store(v as u64, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.cell.atomic().fetch_add(delta as u64, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.cell.atomic().load(Ordering::Relaxed) as i64
    }
}

/// Log2-bucketed distribution of `u64` samples with exact count/sum/min/max.
pub struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
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

#[derive(Clone, Default)]
pub struct HistogramHandle {
    core: Arc<HistogramCore>,
}

impl HistogramHandle {
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Add every sample `local` tallied, as if each had been
    /// [`record`](HistogramHandle::record)ed here, and empty it. An empty
    /// `local` leaves the histogram as it was.
    pub fn absorb(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let c = &self.core;
        let mut occupied = local.occupied;
        while occupied != 0 {
            let i = occupied.trailing_zeros() as usize;
            occupied &= occupied - 1;
            c.buckets[i].fetch_add(u64::from(std::mem::take(&mut local.buckets[i])), Ordering::Relaxed);
        }
        c.count.fetch_add(std::mem::take(&mut local.count), Ordering::Relaxed);
        c.sum.fetch_add(std::mem::take(&mut local.sum), Ordering::Relaxed);
        c.min.fetch_min(std::mem::replace(&mut local.min, u64::MAX), Ordering::Relaxed);
        c.max.fetch_max(std::mem::take(&mut local.max), Ordering::Relaxed);
        local.occupied = 0;
    }

    /// Overwrite this histogram from a previously captured [`HistogramStats`]
    /// — the checkpoint-restore path. Buckets absent from `stats` are
    /// cleared; an empty `stats` resets the histogram to its default state.
    pub fn restore(&self, stats: &HistogramStats) {
        let c = &self.core;
        for b in &c.buckets {
            b.store(0, Ordering::Relaxed);
        }
        for &(ub, n) in &stats.buckets {
            c.buckets[bucket_index_of_upper_bound(ub)].store(n, Ordering::Relaxed);
        }
        c.count.store(stats.count, Ordering::Relaxed);
        c.sum.store(stats.sum, Ordering::Relaxed);
        // `stats` reports min as 0 when empty; internally an empty
        // histogram keeps min at u64::MAX so the next sample wins.
        let min = if stats.count == 0 { u64::MAX } else { stats.min };
        c.min.store(min, Ordering::Relaxed);
        c.max.store(stats.max, Ordering::Relaxed);
    }

    pub fn stats(&self) -> HistogramStats {
        let c = &self.core;
        let count = c.count.load(Ordering::Relaxed);
        let buckets: Vec<(u64, u64)> = c
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (bucket_upper_bound(i), n))
            })
            .collect();
        HistogramStats {
            count,
            sum: c.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { c.min.load(Ordering::Relaxed) },
            max: c.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A histogram's samples tallied in plain memory by one owner, for a hot
/// path that records far more often than anyone reads: recording is a
/// few plain adds, and [`HistogramHandle::absorb`] later publishes the
/// tally with the same buckets, count, wrapping sum, min and max that
/// recording each sample through the handle would have left.
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
/// at a time. Only lookups read it: snapshots sort by name.
fn name_hash(name: &str) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = name.as_bytes().chunks_exact(8);
    let mut h = name.len() as u64;
    for chunk in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        h = mix(h, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// A metric name: a string, or [`format_args!`] that writes one. A plain
/// string is copied into the registry as it is; only a name with
/// arguments goes through [`fmt`].
pub trait MetricName: fmt::Display {
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

impl MetricName for fmt::Arguments<'_> {
    fn write_name(&self, out: &mut String) {
        match self.as_str() {
            Some(plain) => out.push_str(plain),
            // Writing into a `String` cannot fail.
            None => {
                let _ = out.write_fmt(*self);
            }
        }
    }
}

impl<T: MetricName + ?Sized> MetricName for &T {
    fn write_name(&self, out: &mut String) {
        (**self).write_name(out);
    }
}

/// What a registered name refers to: a counter's or gauge's cell, by slab
/// and place in it, or a histogram.
enum Metric {
    Counter(Place),
    Gauge(Place),
    Histogram(HistogramHandle),
}

#[derive(Clone, Copy)]
struct Place {
    slab: usize,
    index: usize,
}

/// Registry of named metrics.
///
/// The registry itself takes a mutex only at registration and snapshot
/// time; the handles it returns touch nothing but their own atomics, so
/// hot-path recording never contends on the registry. Cloning shares the
/// underlying store.
///
/// Registering a metric allocates nothing of its own: its name is written
/// into one shared string, a counter or gauge takes the next cell of a
/// shared slab, and an index sorted by a hash of the name finds a name
/// again by binary search over integers. Those four grow geometrically;
/// only a histogram, 69 cells wide, is allocated on its own. A component
/// that registers several metrics does so under one lock
/// ([`MetricsRegistry::register`]). Snapshots sort by name when taken.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    store: Arc<Mutex<Store>>,
}

struct Store {
    /// Every registered name, back to back.
    names: String,
    /// Each metric's name, as a range of `names`, and what it refers to,
    /// in registration order.
    entries: Vec<(Range<usize>, Metric)>,
    /// `(name_hash(name), index into entries)` of every metric, sorted.
    by_hash: Vec<(u64, usize)>,
    /// The counter and gauge cells; each slab has twice the cells of the
    /// one before, and new cells come from the last.
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
            by_hash: Vec::with_capacity(32),
            slabs: Vec::new(),
            taken: 0,
        }
    }
}

impl Store {
    /// The metric called `name`, made by `make` if no metric has that name
    /// yet.
    fn register(&mut self, name: &dyn MetricName, make: fn(&mut Store) -> Metric) -> &Metric {
        let start = self.names.len();
        name.write_name(&mut self.names);
        let new = &self.names[start..];
        let hash = name_hash(new);
        let at = self.by_hash.partition_point(|&(h, _)| h < hash);
        let same = self.by_hash[at..].iter().take_while(|&&(h, _)| h == hash);
        let found = same.map(|&(_, i)| i).find(|&i| self.name(i) == new);
        let entry = match found {
            Some(i) => {
                self.names.truncate(start);
                i
            }
            None => {
                let metric = make(self);
                let i = self.entries.len();
                self.by_hash.insert(at, (hash, i));
                self.entries.push((start..self.names.len(), metric));
                i
            }
        };
        &self.entries[entry].1
    }

    fn name(&self, entry: usize) -> &str {
        &self.names[self.entries[entry].0.clone()]
    }

    /// The next free cell, from a new slab when the last one is full.
    fn place(&mut self) -> Place {
        match self.slabs.last() {
            Some(last) if self.taken < last.len() => {}
            last => {
                let cells = last.map_or(FIRST_SLAB_CELLS, |s| 2 * s.len());
                self.slabs.push(slab(cells));
                self.taken = 0;
            }
        }
        self.taken += 1;
        Place { slab: self.slabs.len() - 1, index: self.taken - 1 }
    }

    fn cell(&self, at: Place) -> Cell {
        Cell { slab: self.slabs[at.slab].clone(), index: at.index }
    }

    fn value(&self, metric: &Metric) -> MetricValue {
        let load = |at: &Place| self.slabs[at.slab][at.index].load(Ordering::Relaxed);
        match metric {
            Metric::Counter(at) => MetricValue::Counter(load(at)),
            Metric::Gauge(at) => MetricValue::Gauge(load(at) as i64),
            Metric::Histogram(h) => MetricValue::Histogram(h.stats()),
        }
    }
}

/// Registers metrics while holding the registry's lock; see
/// [`MetricsRegistry::register`]. Each method registers (or retrieves)
/// one metric and panics if its name is already registered as a
/// different kind. A name is a [`MetricName`]: a string, or
/// [`format_args!`], which builds one without allocating.
pub struct Registrar<'a> {
    store: MutexGuard<'a, Store>,
}

impl Registrar<'_> {
    pub fn counter(&mut self, name: impl MetricName) -> Counter {
        match *self.store.register(&name, |s| Metric::Counter(s.place())) {
            Metric::Counter(at) => Counter { cell: self.store.cell(at) },
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    pub fn gauge(&mut self, name: impl MetricName) -> Gauge {
        match *self.store.register(&name, |s| Metric::Gauge(s.place())) {
            Metric::Gauge(at) => Gauge { cell: self.store.cell(at) },
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    pub fn histogram(&mut self, name: impl MetricName) -> HistogramHandle {
        match self.store.register(&name, |_| Metric::Histogram(HistogramHandle::default())) {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
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
                        r.counter(name).cell.atomic().store(*v, Ordering::Relaxed);
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
                .map(|i| (s.name(i).to_owned(), s.value(&s.entries[i].1)))
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
