//! Lock-cheap metrics for the scheduler kernel and its harnesses.
//!
//! A [`MetricsRegistry`] hands out typed handles — [`Counter`], [`Gauge`],
//! [`HistogramHandle`] — that are plain `Arc`s over atomics: recording a
//! sample is one or two relaxed atomic ops, cheap enough for kernel hot
//! paths (context switches, run-queue updates, hardware-priority writes).
//! Registration is idempotent by name, so instrumented components can
//! request the same metric without coordinating.
//!
//! Snapshots ([`MetricsRegistry::snapshot`]) are deterministic: metrics are
//! reported sorted by name, so two runs with the same seed produce
//! byte-identical exports. Exporters live in [`export`]: JSON for machine
//! consumption, CSV for time series, and a human-readable summary for the
//! `--telemetry` flag of the experiment binaries.

#![forbid(unsafe_code)]

pub mod export;

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, MutexGuard};

// The registry is one of the purity gate's quarantines (DESIGN.md §13):
// shared state by design, but it only counts. Its atomics and mutex are
// named once, here.
#[expect(clippy::disallowed_types, reason = "monotone metric cells; never read by a decision")]
type AtomicU64 = std::sync::atomic::AtomicU64;
#[expect(clippy::disallowed_types, reason = "last-write-wins gauge cell; never read by a decision")]
type AtomicI64 = std::sync::atomic::AtomicI64;
#[expect(
    clippy::disallowed_types,
    reason = "taken only at registration and snapshot time; snapshots render through a \
              BTreeMap, so their order is the names', not the threads'"
)]
type Mutex<T> = std::sync::Mutex<T>;

/// Number of log2 buckets: bucket `i < 64` counts values `v` with
/// `floor(log2(v)) == i - 1` (bucket 0 is `v == 0`), bucket 64 is `u64::MAX`
/// overflow territory shared with the largest magnitudes.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Monotonically increasing event count.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins signed level (queue depths, priority values).
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
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

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

/// Registry of named metrics.
///
/// The registry itself takes a mutex only at registration and snapshot
/// time; the handles it returns touch nothing but their own atomics, so
/// hot-path recording never contends on the registry. Cloning shares the
/// underlying store.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        // A panic while holding the lock cannot corrupt the BTreeMap in a
        // way we care about (values are handles); recover instead of
        // cascading the poison.
        self.metrics.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Registers (or retrieves) the counter called `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramHandle::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric `{name}` already registered with a different kind"),
        }
    }

    /// Restore registry state from a previously captured snapshot — the
    /// checkpoint-restore path. Each snapshot entry is registered (or
    /// retrieved) under its recorded kind and overwritten with the captured
    /// value, so `registry.restore(&snap); registry.snapshot() == snap`.
    ///
    /// Panics if a name is already registered under a different kind, the
    /// same contract as registration itself.
    pub fn restore(&self, snap: &MetricsSnapshot) {
        for (name, value) in &snap.metrics {
            match value {
                MetricValue::Counter(v) => {
                    let c = self.counter(name);
                    c.value.store(*v, Ordering::Relaxed);
                }
                MetricValue::Gauge(v) => self.gauge(name).set(*v),
                MetricValue::Histogram(h) => self.histogram(name).restore(h),
            }
        }
    }

    /// Deterministic snapshot: metrics sorted by name (the BTreeMap order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.lock();
        MetricsSnapshot {
            metrics: m
                .iter()
                .map(|(name, metric)| {
                    let value = match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.stats()),
                    };
                    (name.clone(), value)
                })
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
