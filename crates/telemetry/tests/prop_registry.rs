//! Reference-model test of the metrics registry.
//!
//! The registry keeps its names in one shared string, its counter and
//! gauge cells in shared slabs and its lookup index sorted by a hash of
//! the name. A model that keeps every metric in a `BTreeMap` keyed by name
//! must agree with it: random names (sharing prefixes, repeated, in random
//! order) registered as random kinds, one at a time or several under one
//! lock, with a sample recorded through each handle. The snapshot must be
//! the model's, name-sorted; a name registered again must hand out the
//! same cell as the first time; a name registered again as another kind
//! must panic and leave the registry as it was; and restoring a snapshot
//! into a fresh registry must give the same snapshot back.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use telemetry::{
    bucket_upper_bound, Counter, Gauge, HistogramHandle, HistogramStats, MetricValue,
    MetricsRegistry, MetricsSnapshot, Registrar,
};

const PREFIXES: [&str; 7] = [
    "",
    "a",
    "ab",
    "cpu0",
    "cpu1",
    "kernel.",
    "hpc.decisions.uniform",
];
const SUFFIXES: [&str; 6] = [
    "",
    ".ticks",
    ".accepted",
    ".rejected",
    "b",
    ".hw_prio_transitions",
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

const KINDS: [Kind; 3] = [Kind::Counter, Kind::Gauge, Kind::Histogram];

/// A handle the registry gave out.
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(HistogramHandle),
}

/// What the model expects of one metric.
#[derive(Debug)]
enum Model {
    Counter(u64),
    Gauge(i64),
    Histogram(Vec<u64>),
}

impl Model {
    fn kind(&self) -> Kind {
        match self {
            Model::Counter(_) => Kind::Counter,
            Model::Gauge(_) => Kind::Gauge,
            Model::Histogram(_) => Kind::Histogram,
        }
    }
}

fn register(r: &mut Registrar<'_>, name: &str, kind: Kind) -> Handle {
    match kind {
        Kind::Counter => Handle::Counter(r.counter(name)),
        Kind::Gauge => Handle::Gauge(r.gauge(name)),
        Kind::Histogram => Handle::Histogram(r.histogram(format_args!("{name}"))),
    }
}

/// The histogram the model's samples make, computed without the registry.
fn histogram_stats(samples: &[u64]) -> HistogramStats {
    let mut buckets = BTreeMap::new();
    for &v in samples {
        let bucket = if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        };
        *buckets.entry(bucket).or_insert(0) += 1;
    }
    HistogramStats {
        count: samples.len() as u64,
        sum: samples.iter().fold(0u64, |s, &v| s.wrapping_add(v)),
        min: samples.iter().copied().min().unwrap_or(0),
        max: samples.iter().copied().max().unwrap_or(0),
        buckets: buckets
            .into_iter()
            .map(|(b, n)| (bucket_upper_bound(b), n))
            .collect(),
    }
}

fn expected(model: &BTreeMap<String, Model>) -> MetricsSnapshot {
    let value = |m: &Model| match m {
        Model::Counter(v) => MetricValue::Counter(*v),
        Model::Gauge(v) => MetricValue::Gauge(*v),
        Model::Histogram(samples) => MetricValue::Histogram(histogram_stats(samples)),
    };
    MetricsSnapshot {
        metrics: model.iter().map(|(n, m)| (n.clone(), value(m))).collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn registry_agrees_with_a_btreemap_model(
        ops in proptest::collection::vec(
            (
                0usize..PREFIXES.len(),
                0usize..SUFFIXES.len(),
                0usize..3,
                0u64..1 << 40,
                any::<bool>(),
            ),
            0..80,
        ),
    ) {
        check(&ops);
    }
}

/// One registration: a name's prefix and suffix, a kind, a sample to record
/// through the handle, and whether the next one shares its lock.
type Op = (usize, usize, usize, u64, bool);

fn check(ops: &[Op]) {
    let registry = MetricsRegistry::new();
    let mut model: BTreeMap<String, Model> = BTreeMap::new();
    let mut first: BTreeMap<String, Handle> = BTreeMap::new();
    for group in ops.chunk_by(|a, _| a.4) {
        let names: Vec<(String, Kind, u64)> = group
            .iter()
            .map(|&(p, s, k, v, _)| (format!("{}{}", PREFIXES[p], SUFFIXES[s]), KINDS[k], v))
            .collect();
        // Registering a name as another kind must panic: the model
        // knows which registration of the group does.
        let mut kinds: BTreeMap<&str, Kind> = model
            .iter()
            .map(|(name, m)| (name.as_str(), m.kind()))
            .collect();
        let clash = names
            .iter()
            .position(|(name, kind, _)| *kinds.entry(name).or_insert(*kind) != *kind);
        let upto = clash.map_or(names.len(), |i| i + 1);
        let handles = quietly(|| {
            registry.register(|r| {
                names[..upto]
                    .iter()
                    .map(|(name, kind, _)| register(r, name, *kind))
                    .collect::<Vec<_>>()
            })
        });
        let handles = match (handles, clash) {
            (Ok(handles), None) => handles,
            (Err(_), Some(i)) => {
                // The registrations before the clash stand, and the rest
                // of the group never ran; record through fresh handles,
                // as if registered one by one.
                names[..i]
                    .iter()
                    .map(|(name, kind, _)| register_alone(&registry, name, *kind))
                    .collect()
            }
            (Ok(_), Some(i)) => {
                panic!("registering {:?} as another kind did not panic", names[i].0)
            }
            (Err(_), None) => panic!("registration panicked with no kind clash"),
        };
        for ((name, kind, v), handle) in names.iter().zip(handles) {
            let entry = model.entry(name.clone()).or_insert(match kind {
                Kind::Counter => Model::Counter(0),
                Kind::Gauge => Model::Gauge(0),
                Kind::Histogram => Model::Histogram(Vec::new()),
            });
            match (&handle, entry) {
                (Handle::Counter(c), Model::Counter(m)) => {
                    c.add(*v);
                    *m += v;
                }
                (Handle::Gauge(g), Model::Gauge(m)) => {
                    let delta = *v as i64 - (1 << 39);
                    g.add(delta);
                    *m += delta;
                }
                (Handle::Histogram(h), Model::Histogram(m)) => {
                    h.record(*v);
                    m.push(*v);
                }
                _ => unreachable!("the model and the registry disagree on {name}'s kind"),
            }
            first.entry(name.clone()).or_insert(handle);
        }
        // Every handle handed out first still reads the model's value:
        // registering again returned the same cell.
        for (name, handle) in &first {
            let same = match (handle, &model[name]) {
                (Handle::Counter(c), Model::Counter(m)) => c.get() == *m,
                (Handle::Gauge(g), Model::Gauge(m)) => g.get() == *m,
                (Handle::Histogram(h), Model::Histogram(m)) => h.stats() == histogram_stats(m),
                _ => false,
            };
            assert!(same, "{name}'s first handle lost track");
        }
    }
    let snapshot = registry.snapshot();
    assert_eq!(&snapshot, &expected(&model));
    let restored = MetricsRegistry::new();
    restored.restore(&snapshot);
    assert_eq!(restored.snapshot(), snapshot);
}

/// Run `f`, catching a panic without printing it.
fn quietly<R>(f: impl FnOnce() -> R) -> std::thread::Result<R> {
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(report);
    result
}

fn register_alone(registry: &MetricsRegistry, name: &str, kind: Kind) -> Handle {
    match kind {
        Kind::Counter => Handle::Counter(registry.counter(name)),
        Kind::Gauge => Handle::Gauge(registry.gauge(name)),
        Kind::Histogram => Handle::Histogram(registry.histogram(name)),
    }
}
