//! Fleet-scale benchmarks: the EASY reservation index against the linear
//! scan it replaced, and the batch event loop end to end.
//!
//! The old engine recomputed every shadow time by sorting a vector of
//! running-job release times and walking it — O(n log n) per scheduling
//! decision. The `ReleaseIndex` keeps `(end, seq)` in a BTreeSet so one
//! decision walks at most `need` entries of an already-ordered set:
//! O(log n + need). These groups pin the gap at 1k/10k/100k running jobs.

use batchsim::{heavy_light_mix, run_batch, BatchConfig, ReleaseIndex};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simcore::SimTime;

/// Deterministic pseudo-random release set: `n` running jobs with spread
/// end times and gang widths 1..=32.
fn release_set(n: u64) -> Vec<(u64, SimTime, usize)> {
    (0..n)
        .map(|i| {
            let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            (i, SimTime(1_000_000 + h % 10_000_000), 1 + (h % 32) as usize)
        })
        .collect()
}

/// The pre-index shadow computation: sort the release times, walk until
/// enough nodes have freed up. One full sort per scheduling decision.
fn linear_shadow(entries: &[(u64, SimTime, usize)], mut avail: usize, need: usize) -> Option<SimTime> {
    let mut scratch: Vec<(SimTime, u64, usize)> =
        entries.iter().map(|&(seq, end, w)| (end, seq, w)).collect();
    scratch.sort();
    for (end, _, w) in scratch {
        if avail >= need {
            break;
        }
        avail += w;
        if avail >= need {
            return Some(end);
        }
    }
    None
}

fn bench_reservation_index(c: &mut Criterion) {
    for n in [1_000u64, 10_000, 100_000] {
        let entries = release_set(n);
        let name = format!("reservation_{n}");
        let mut g = c.benchmark_group(&name);

        g.bench_function("linear_sort_walk", |b| {
            b.iter(|| black_box(linear_shadow(&entries, 64, 512)))
        });

        let mut index = ReleaseIndex::new();
        for &(seq, end, w) in &entries {
            index.insert(seq, end, w);
        }
        g.bench_function("release_index_shadow", |b| {
            b.iter(|| black_box(index.shadow(64, 512)))
        });

        g.bench_function("release_index_churn", |b| {
            let mut seq = n;
            b.iter(|| {
                // Steady state: one job finishes, one is admitted, one
                // shadow query — the per-decision pattern of the engine.
                index.remove(seq - n);
                let h = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
                index.insert(seq, SimTime(1_000_000 + h % 10_000_000), 1 + (h % 32) as usize);
                seq += 1;
                black_box(index.shadow(64, 512))
            })
        });
        g.finish();
    }
}

fn bench_batch_event_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("batch_event_loop");
    g.sample_size(10);

    let jobs = heavy_light_mix(2008, 200);
    g.bench_function("materialized_200_jobs", |b| {
        b.iter(|| black_box(run_batch(&jobs, &BatchConfig::default(), None)))
    });

    let cfg = batchsim::scaled_config(5_000, 1000, 2008);
    g.bench_function("streaming_5k_jobs_1k_nodes", |b| {
        b.iter(|| black_box(batchsim::run_fleet(&cfg).trace_hash))
    });
    g.finish();
}

criterion_group!(benches, bench_reservation_index, bench_batch_event_loop);
criterion_main!(benches);
