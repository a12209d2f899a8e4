//! Criterion benches for the NOW maintenance operations (Figure 2) and
//! the shuffle/cascade ablations called out in DESIGN.md.
//!
//! Flat-memory core before → after (measured when it landed, 1-vCPU
//! dev container): batched-step wall clock per op at 64/512/4096 clusters
//! 5.33/23.2/35.8 ms → 4.21/22.7/31.6 ms, with planning still ~95 % of
//! the step (the parallelizable share — see `bench_wave_exec`), and
//! the op-kernel hot leaves (`Cluster::member_at` 364 → 0.7 ns,
//! member/neighbor slices borrow instead of clone).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use now_core::{BatchInput, ExecConfig, NowParams, NowSystem};
use std::time::Duration;

fn base_system(shuffle: bool, cascade: bool) -> NowSystem {
    let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05)
        .unwrap()
        .with_shuffle(shuffle)
        .with_cascade(cascade);
    NowSystem::init_fast(params, 12 * params.target_cluster_size(), 0.10, 7)
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops/join");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("shuffle_on", |b| {
        b.iter_batched(
            || base_system(true, true),
            |mut sys| {
                sys.join(true);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("shuffle_off_ablation", |b| {
        b.iter_batched(
            || base_system(false, true),
            |mut sys| {
                sys.join(true);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_leave(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops/leave");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("cascade_on", |b| {
        b.iter_batched(
            || base_system(true, true),
            |mut sys| {
                let node = sys.node_ids()[0];
                let _ = sys.leave(node);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("cascade_off_ablation", |b| {
        b.iter_batched(
            || base_system(true, false),
            |mut sys| {
                let node = sys.node_ids()[0];
                let _ = sys.leave(node);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_split_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ops/split_merge");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("split", |b| {
        b.iter_batched(
            || {
                let mut sys = base_system(true, true);
                // Inflate cluster 0 past nothing (split() is public and
                // does not require oversize).
                let c0 = sys.cluster_ids()[0];
                let donors: Vec<_> = sys
                    .node_ids()
                    .into_iter()
                    .filter(|&n| sys.node_cluster(n).unwrap() != c0)
                    .take(20)
                    .collect();
                for d in donors {
                    sys.force_move(d, c0).unwrap();
                }
                sys
            },
            |mut sys| {
                let c0 = sys.cluster_ids()[0];
                sys.split(c0);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("merge", |b| {
        b.iter_batched(
            || base_system(true, true),
            |mut sys| {
                let c0 = sys.cluster_ids()[0];
                sys.merge(c0);
                sys
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    // The §2-footnote batch path: one time step absorbing `w`
    // operations through the conflict-free wave scheduler. Wall-clock
    // should scale roughly linearly with the width (same total work as
    // serial plus the footprint planning; the savings are in protocol
    // *rounds*, which X-BATCH measures).
    let mut group = c.benchmark_group("ops/step_batch");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for width in [2usize, 8, 16] {
        group.bench_function(format!("width_{width}"), |b| {
            b.iter_batched(
                || {
                    let sys = base_system(true, true);
                    let leavers: Vec<now_net::NodeId> =
                        sys.node_ids().into_iter().take(width / 2).collect();
                    (sys, leavers)
                },
                |(mut sys, leavers)| {
                    let joins = vec![true; width - leavers.len()];
                    let report = sys.step_batch(
                        &BatchInput::from_flags(&joins, &leavers),
                        &ExecConfig::serial(),
                    );
                    (sys, report.wave_count())
                },
                BatchSize::LargeInput,
            )
        });
    }
    // Sparse-overlay variant: many clusters relative to the overlay
    // degree, so the scheduler actually coalesces operations into wide
    // waves (the regime the X-BATCH experiment sweeps).
    group.bench_function("width_8_sparse_overlay", |b| {
        b.iter_batched(
            || {
                let params = NowParams::for_capacity(16).unwrap();
                let sys = NowSystem::init_fast(params, 48 * params.target_cluster_size(), 0.1, 9);
                let leavers: Vec<now_net::NodeId> = sys.node_ids().into_iter().take(4).collect();
                (sys, leavers)
            },
            |(mut sys, leavers)| {
                let report = sys.step_batch(
                    &BatchInput::from_flags(&[true, true, true, true], &leavers),
                    &ExecConfig::serial(),
                );
                (sys, report.wave_count())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_join,
    bench_leave,
    bench_split_merge,
    bench_batch
);
criterion_main!(benches);
