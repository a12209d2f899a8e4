//! Criterion benches for the `randCl` biased CTRW (§3.1) across
//! overlay sizes and walk-length factors.
//!
//! Before / after the O(1)-hop change (direct cluster-slot maps in
//! registry and overlay, no per-walk facts cache, constant-time ledger
//! adds and a one-call `randNum` leaf span), per walk on the 2-vCPU
//! reference box; the same seeds walk the same hops on both sides:
//!
//! | case              | before   | after    |
//! |-------------------|----------|----------|
//! | `clusters/8`      | 1.35 µs  | 0.61 µs  |
//! | `clusters/16`     | 3.72 µs  | 1.22 µs  |
//! | `clusters/32`     | 6.85 µs  | 2.02 µs  |
//! | `walk_factor/0.5` | 2.17 µs  | 1.00 µs  |
//! | `walk_factor/1`   | 3.92 µs  | 1.74 µs  |
//! | `walk_factor/2`   | 7.00 µs  | 2.59 µs  |
//!
//! Per hop, on the 128-cluster `steady_serial` state of `bench/`
//! (`rand_cl.ns_per_hop`, 70.2 hops per walk): 182 → 52 ns.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use now_core::{NowParams, NowSystem};
use std::time::Duration;

fn bench_randcl_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("randcl/clusters");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for clusters in [8usize, 16, 32] {
        let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05).unwrap();
        let n0 = clusters * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 11);
        let start = sys.cluster_ids()[0];
        group.bench_with_input(BenchmarkId::from_parameter(clusters), &clusters, |b, _| {
            b.iter(|| sys.rand_cl_from(start))
        });
    }
    group.finish();
}

fn bench_randcl_walk_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("randcl/walk_factor");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for factor in [0.5f64, 1.0, 2.0] {
        let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05)
            .unwrap()
            .with_walk_length_factor(factor);
        let n0 = 16 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 12);
        let start = sys.cluster_ids()[0];
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{factor}")),
            &factor,
            |b, _| b.iter(|| sys.rand_cl_from(start)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_randcl_scaling, bench_randcl_walk_factor);
criterion_main!(benches);
