//! Criterion benches for the `randCl` biased CTRW (§3.1) across
//! overlay sizes and walk-length factors, and for the `DetRng` draw
//! under every hop.
//!
//! Before / after the four-block ChaCha12 refill and the call-free
//! draw path (same stream, so the same seeds walk the same hops on both
//! sides); median of three alternating runs of the two bench
//! executables on the 2-vCPU reference box. Walks are per walk, the
//! `rng` group per draw (each iteration is 4096 draws; divided here):
//!
//! | case                    | before   | after    |
//! |-------------------------|----------|----------|
//! | `clusters/8`            | 0.61 µs  | 0.47 µs  |
//! | `clusters/16`           | 1.24 µs  | 0.94 µs  |
//! | `clusters/32`           | 2.00 µs  | 1.44 µs  |
//! | `walk_factor/0.5`       | 1.12 µs  | 0.58 µs  |
//! | `walk_factor/1`         | 1.39 µs  | 0.99 µs  |
//! | `walk_factor/2`         | 2.40 µs  | 1.70 µs  |
//! | `rng/next_u64`          | 13.4 ns  | 5.5 ns   |
//! | `rng/gen_range_2p24`    | 13.6 ns  | 5.7 ns   |
//! | `rng/for_op_first_draw` | 120 ns   | 200 ns   |
//!
//! `for_op_first_draw` is the one number that gets worse: a fresh
//! substream computes four blocks to hand out its first word (once per
//! batched op, < 0.1 % of one). The walk rows' "before" is the "after"
//! of the O(1)-hop change (direct cluster-slot maps, no per-walk facts
//! cache, constant-time ledger adds), which took `clusters/32` from
//! 6.85 µs to 2.02 µs.
//!
//! Per hop, on the 128-cluster `steady_serial` state of `bench/`
//! (`rand_cl.ns_per_hop`, 70.2 hops per walk): 182 → 52 ns with the
//! O(1)-hop change, 48 → 32 ns with this one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use now_core::{NowParams, NowSystem};
use now_net::DetRng;
use rand::{Rng, RngCore};
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

/// The `randNum` draw under every hop, on its own. The harness times a
/// handful of iterations with one clock pair, so each iteration is a
/// batch of [`RNG_BATCH`] draws (64 refills of the four-block buffer).
fn bench_rng(c: &mut Criterion) {
    const RNG_BATCH: u64 = 4096;
    let mut group = c.benchmark_group("rng/x4096");
    group
        .sample_size(200)
        .measurement_time(Duration::from_secs(3));
    let mut rng = DetRng::new(13);
    group.bench_function("next_u64", |b| {
        b.iter(|| (0..RNG_BATCH).fold(0u64, |sum, _| sum.wrapping_add(rng.next_u64())))
    });
    // The walk's draw: `gen_range` over the 2^24 fixed-point resolution.
    group.bench_function("gen_range_2p24", |b| {
        b.iter(|| (0..RNG_BATCH).fold(0u64, |sum, _| sum + rng.gen_range(0..1u64 << 24)))
    });
    // A fresh per-op substream pays for four blocks to hand out its
    // first word: the one number the four-block refill makes worse.
    let mut op = 0u64;
    group.bench_function("for_op_first_draw", |b| {
        b.iter(|| {
            (0..RNG_BATCH).fold(0u64, |sum, _| {
                op += 1;
                sum.wrapping_add(DetRng::for_op(7, 3, op).next_u64())
            })
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_randcl_scaling,
    bench_randcl_walk_factor,
    bench_rng
);
criterion_main!(benches);
