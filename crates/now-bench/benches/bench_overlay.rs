//! Criterion benches for OVER (Properties 1–2): Add/Remove maintenance
//! and the spectral audit.
//!
//! Flat-memory core (slab vertices + sorted-vec neighbor sets behind
//! the same `Overlay` API) before → after, measured when it landed
//! at m = 64/512/4096 (ns/op, steady-state add+remove churn): add
//! 8.6/9.2/13.1 µs → 2.7/2.1/3.9 µs, remove 5.2/5.3/6.9 µs →
//! 2.6/2.5/2.8 µs, neighbor iteration 6.3/9.5/14.8 → 1.9/2.8/5.0 ns
//! per neighbor (now a borrowed slice — `op_footprint` and walk hops
//! stopped allocating). The `bench/` probes `over.add_us`,
//! `over.remove_us` and `over.neighbors_ns` track these kernels now.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use now_net::{ClusterId, DetRng};
use now_over::{OverParams, Overlay};
use std::time::Duration;

fn fresh_overlay(m: u64, seed: u64) -> (Overlay, DetRng) {
    let params = OverParams::for_capacity(1 << 14);
    let ids: Vec<ClusterId> = (0..m).map(ClusterId::from_raw).collect();
    let mut rng = DetRng::new(seed);
    let overlay = Overlay::init_random(&ids, params, &mut rng);
    (overlay, rng)
}

fn bench_add_remove(c: &mut Criterion) {
    // Swept across overlay sizes to pin the per-op complexity: before
    // the incremental sampling pool, `add_uniform`/`repair_floor`
    // materialized an O(V) candidate vector per call — `remove` repairs
    // *every* former neighbor, so its per-op cost was O(degree·V) and
    // dominated maintenance. Measured on the 1-vCPU dev container at
    // m = 64/512/4096: remove_with_repair 54 µs/365 µs/2.10 ms before →
    // 3.4 µs/7.5 µs/13.7 µs after; steady-state add+remove churn on one
    // overlay 29/148/1119 µs per op before → 4.3/6.2/9.0 µs after
    // (≈ flat in m). Single-shot add_uniform reads 7/14/37 µs before vs
    // 10/12/52 µs after — the old path's O(V) collect doubled as a
    // cache warm-up for the links that follow, an artifact only a
    // cold-cache single-op harness rewards.
    let mut group = c.benchmark_group("overlay/maintenance");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    for m in [64u64, 512, 4096] {
        group.bench_with_input(BenchmarkId::new("add_uniform", m), &m, |b, &m| {
            b.iter_batched(
                || fresh_overlay(m, 1),
                |(mut overlay, mut rng)| {
                    overlay.add_uniform(ClusterId::from_raw(99_999), &mut rng);
                    overlay
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("remove_with_repair", m), &m, |b, &m| {
            b.iter_batched(
                || fresh_overlay(m, 2),
                |(mut overlay, mut rng)| {
                    overlay.remove(ClusterId::from_raw(7), &mut rng);
                    overlay
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_audit(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay/audit");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for m in [32u64, 128, 512] {
        let (overlay, _) = fresh_overlay(m, 3);
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| overlay.audit())
        });
    }
    group.finish();
}

fn bench_cycles(c: &mut Criterion) {
    // The constant-degree alternative (§3 / X-ALT): maintenance should
    // be O(r) per operation — far below OVER's degree-repair work.
    use now_over::CyclesOverlay;
    let mut group = c.benchmark_group("overlay/cycles");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(3));
    let fresh = |seed: u64| {
        let ids: Vec<ClusterId> = (0..64).map(ClusterId::from_raw).collect();
        let mut rng = DetRng::new(seed);
        let overlay = CyclesOverlay::init(&ids, 2, &mut rng);
        (overlay, rng)
    };
    group.bench_function("insert_r2", |b| {
        b.iter_batched(
            || fresh(5),
            |(mut overlay, mut rng)| {
                overlay.insert(ClusterId::from_raw(9_999), &mut rng);
                overlay
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("remove_r2", |b| {
        b.iter_batched(
            || fresh(6),
            |(mut overlay, _)| {
                overlay.remove(ClusterId::from_raw(7));
                overlay
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_footprints(c: &mut Criterion) {
    // Planning cost of the batch wave scheduler: one footprint per
    // operation (vertex + neighbor list). Must stay O(degree) per op,
    // independent of the overlay size.
    use now_core::{NowParams, NowSystem};
    let mut group = c.benchmark_group("overlay/footprints");
    group
        .sample_size(30)
        .measurement_time(Duration::from_secs(2));
    for clusters in [16usize, 64, 256] {
        let params = NowParams::for_capacity(16).unwrap();
        let sys = NowSystem::init_fast(params, clusters * params.target_cluster_size(), 0.1, 4);
        let ids = sys.cluster_ids();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::from_parameter(clusters), &clusters, |b, _| {
            b.iter(|| {
                i = (i + 1) % ids.len();
                sys.op_footprint(ids[i]).len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_add_remove,
    bench_audit,
    bench_cycles,
    bench_footprints
);
criterion_main!(benches);
