//! Criterion benches for the sharded membership registry: per-operation
//! cost must stay flat (≈ O(log) in the per-shard occupancy) across a
//! population sweep to 10⁶ nodes — the scaling target the sharding
//! exists for. A quadratic (or even linear) blowup in any of these
//! per-op measurements would show up as a 10×/100× spread between the
//! sweep points.
//!
//! Flat-memory core (slab clusters + sorted-vec members + direct-mapped
//! node index) before → after, measured when it landed on the 1-vCPU
//! dev container at 64/512/4096 clusters (ns/op, steady state):
//! attach 82/120/159 → 53/69/101, move 100/133/184 → 52/67/71, detach
//! 72/88/115 → 23/27/20, `node_ids()` 33/35/38 → 5/8/6 per id. The
//! `bench/` probes `registry.{attach,move,detach}_ns` and
//! `registry.node_ids_us` track these kernels now.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use now_core::Registry;
use now_net::{ClusterId, NodeId};
use std::time::Duration;

/// Builds a registry of `population` nodes spread over clusters of ~40
/// (the realistic `k·logN` regime), with every 5th node Byzantine.
fn build(population: u64) -> (Registry, Vec<ClusterId>) {
    let clusters = (population / 40).max(1);
    let mut reg = Registry::new();
    let ids: Vec<ClusterId> = (0..clusters).map(ClusterId::from_raw).collect();
    for &c in &ids {
        reg.create_cluster(c);
    }
    for n in 0..population {
        reg.attach(
            NodeId::from_raw(n),
            n % 5 != 0,
            ids[(n % clusters) as usize],
        );
    }
    (reg, ids)
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry/lookup");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for pop in [10_000u64, 100_000, 1_000_000] {
        let (reg, ids) = build(pop);
        let mut i = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, _| {
            b.iter(|| {
                i = (i + 7919) % pop; // co-prime stride: touch many shards
                let rec = reg.get(NodeId::from_raw(i)).unwrap();
                let stats = reg.cluster_stats(rec.cluster).unwrap();
                (rec.honest, stats.size, stats.honest)
            })
        });
        assert!(!ids.is_empty());
    }
    group.finish();
}

fn bench_move(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry/move");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for pop in [10_000u64, 100_000, 1_000_000] {
        let (mut reg, ids) = build(pop);
        let clusters = ids.len() as u64;
        let mut i = 0u64;
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, _| {
            b.iter(|| {
                i = (i + 7919) % pop;
                let to = ids[((i + 1) % clusters) as usize];
                reg.move_to(NodeId::from_raw(i), to)
            })
        });
    }
    group.finish();
}

fn bench_aggregates(c: &mut Criterion) {
    // population()/byz_population() are O(1) counters; cluster_ids() is
    // a cached slice. These must be population-independent.
    let mut group = c.benchmark_group("registry/aggregates");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for pop in [10_000u64, 1_000_000] {
        let (reg, _) = build(pop);
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, _| {
            b.iter(|| {
                (
                    reg.population(),
                    reg.byz_population(),
                    reg.cluster_count(),
                    reg.cluster_ids().len(),
                )
            })
        });
    }
    group.finish();
}

fn bench_node_ids(c: &mut Criterion) {
    // node_ids() sits on the per-step churn-driver path (leave-target
    // sampling): a k-way merge of the sorted shard streams, so the cost
    // must stay ~linear in n, not n·log n.
    let mut group = c.benchmark_group("registry/node_ids");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for pop in [10_000u64, 100_000, 1_000_000] {
        let (reg, _) = build(pop);
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, _| {
            b.iter(|| reg.node_ids().len())
        });
    }
    group.finish();
}

fn bench_churn_cycle(c: &mut Criterion) {
    // A full attach→move→detach membership cycle at depth: the
    // composite the join/leave/exchange hot paths execute.
    let mut group = c.benchmark_group("registry/churn_cycle");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(3));
    for pop in [10_000u64, 100_000, 1_000_000] {
        let (mut reg, ids) = build(pop);
        let clusters = ids.len() as u64;
        let mut next = pop;
        group.bench_with_input(BenchmarkId::from_parameter(pop), &pop, |b, _| {
            b.iter(|| {
                let node = NodeId::from_raw(next);
                next += 1;
                reg.attach(node, next % 3 != 0, ids[(next % clusters) as usize]);
                reg.move_to(node, ids[((next + 1) % clusters) as usize]);
                reg.detach(node)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lookup,
    bench_move,
    bench_aggregates,
    bench_node_ids,
    bench_churn_cycle
);
criterion_main!(benches);
