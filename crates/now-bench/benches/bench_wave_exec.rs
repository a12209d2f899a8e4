//! Criterion sweep of the pooled wave executor: the same wide,
//! footprint-disjoint batch executed at 1/2/4/8 worker threads, plus
//! the pool's dispatch overhead on narrow waves against inline
//! planning.
//!
//! The acceptance target for the executor is *measured* wall-clock
//! speedup on wide disjoint batches — the regime the §2-footnote
//! schedule promises concurrency for — at 4 threads over the 1-thread
//! run of the identical (bit-equal) work. The wide group builds the
//! widest wave the overlay admits: one departure per greedily chosen
//! cluster with pairwise-disjoint footprints on a sparse capacity-16
//! overlay of 256 clusters, which schedules as a **single ~30-op wave**
//! whose planning (walks + exchange draws, ≈85 % of the step's wall
//! clock) fans out across the workers. The narrow-dense group is the
//! control: width-≤2 batches on a dense overlay serialize almost fully,
//! so its 1-vs-4 gap measures the pool's per-wave dispatch overhead
//! (the pool is built once per thread count, outside the timed
//! closure).
//!
//! **Host parallelism caveat**: the speedup is bounded by the
//! machine's usable cores. On a single-CPU host (e.g. a 1-vCPU CI
//! container — check `nproc`) every thread count measures ≈ 1.0×
//! by physics; the executor's cross-thread *determinism* is what CI
//! asserts there, and the speedup target is meaningful on ≥ 4 usable
//! cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use now_core::{BatchInput, ExecConfig, NowParams, NowSystem, WavePool};
use now_net::{ClusterId, NodeId};
use std::collections::BTreeSet;
use std::time::Duration;

/// Sparse overlay: capacity 16 ⇒ target degree 5, spread over many
/// more clusters than the degree can entangle.
fn sparse_system(clusters: usize, seed: u64) -> NowSystem {
    let params = NowParams::for_capacity(16).unwrap();
    let n0 = clusters * params.target_cluster_size();
    NowSystem::init_fast(params, n0, 0.1, seed)
}

/// One departure per cluster of a greedily built pairwise-disjoint
/// footprint family — the widest conflict-free wave this overlay
/// admits (the scheduler provably keeps these in one wave).
fn disjoint_leaves(sys: &NowSystem, want: usize) -> Vec<NodeId> {
    let mut covered: BTreeSet<ClusterId> = BTreeSet::new();
    let mut picked = Vec::new();
    for c in sys.cluster_ids() {
        let fp = sys.op_footprint(c);
        if fp.iter().any(|x| covered.contains(x)) {
            continue;
        }
        covered.extend(fp);
        picked.push(sys.cluster(c).unwrap().member_at(0));
        if picked.len() == want {
            break;
        }
    }
    picked
}

fn bench_wide_disjoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("wave_exec/wide_disjoint");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pool = WavePool::new(threads);
                b.iter_batched(
                    || {
                        let sys = sparse_system(256, 7);
                        let leaves = disjoint_leaves(&sys, 40);
                        assert!(leaves.len() >= 24, "overlay too dense for the bench");
                        (sys, leaves)
                    },
                    |(mut sys, leaves)| {
                        let n = leaves.len();
                        let report = sys.step_batch(
                            &BatchInput::from_flags(&[], &leaves),
                            &ExecConfig::pooled(&pool),
                        );
                        assert_eq!(report.max_wave_width(), n, "one wide wave");
                        report.rounds_parallel
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_narrow_dense(c: &mut Criterion) {
    let mut group = c.benchmark_group("wave_exec/narrow_dense");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                let pool = WavePool::new(threads);
                b.iter_batched(
                    || {
                        let params = NowParams::for_capacity(1 << 10).unwrap();
                        let sys = NowSystem::init_fast(params, 200, 0.1, 9);
                        let leaves: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
                        (sys, leaves)
                    },
                    |(mut sys, leaves)| {
                        // Dense overlay: every footprint spans the whole
                        // graph, so the batch fully serializes.
                        sys.step_batch(
                            &BatchInput::from_flags(&[true], &leaves),
                            &ExecConfig::pooled(&pool),
                        )
                        .rounds_parallel
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

/// The pool's worst regime: conflict-heavy batches whose waves are
/// **narrow but ≥ 2 wide**, so every wave pays a dispatch to the
/// workers for little planning to share. A moderately sparse
/// 32-cluster overlay with wide mixed batches schedules each step into
/// many small waves; ten steps back-to-back approximate a run, with
/// one run-scoped pool (4 spawns for the whole run, pinned by
/// `tests/pool_spawn_accounting.rs`). `serial-1` is the same run on a
/// single-worker pool, which plans inline. Outcomes of both are
/// bit-identical to sequential planning (asserted below and gated in
/// CI).
fn bench_pooled_narrow_waves(c: &mut Criterion) {
    let mut group = c.benchmark_group("wave_exec/pool_narrow");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    const STEPS: usize = 10;
    const THREADS: usize = 4;
    let setup = || sparse_system(32, 13);
    let batch = |sys: &NowSystem, step: usize| {
        let joins = vec![now_core::JoinSpec::uniform(true); 6];
        let leaves: Vec<NodeId> = sys
            .node_ids()
            .into_iter()
            .step_by(7 + step)
            .take(10)
            .collect();
        (joins, leaves)
    };
    group.bench_function("pooled-4", |b| {
        // The pool is run-scoped: created once per measured run, its
        // spawn cost amortized over every step — the deployment shape
        // `now-sim`/`now-campaign` use.
        b.iter_batched(
            setup,
            |mut sys| {
                let pool = WavePool::new(THREADS);
                let mut waves = 0usize;
                for step in 0..STEPS {
                    let (joins, leaves) = batch(&sys, step);
                    let report = sys.step_batch(
                        &BatchInput::from_specs(&joins, &leaves),
                        &ExecConfig::pooled(&pool),
                    );
                    waves += report.wave_count();
                }
                assert!(waves > STEPS, "the workload must schedule many waves");
                (sys, waves)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.bench_function("serial-1", |b| {
        b.iter_batched(
            setup,
            |mut sys| {
                let pool = WavePool::new(1);
                for step in 0..STEPS {
                    let (joins, leaves) = batch(&sys, step);
                    sys.step_batch(
                        &BatchInput::from_specs(&joins, &leaves),
                        &ExecConfig::pooled(&pool),
                    );
                }
                sys
            },
            criterion::BatchSize::LargeInput,
        );
    });
    group.finish();

    // Bit-equality sanity of the compared engines (outside timing).
    let mut a = setup();
    let mut b = setup();
    let pool = WavePool::new(THREADS);
    for step in 0..STEPS {
        let (joins, leaves) = batch(&a, step);
        let ra = a.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::pooled(&pool),
        );
        let (joins, leaves) = batch(&b, step);
        let rb = b.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::scheduled(),
        );
        assert_eq!(ra.joined, rb.joined);
        assert_eq!(ra.cost, rb.cost);
        assert_eq!(ra.waves, rb.waves);
    }
}

criterion_group!(
    benches,
    bench_wide_disjoint,
    bench_narrow_dense,
    bench_pooled_narrow_waves
);
criterion_main!(benches);
