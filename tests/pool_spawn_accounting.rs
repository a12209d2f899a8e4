//! Spawn accounting for the persistent wave-worker pool: a pooled run
//! spawns **O(threads) worker threads total**, however many batches and
//! waves it executes — exactly `threads − 1`, since the driving thread
//! is the pool's last planner. The assertions read the process-global spawn counter
//! (`wave_worker_spawn_total`), so this file deliberately contains a
//! **single** test — integration-test binaries run their tests in
//! parallel, and any concurrently spawning test in the same process
//! would race the counter deltas.

use now_bft::core::{
    wave_worker_spawn_total, BatchInput, ExecConfig, JoinSpec, NowParams, NowSystem, WavePool,
};
use now_bft::net::NodeId;

/// Sparse overlay (capacity 16 ⇒ target degree 5) over 64 clusters, so
/// batches schedule genuinely wide waves that engage the workers.
fn sparse_system(seed: u64) -> NowSystem {
    let params = NowParams::for_capacity(16).unwrap();
    let n0 = 64 * params.target_cluster_size();
    NowSystem::init_fast(params, n0, 0.1, seed)
}

fn step_batch(sys: &NowSystem, step: usize) -> (Vec<JoinSpec>, Vec<NodeId>) {
    let joins = vec![
        JoinSpec::uniform(!step.is_multiple_of(3)),
        JoinSpec::uniform(true),
    ];
    let leaves: Vec<NodeId> = sys
        .node_ids()
        .into_iter()
        .step_by(11 + step)
        .take(6)
        .collect();
    (joins, leaves)
}

const STEPS: usize = 10;
const THREADS: usize = 4;

#[test]
fn pool_spawns_o_threads_per_run() {
    // ---- pooled run: exactly THREADS − 1 spawns, all at pool creation ----
    let before = wave_worker_spawn_total();
    let pool = WavePool::new(THREADS);
    assert_eq!(
        wave_worker_spawn_total() - before,
        THREADS as u64 - 1,
        "a pool spawns its workers eagerly, once; the driving thread is the last planner"
    );
    assert_eq!(pool.worker_count(), THREADS - 1);

    let mut sys = sparse_system(5);
    let mut pooled_wide_waves: Vec<usize> = Vec::new();
    for step in 0..STEPS {
        let (joins, leaves) = step_batch(&sys, step);
        let report = sys.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::pooled(&pool),
        );
        pooled_wide_waves.extend(report.waves.iter().filter(|w| w.ops >= 2).map(|w| w.ops));
    }
    sys.check_consistency().unwrap();
    assert!(
        pooled_wide_waves.len() >= 2,
        "the workload must dispatch real multi-op waves, got {pooled_wide_waves:?}"
    );
    assert_eq!(
        wave_worker_spawn_total() - before,
        THREADS as u64 - 1,
        "the pooled run must not spawn beyond its initial workers: \
         O(threads) per run, not O(waves)"
    );
    drop(pool);

    // A single-planner pool plans inline: zero spawns.
    let before = wave_worker_spawn_total();
    let inline_pool = WavePool::new(1);
    let mut sys = sparse_system(5);
    for step in 0..3 {
        let (joins, leaves) = step_batch(&sys, step);
        sys.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::pooled(&inline_pool),
        );
    }
    assert_eq!(
        wave_worker_spawn_total() - before,
        0,
        "threads=1 must not spawn at all"
    );
}
