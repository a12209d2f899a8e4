//! Byte-identity contracts of the observability artifacts (the
//! `now-trace` flight recorder + metrics registry):
//!
//! 1. **Engine/worker-count invariance** — the trace JSON, metrics
//!    JSON, and Prometheus text from a run are byte-identical across
//!    the wave engine's worker counts: pooled executors of 1, 2, 4,
//!    and 8 workers. Every recording site sits on the driving-thread
//!    path, so the artifacts are a pure function of `(seed, config)`,
//!    never of the worker schedule.
//! 2. **Event-engine invariance** — the same holds when operations
//!    travel through the event-driven network (send/deliver/drop
//!    events included).
//! 3. **Serial self-replay** — the serial engine (the wave engine
//!    capped at width 1) replays itself byte-identically; that it
//!    equals the wider engines on singleton partitions is
//!    `proptest_invariants::singleton_partitions_agree_across_engines`.
//! 4. **No run-environment leakage** — no wall-clock or thread-count
//!    vocabulary ever appears in a deterministic artifact.

use now_bft::core::{EventNetConfig, ExecConfig, NowParams, NowSystem, WavePool};
use now_bft::sim::{BatchRandomChurn, BatchRun};
use proptest::prelude::*;

/// Runs a fixed balanced-churn workload with both sinks armed on
/// `exec` (its pool, if any, held by the caller) and returns the three
/// observability artifacts.
fn traced_run(exec: ExecConfig<'_>, seed: u64) -> (String, String, String) {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 200, 0.12, seed);
    sys.enable_tracing(512);
    sys.enable_metrics();
    let mut driver = BatchRandomChurn::balanced(5, 0.12);
    BatchRun::new()
        .exec(exec)
        .run(&mut sys, &mut driver, 10, seed ^ 0x7A0E);
    sys.check_consistency().expect("post-run consistency");
    (
        sys.flight_recorder().expect("tracing armed").to_json(),
        sys.metrics().expect("metrics armed").to_json(),
        sys.metrics().expect("metrics armed").to_prometheus(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The artifacts are byte-identical across every worker count of
    /// the wave engine, for arbitrary seeds.
    #[test]
    fn trace_identical_across_engines(seed in any::<u64>()) {
        let on = |pool: WavePool| traced_run(ExecConfig::pooled(&pool), seed);
        let baseline = on(WavePool::new(1));
        for threads in [2usize, 4, 8] {
            prop_assert_eq!(
                &baseline,
                &on(WavePool::new(threads)),
                "pooled executor with {} workers diverged",
                threads
            );
        }
    }

    /// Worker-count invariance holds through the event-driven network
    /// too, where the trace additionally carries send/deliver/drop
    /// events.
    #[test]
    fn event_traces_are_worker_count_invariant(
        seed in any::<u64>(),
        latency in 1u64..4,
        drop in 0u32..30,
    ) {
        let net = EventNetConfig::ideal()
            .with_latency(latency)
            .with_drop(f64::from(drop) / 100.0);
        let on = |pool: WavePool| traced_run(ExecConfig::event_in(net, &pool), seed);
        let baseline = on(WavePool::new(1));
        for threads in [2usize, 4] {
            prop_assert_eq!(
                &baseline,
                &on(WavePool::new(threads)),
                "event engine with {} workers diverged",
                threads
            );
        }
    }

    /// The serial engine replays itself byte-identically.
    #[test]
    fn serial_traces_self_replay(seed in any::<u64>()) {
        prop_assert_eq!(
            traced_run(ExecConfig::serial(), seed),
            traced_run(ExecConfig::serial(), seed)
        );
    }
}

/// A tiny ring under a real workload: eviction keeps the newest
/// window, sequence numbers stay globally monotone and contiguous.
#[test]
fn ring_eviction_retains_the_newest_window() {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 200, 0.12, 7);
    sys.enable_tracing(16);
    let mut driver = BatchRandomChurn::balanced(6, 0.12);
    let pool = WavePool::new(2);
    BatchRun::new()
        .exec(ExecConfig::pooled(&pool))
        .run(&mut sys, &mut driver, 12, 99);
    let rec = sys.flight_recorder().unwrap();
    assert!(rec.evicted() > 0, "12 churn steps must overflow 16 slots");
    assert_eq!(rec.len(), rec.capacity());
    assert_eq!(rec.recorded(), rec.evicted() + rec.len() as u64);
    let seqs: Vec<u64> = rec.events().map(|e| e.seq).collect();
    assert_eq!(seqs.first().copied(), Some(rec.evicted()));
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "retained sequence numbers must be contiguous"
    );
}

/// Determinism surface gate: the artifacts carry no wall-clock or
/// worker-count vocabulary (mirrors CI's `trace-smoke` grep gate).
#[test]
fn artifacts_never_mention_run_environment() {
    let pool = WavePool::new(4);
    let (trace, metrics, prom) = traced_run(ExecConfig::pooled(&pool), 0xFACE);
    for artifact in [&trace, &metrics, &prom] {
        for banned in ["wall", "nanos", "thread", "Instant"] {
            assert!(
                !artifact.contains(banned),
                "`{banned}` leaked into a deterministic artifact"
            );
        }
    }
    assert!(metrics.contains("now_steps_total"));
    assert!(trace.contains("\"kind\": \"wave\""));
}
