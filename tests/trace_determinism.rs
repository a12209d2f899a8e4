//! Byte-identity contracts of the observability artifacts (the
//! `now-trace` flight recorder + metrics registry):
//!
//! 1. **Self-replay** — both engines, the event engine included (whose
//!    traces additionally carry send/deliver/drop events), replay
//!    themselves byte-identically: the artifacts are a pure function of
//!    `(seed, config)`. That a fork of a run traces what the run does is
//!    the engine-diff oracle's (`tests/oracle`).
//! 2. **No run-environment leakage** — no wall-clock or thread-count
//!    vocabulary ever appears in a deterministic artifact.

use now_bft::core::{EventNetConfig, ExecConfig, NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun};
use proptest::prelude::*;

/// Runs a fixed balanced-churn workload with both sinks armed on
/// `exec`; the ring holds every event of the run.
fn traced_system(exec: ExecConfig<'_>, seed: u64) -> NowSystem {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 200, 0.12, seed);
    sys.enable_tracing(1 << 12);
    sys.enable_metrics();
    let mut driver = BatchRandomChurn::balanced(5, 0.12);
    BatchRun::new()
        .exec(exec)
        .run(&mut sys, &mut driver, 10, seed ^ 0x7A0E);
    sys.check_consistency().expect("post-run consistency");
    sys
}

/// The three observability artifacts of [`traced_system`].
fn traced_run(exec: ExecConfig<'_>, seed: u64) -> (String, String, String) {
    let sys = traced_system(exec, seed);
    (
        sys.flight_recorder().expect("tracing armed").to_json(),
        sys.metrics().expect("metrics armed").to_json(),
        sys.metrics().expect("metrics armed").to_prometheus(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The event engine's artifacts, network events included, replay
    /// byte-identically.
    #[test]
    fn event_traces_self_replay(
        seed in any::<u64>(),
        latency in 1u64..4,
        drop in 0u32..30,
    ) {
        let net = EventNetConfig::ideal()
            .with_latency(latency)
            .with_drop(f64::from(drop) / 100.0);
        prop_assert_eq!(
            traced_run(ExecConfig::event(net), seed),
            traced_run(ExecConfig::event(net), seed)
        );
    }

    /// The canonical engine replays itself byte-identically.
    #[test]
    fn canonical_traces_self_replay(seed in any::<u64>()) {
        prop_assert_eq!(
            traced_run(ExecConfig::Canonical, seed),
            traced_run(ExecConfig::Canonical, seed)
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
    BatchRun::new().run(&mut sys, &mut driver, 12, 99);
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
/// thread vocabulary (mirrors CI's `trace-smoke` grep gate).
#[test]
fn artifacts_never_mention_run_environment() {
    let (trace, metrics, prom) = traced_run(ExecConfig::Canonical, 0xFACE);
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
