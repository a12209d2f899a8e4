//! End-to-end contracts of the deterministic event-driven network
//! runtime:
//!
//! 1. **Replay** — a NOW run on the event scheduler
//!    (`ExecConfig::Event`) is byte-identical on every run: every
//!    outcome is a pure function of `(seed, config)`.
//! 2. **Partition heal ⇒ eventual delivery** — every message the
//!    scheduler accepts (not dropped at send time) is eventually
//!    delivered, across a partition that heals mid-run; accepted +
//!    dropped accounts for every send.
//! 3. **Cross-commit replay** — wide batches on lossy and partitioned
//!    nets land on the runs pinned in `pins/pins.txt`.

mod pins;

use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_bft::net::{CostKind, EventNet, EventNetConfig};
use now_bft::sim::{BatchRandomChurn, BatchRun};
use proptest::prelude::*;

/// The pinned networks: lossy and jittered, a partition that heals
/// mid-step, and a permanent partition.
fn wide_nets() -> [EventNetConfig; 3] {
    let ideal = EventNetConfig::ideal();
    [
        ideal.with_latency(2).with_jitter(3).with_drop(0.2),
        ideal.with_jitter(4).with_partition(3).healing_at(3),
        ideal.with_partition(2).with_drop(0.05),
    ]
}

/// Ten steps of eight joins and six spread-out leaves each on `exec`,
/// over 64 clusters of a degree-5 overlay, so footprints leave room
/// for waves of several ops. The event trace is folded into a count
/// and an FNV-1a digest over `(time, op, delivered)`. The pin reads:
/// joined, left, dropped, events, event digest, waves, ledger messages,
/// ledger rounds, population.
fn wide_event_run(exec: &ExecConfig<'_>, seed: u64) -> String {
    let params = NowParams::for_capacity(16).expect("params");
    let mut sys = NowSystem::init_fast(params, 64 * params.target_cluster_size(), 0.1, seed);
    let honesty = [true, true, false, true, true, true, false, true];
    let (mut joined, mut left, mut dropped, mut waves) = (0, 0, 0, 0);
    let (mut events, mut digest) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for step in 0..10usize {
        let ids = sys.node_ids();
        let leaves: Vec<_> = (0..6)
            .map(|i| ids[(step * 7 + i * 37) % ids.len()])
            .collect();
        let report = sys.step_batch(&BatchInput::from_flags(&honesty, &leaves), exec);
        joined += report.joined.len() as u64;
        left += report.left.len() as u64;
        dropped += report.dropped;
        waves += report.waves.len() as u64;
        for e in &report.events {
            events += 1;
            for word in [e.time, e.op, u64::from(e.delivered)] {
                digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    sys.check_consistency().expect("post-run consistency");
    let total = sys.ledger().total();
    pins::value(&[
        joined,
        left,
        dropped,
        events,
        digest,
        waves,
        total.messages,
        total.rounds,
        sys.population(),
    ])
}

#[test]
fn wide_event_batches_replay_the_parent_commit() {
    let mut got = Vec::new();
    for (i, net) in wide_nets().into_iter().enumerate() {
        for seed in 1..=2 {
            let pin = wide_event_run(&ExecConfig::event(net), seed);
            got.push((format!("wide/{i}/{seed}"), pin));
        }
    }
    pins::check("wide/", &got);
}

/// Full deterministic fingerprint of an event-driven NOW run: report
/// aggregates, end state, and ledger statistics.
#[allow(clippy::type_complexity)]
fn event_run(
    net: EventNetConfig,
    seed: u64,
) -> (
    (u64, u64, u64, u64, u64, u64, usize, u64),
    (
        u64,
        u64,
        Vec<now_bft::net::NodeId>,
        Vec<now_bft::net::ClusterId>,
    ),
    Vec<now_bft::net::CostStats>,
) {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 200, 0.12, seed);
    let mut driver = BatchRandomChurn::balanced(5, 0.12);
    let report =
        BatchRun::new()
            .exec(ExecConfig::event(net))
            .run(&mut sys, &mut driver, 12, seed ^ 0xD1CE);
    sys.check_consistency().expect("post-run consistency");
    (
        (
            report.steps,
            report.joins,
            report.leaves,
            report.rejected,
            report.dropped,
            report.waves,
            report.max_wave_width,
            report.rounds_parallel,
        ),
        (
            sys.population(),
            sys.byz_population(),
            sys.node_ids(),
            sys.cluster_ids(),
        ),
        CostKind::ALL
            .iter()
            .map(|&k| sys.ledger().stats(k))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// NOW on the event scheduler replays byte-identically from
    /// `(seed, config)`, for arbitrary seeds and per-link network
    /// models.
    #[test]
    fn event_runs_replay_from_seed_and_net(
        seed in any::<u64>(),
        latency in 1u64..5,
        jitter in 0u64..5,
        drop in 0u32..30,
    ) {
        let net = EventNetConfig::ideal()
            .with_latency(latency)
            .with_jitter(jitter)
            .with_drop(f64::from(drop) / 100.0);
        prop_assert_eq!(event_run(net, seed), event_run(net, seed));
    }

    /// Message conservation at the run-report level: every message an
    /// event run sends is either delivered or dropped (`sent =
    /// delivered + dropped`), and the canonical engine reports zero network
    /// traffic — the counters only ever count the event net.
    #[test]
    fn event_runs_conserve_sent_messages(
        seed in any::<u64>(),
        drop in 0u32..40,
    ) {
        let net = EventNetConfig::ideal()
            .with_latency(2)
            .with_drop(f64::from(drop) / 100.0);

        let params = NowParams::for_capacity(1 << 10).expect("params");
        let mut sys = NowSystem::init_fast(params, 200, 0.12, seed);
        let mut driver = BatchRandomChurn::balanced(5, 0.12);
        let report = BatchRun::new()
            .exec(ExecConfig::event(net))
            .run(&mut sys, &mut driver, 12, seed ^ 0xACC7);
        prop_assert_eq!(report.sent, report.delivered + report.dropped);
        prop_assert!(report.sent > 0, "12 churn steps must send messages");

        let params = NowParams::for_capacity(1 << 10).expect("params");
        let mut sys = NowSystem::init_fast(params, 200, 0.12, seed);
        let mut driver = BatchRandomChurn::balanced(5, 0.12);
        let canonical = BatchRun::new().run(&mut sys, &mut driver, 12, seed ^ 0xACC7);
        prop_assert_eq!(canonical.sent, 0, "the canonical engine never touches the net");
        prop_assert_eq!(canonical.delivered, 0);
    }

    /// Across a partition that heals mid-run, every send the scheduler
    /// accepts is eventually delivered, and accepted + dropped equals
    /// messages sent — nothing is lost silently, nothing arrives twice.
    #[test]
    fn healed_partitions_deliver_every_accepted_message(
        seed in any::<u64>(),
        heal_at in 1u64..20,
        latency in 1u64..6,
        jitter in 0u64..4,
    ) {
        const N: usize = 6;
        const VOLLEYS: u64 = 8;
        let config = EventNetConfig::ideal()
            .with_latency(latency)
            .with_jitter(jitter)
            .with_partition(2)
            .healing_at(heal_at);
        let mut net: EventNet<(usize, u64)> = EventNet::new(N, config, seed);

        // All-to-all volleys straddling the heal: deliveries advance
        // virtual time between volleys, so sends land before, across,
        // and after the partition boundary.
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        let mut received = Vec::new();
        for volley in 0..VOLLEYS {
            for from in 0..N {
                for to in 0..N {
                    if net.send(from, to, (from, volley)).is_none() {
                        accepted += 1;
                    } else {
                        rejected += 1;
                    }
                }
            }
            // Drain half the queue so time advances past the heal.
            for _ in 0..(N * N / 2) {
                match net.pop() {
                    Some((time, env)) => received.push((time, env.from, env.to, env.payload)),
                    None => break,
                }
            }
        }
        while let Some((time, env)) = net.pop() {
            received.push((time, env.from, env.to, env.payload));
        }

        prop_assert_eq!(net.messages_sent(), accepted + rejected);
        prop_assert_eq!(
            received.len() as u64, accepted,
            "every accepted message must eventually be delivered"
        );
        prop_assert_eq!(net.delivered(), accepted);
        prop_assert_eq!(net.dropped(), rejected);
        // Deliveries came out in nondecreasing virtual time.
        prop_assert!(received.windows(2).all(|w| w[0].0 <= w[1].0));
        // Once virtual time guarantees delivery at or after the heal
        // (`now + latency ≥ heal_at` ⇒ every schedule lands healed),
        // cross-group sends go through: this config has no random
        // loss, so nothing else can cut them.
        if net.now() + latency >= heal_at {
            let before = net.dropped();
            for from in 0..N {
                for to in 0..N {
                    prop_assert!(
                        net.send(from, to, (from, u64::MAX)).is_none(),
                        "post-heal send {}→{} was dropped",
                        from,
                        to
                    );
                }
            }
            prop_assert_eq!(net.dropped(), before);
        }
    }
}
