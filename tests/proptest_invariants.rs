//! Property-based end-to-end invariants: arbitrary operation scripts
//! must never break the partition, the registry, the overlay, or the
//! ledger.

use now_bft::adversary::{
    BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchSplitForcing, BurstChurn, ClusterPick,
    ForcedLeaveAttack, JoinLeaveAttack, MergeForcing, SplitForcing,
};
use now_bft::core::{BatchInput, ExecConfig, JoinSpec, NowParams, NowSystem, WavePool};
use now_bft::net::{Cost, CostKind, CostStats, DetRng, Ledger, NodeId};
use now_bft::sim::{BatchRandomChurn, BatchRun};
use proptest::prelude::*;

fn params() -> NowParams {
    NowParams::new(1 << 10, 2, 1.5, 0.25, 0.05).unwrap()
}

/// Builds one of the three batched attack drivers (the ROADMAP's
/// "batched adversarial drivers" gap) from proptest-chosen knobs.
fn attack_driver(kind: usize, pick: usize, width: usize, tau: f64) -> Box<dyn BatchDriver> {
    let pick = [
        ClusterPick::First,
        ClusterPick::Largest,
        ClusterPick::Smallest,
    ][pick % 3];
    match kind % 3 {
        0 => Box::new(BatchJoinLeave::new(width, tau).with_pick(pick)),
        1 => Box::new(BatchForcedLeave::new(width, tau).with_pick(pick)),
        _ => Box::new(BatchSplitForcing::new(width, tau).with_pick(pick)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of joins (honest or Byzantine, arbitrary contact
    /// choice) and leaves (arbitrary victim) preserves full structural
    /// consistency and exact population accounting.
    #[test]
    fn arbitrary_churn_scripts_stay_consistent(
        seed in any::<u64>(),
        script in proptest::collection::vec((any::<bool>(), any::<bool>(), any::<u16>()), 1..40),
    ) {
        let mut sys = NowSystem::init_fast(params(), 120, 0.15, seed);
        let mut expected_pop = 120i64;
        let mut expected_byz = sys.byz_population() as i64;
        for (is_join, honest, pick) in script {
            if is_join {
                let ids = sys.cluster_ids();
                let contact = ids[pick as usize % ids.len()];
                sys.join_via(contact, honest);
                expected_pop += 1;
                if !honest {
                    expected_byz += 1;
                }
            } else {
                let nodes = sys.node_ids();
                let victim = nodes[pick as usize % nodes.len()];
                let was_honest = sys.is_honest(victim).unwrap();
                if sys.leave(victim).is_ok() {
                    expected_pop -= 1;
                    if !was_honest {
                        expected_byz -= 1;
                    }
                }
            }
            prop_assert!(sys.check_consistency().is_ok(),
                         "{:?}", sys.check_consistency());
        }
        prop_assert_eq!(sys.population() as i64, expected_pop);
        prop_assert_eq!(sys.byz_population() as i64, expected_byz);
    }

    /// Cluster sizes stay within the split/merge band after every
    /// operation (single remaining cluster exempt from the lower bound).
    #[test]
    fn size_band_holds_under_random_churn(seed in any::<u64>()) {
        let mut sys = NowSystem::init_fast(params(), 150, 0.1, seed);
        let lo = sys.params().min_cluster_size();
        let hi = sys.params().max_cluster_size();
        for i in 0..30u64 {
            if i % 3 == 0 {
                let nodes = sys.node_ids();
                let victim = nodes[(seed as usize + i as usize) % nodes.len()];
                let _ = sys.leave(victim);
            } else {
                sys.join(i % 5 == 0);
            }
            for c in sys.clusters() {
                prop_assert!(c.size() <= hi, "cluster over band: {}", c.size());
                if sys.cluster_count() > 1 {
                    prop_assert!(c.size() >= lo, "cluster under band: {}", c.size());
                }
            }
        }
    }

    /// The exchange primitive is a permutation of the population: sizes
    /// and the node multiset are preserved no matter which cluster is
    /// shuffled, with or without cascade.
    #[test]
    fn exchange_is_population_permutation(seed in any::<u64>(), cascade in any::<bool>(), idx in 0usize..8) {
        let mut sys = NowSystem::init_fast(params(), 160, 0.2, seed);
        let ids = sys.cluster_ids();
        let c = ids[idx % ids.len()];
        let before: std::collections::BTreeSet<_> = sys.node_ids().into_iter().collect();
        let byz_before = sys.byz_population();
        sys.exchange_all(c, cascade);
        let after: std::collections::BTreeSet<_> = sys.node_ids().into_iter().collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(sys.byz_population(), byz_before);
        prop_assert!(sys.check_consistency().is_ok());
    }

    /// The threaded wave executor's headline contract: for any seed and
    /// any batch shape, serial (1 worker) and threaded (2 and 8 worker)
    /// executions are **bit-equal** on population, admitted ids, ledger
    /// totals and per-kind statistics, and the wave schedule — thread
    /// interleaving is unobservable.
    #[test]
    fn threaded_waves_are_bit_deterministic(
        seed in any::<u64>(),
        joins in proptest::collection::vec(any::<bool>(), 0..8),
        leave_picks in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let run = |threads: usize| {
            let mut sys = NowSystem::init_fast(params(), 140, 0.15, seed);
            let nodes = sys.node_ids();
            // Arbitrary victims; duplicates allowed (the engine must
            // reject them identically at every thread count).
            let leaves: Vec<_> = leave_picks
                .iter()
                .map(|&p| nodes[p as usize % nodes.len()])
                .collect();
            let pool = WavePool::new(threads);
            let report = sys.step_batch(
                &BatchInput::from_flags(&joins, &leaves),
                &ExecConfig::pooled(&pool),
            );
            sys.check_consistency().expect("post-batch consistency");
            (
                (
                    sys.population(),
                    sys.byz_population(),
                    sys.node_ids(),
                    sys.cluster_ids(),
                    sys.op_counts(),
                ),
                (
                    report.joined.clone(),
                    report.left.clone(),
                    report
                        .rejected
                        .iter()
                        .map(|(n, e)| (*n, format!("{e:?}")))
                        .collect::<Vec<_>>(),
                ),
                (report.cost, report.rounds_parallel, report.waves.clone()),
                (
                    sys.ledger().total(),
                    now_bft::net::CostKind::ALL
                        .iter()
                        .map(|&k| sys.ledger().stats(k))
                        .collect::<Vec<_>>(),
                ),
            )
        };
        let serial = run(1);
        prop_assert_eq!(&serial, &run(2), "threads=1 vs threads=2 diverged");
        prop_assert_eq!(&serial, &run(8), "threads=1 vs threads=8 diverged");
    }

    /// The worker-pool contract: **pooled ≡ sequential** on population,
    /// admitted ids, ledger totals and per-kind stats, and the wave
    /// schedule — across threads ∈ {1, 2, 4, 8} *and* across pool
    /// reuse: one run-scoped [`now_bft::core::WavePool`] serves every
    /// step of a multi-step run and must be indistinguishable from
    /// plain sequential planning on the driving thread.
    #[test]
    fn pooled_serial_agree_across_pool_reuse(
        seed in any::<u64>(),
        joins in proptest::collection::vec(any::<bool>(), 1..6),
        leave_picks in proptest::collection::vec(any::<u16>(), 1..6),
        steps in 2usize..5,
    ) {

        #[derive(Clone, Copy)]
        enum Engine {
            Serial,
            Pooled(usize),
        }

        let specs: Vec<JoinSpec> = joins.iter().map(|&h| JoinSpec::uniform(h)).collect();
        let run = |engine: Engine| {
            let mut sys = NowSystem::init_fast(params(), 140, 0.15, seed);
            // One pool for the whole run: reuse across steps is part of
            // the contract under test.
            let pool = match engine {
                Engine::Pooled(t) => Some(WavePool::new(t)),
                Engine::Serial => None,
            };
            let mut per_step = Vec::new();
            for step in 0..steps {
                let nodes = sys.node_ids();
                let leaves: Vec<NodeId> = leave_picks
                    .iter()
                    .map(|&p| nodes[(p as usize + step) % nodes.len()])
                    .collect();
                let input = BatchInput::from_specs(&specs, &leaves);
                let report = match engine {
                    Engine::Serial => sys.step_batch(&input, &ExecConfig::scheduled()),
                    Engine::Pooled(_) => {
                        sys.step_batch(&input, &ExecConfig::pooled(pool.as_ref().unwrap()))
                    }
                };
                per_step.push((
                    report.joined,
                    report.left,
                    report.cost,
                    report.rounds_parallel,
                    report.waves,
                    report.contact_redraws,
                ));
            }
            sys.check_consistency().expect("post-run consistency");
            (
                per_step,
                sys.population(),
                sys.byz_population(),
                sys.node_ids(),
                sys.cluster_ids(),
                sys.ledger().total(),
                now_bft::net::CostKind::ALL
                    .iter()
                    .map(|&k| sys.ledger().stats(k))
                    .collect::<Vec<_>>(),
            )
        };

        let serial = run(Engine::Serial);
        for threads in [1usize, 2, 4, 8] {
            prop_assert_eq!(
                &serial,
                &run(Engine::Pooled(threads)),
                "serial vs pooled({}) diverged",
                threads
            );
        }
    }

    /// The batched attack drivers' engine-agreement contract, for every
    /// driver kind, target policy, width, and seed:
    ///
    /// 1. **batched ≡ plain calls**: replaying a serial run's decided
    ///    batches one operation at a time (`join_via`/`join`/`leave`)
    ///    admits and removes the same nodes — population, Byzantine
    ///    population, admitted ids and node sets agree. (The calls draw
    ///    from the system's shared stream, the engines from per-op
    ///    substreams, so costs and homes differ; engine-vs-engine byte
    ///    equality is `singleton_partitions_agree_across_engines`.)
    /// 2. **threaded(1) ≡ threaded(4)**: the threaded engine is
    ///    bit-identical across thread counts on population, ids, wave
    ///    schedule, and full ledger statistics.
    #[test]
    fn attack_drivers_agree_across_engines(
        seed in any::<u64>(),
        kind in 0usize..3,
        pick in 0usize..3,
        width in 1usize..7,
    ) {
        const STEPS: usize = 5;
        let tau = 0.20;

        // --- serial run, recording each decided batch ---
        let mut sys = NowSystem::init_fast(params(), 150, 0.15, seed);
        let mut driver = attack_driver(kind, pick, width, tau);
        let mut rng = DetRng::new(seed ^ 0xA5A5_5A5A);
        let mut script: Vec<(Vec<JoinSpec>, Vec<NodeId>)> = Vec::new();
        let mut batched_joined = Vec::new();
        for _ in 0..STEPS {
            let (joins, leaves) = driver.decide_batch(&sys, &mut rng);
            script.push((joins.clone(), leaves.clone()));
            let report = sys.step_batch(&BatchInput::from_specs(&joins, &leaves), &ExecConfig::serial());
            batched_joined.extend(report.joined);
        }
        sys.check_consistency().expect("post-batch consistency");
        let batched = (
            sys.population(),
            sys.byz_population(),
            sys.node_ids(),
            batched_joined,
        );

        // --- the same script as plain one-op calls ---
        let mut serial = NowSystem::init_fast(params(), 150, 0.15, seed);
        let mut serial_joined = Vec::new();
        for (joins, leaves) in &script {
            for &node in leaves {
                let _ = serial.leave(node);
            }
            for &spec in joins {
                let id = match spec.contact {
                    Some(c) if serial.cluster(c).is_some() => serial.join_via(c, spec.honest),
                    _ => serial.join(spec.honest),
                };
                serial_joined.push(id);
            }
        }
        serial.check_consistency().expect("post-serial consistency");
        let serial_out = (
            serial.population(),
            serial.byz_population(),
            serial.node_ids(),
            serial_joined,
        );
        prop_assert_eq!(&batched, &serial_out, "serial vs batched diverged");

        // --- threaded engine: bit-identical across thread counts ---
        let threaded = |threads: usize| {
            let mut sys = NowSystem::init_fast(params(), 150, 0.15, seed);
            let mut driver = attack_driver(kind, pick, width, tau);
            let mut rng = DetRng::new(seed ^ 0xA5A5_5A5A);
            let mut waves = Vec::new();
            let pool = WavePool::new(threads);
            for _ in 0..STEPS {
                let (joins, leaves) = driver.decide_batch(&sys, &mut rng);
                let report =
                    sys.step_batch(&BatchInput::from_specs(&joins, &leaves), &ExecConfig::pooled(&pool));
                waves.push(report.waves.clone());
            }
            sys.check_consistency().expect("post-threaded consistency");
            (
                sys.population(),
                sys.byz_population(),
                sys.node_ids(),
                sys.cluster_ids(),
                waves,
                sys.ledger().total(),
                now_bft::net::CostKind::ALL
                    .iter()
                    .map(|&k| sys.ledger().stats(k))
                    .collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(threaded(1), threaded(4), "threads=1 vs threads=4 diverged");
    }

    /// One trajectory per seed: on batch sequences whose footprint
    /// partition is all singletons — every one-op driver, and the
    /// batches of any driver on `params()`'s small overlay, where every
    /// footprint meets every other — `serial`, `scheduled()` and
    /// `pooled` at 1 and 4 workers end byte-identical in node ids and
    /// homes, every ledger kind's statistics, the flight-recorder and
    /// metrics JSON, and the next system draw.
    #[test]
    fn singleton_partitions_agree_across_engines(
        seed in any::<u64>(),
        kind in 0usize..10,
        pick in 0usize..3,
        width in 1usize..5,
    ) {
        const STEPS: u64 = 24;
        let tau = 0.20;
        let run = |exec: ExecConfig<'_>| {
            let mut sys = NowSystem::init_fast(params(), 150, 0.15, seed);
            sys.enable_tracing(1 << 12);
            sys.enable_metrics();
            let target = sys.cluster_ids()[0];
            let mut driver: Box<dyn BatchDriver> = match kind {
                0 => Box::new(JoinLeaveAttack::new(target, tau)),
                1 => Box::new(ForcedLeaveAttack::new(target, tau)),
                2 => Box::new(SplitForcing::new(target, tau)),
                3 => Box::new(MergeForcing::new(target, tau)),
                4 => Box::new(BurstChurn::new(5, tau)),
                5 => Box::new(BatchRandomChurn::balanced(1, tau)),
                6 => Box::new(BatchRandomChurn::balanced(width, tau)),
                _ => attack_driver(kind, pick, width, tau),
            };
            let report = BatchRun::new().exec(exec).run(&mut sys, driver.as_mut(), STEPS, seed);
            sys.check_consistency().expect("post-run consistency");
            let ids = sys.node_ids();
            let homes: Vec<_> = ids.iter().map(|&n| sys.node_cluster(n).unwrap()).collect();
            let stats: Vec<_> = CostKind::ALL.iter().map(|&k| sys.ledger().stats(k)).collect();
            let trace = sys.flight_recorder().expect("tracing armed").to_json();
            let metrics = sys.metrics().expect("metrics armed").to_json();
            let first = sys.cluster_ids()[0];
            let draw = sys.rand_num(first, 1 << 32);
            (report.max_wave_width, ids, homes, stats, trace, metrics, draw)
        };
        let serial = run(ExecConfig::serial());
        prop_assert!(serial.0 <= 1, "serial runs one op per wave");
        let scheduled = run(ExecConfig::scheduled());
        prop_assert_eq!(scheduled.0, serial.0, "the partition is all singletons");
        prop_assert_eq!(&serial, &scheduled, "serial vs scheduled diverged");
        for threads in [1usize, 4] {
            let pool = WavePool::new(threads);
            prop_assert_eq!(
                &serial,
                &run(ExecConfig::pooled(&pool)),
                "serial vs pooled({}) diverged",
                threads
            );
        }
    }

    /// Exchanges are swaps, so only a departure changes a cluster's
    /// size: in a leave-only batch on the wave engine — on an overlay
    /// sparse enough that the cascades of one wave collide — that ran
    /// no split and no merge, the cluster sizes move by exactly the
    /// number of admitted leaves, one cluster down one per leave.
    #[test]
    fn concurrent_leaves_move_sizes_by_departures_only(
        seed in any::<u64>(),
        picks in proptest::collection::vec(any::<u16>(), 2..=8),
    ) {
        // Capacity 16 ⇒ overlay degree 5 over 64 clusters: wide waves;
        // k = 6 ⇒ clusters of 24, so each leave cascades through ≈ 600
        // of the 1536 nodes.
        let sparse = NowParams::new(16, 6, 1.5, 0.25, 0.05).unwrap();
        let mut sys = NowSystem::init_fast(sparse, 64 * sparse.target_cluster_size(), 0.1, seed);
        let nodes = sys.node_ids();
        let leaves: Vec<NodeId> = picks.iter().map(|&p| nodes[p as usize % nodes.len()]).collect();
        let ids = sys.cluster_ids();
        let sizes = |sys: &NowSystem| -> Vec<usize> { sys.clusters().map(|c| c.size()).collect() };
        let before = sizes(&sys);

        let report = sys.step_batch(&BatchInput::from_flags(&[], &leaves), &ExecConfig::scheduled());
        prop_assert!(sys.check_consistency().is_ok(), "{:?}", sys.check_consistency());
        if let (.., 0, 0) = sys.op_counts() {
            prop_assert_eq!(&ids, &sys.cluster_ids(), "no maintenance, same cluster set");
            let moved: usize = before.iter().zip(sizes(&sys)).map(|(&was, is)| was.abs_diff(is)).sum();
            prop_assert_eq!(moved, report.left.len(), "waves: {:?}", report.waves);
        }
    }

    /// Ledger totals are monotone non-decreasing across operations and
    /// spans always balance at operation boundaries.
    #[test]
    fn ledger_monotone_and_balanced(seed in any::<u64>()) {
        let mut sys = NowSystem::init_fast(params(), 130, 0.1, seed);
        let mut last = sys.ledger().total();
        for i in 0..15u64 {
            if i % 2 == 0 {
                sys.join(false);
            } else {
                let nodes = sys.node_ids();
                let _ = sys.leave(nodes[i as usize % nodes.len()]);
            }
            let now = sys.ledger().total();
            prop_assert!(now.messages >= last.messages);
            prop_assert!(now.rounds >= last.rounds);
            prop_assert!(sys.ledger().is_balanced());
            last = now;
        }
    }
}

/// The ledger's previous accounting, kept as the reference the O(1)
/// implementation is checked against: every add is written to every
/// open span, eagerly, and per-kind stats live in a map.
#[derive(Default)]
struct EagerLedger {
    stack: Vec<(CostKind, Cost)>,
    total: Cost,
    stats: std::collections::BTreeMap<CostKind, CostStats>,
}

impl EagerLedger {
    fn begin(&mut self, kind: CostKind) {
        self.stack.push((kind, Cost::ZERO));
    }

    fn add(&mut self, cost: Cost) {
        self.total += cost;
        for (_, open) in &mut self.stack {
            *open += cost;
        }
    }

    fn end(&mut self) -> Cost {
        let (kind, cost) = self.stack.pop().expect("script ends open spans only");
        let stats = self.stats.entry(kind).or_default();
        stats.count += 1;
        stats.total_messages += cost.messages;
        stats.total_rounds += cost.rounds;
        stats.max_messages = stats.max_messages.max(cost.messages);
        stats.max_rounds = stats.max_rounds.max(cost.rounds);
        cost
    }

    fn merge_child(&mut self, child: &EagerLedger) {
        assert!(child.stack.is_empty());
        self.add(child.total);
        for (&kind, theirs) in &child.stats {
            let mine = self.stats.entry(kind).or_default();
            mine.count += theirs.count;
            mine.total_messages += theirs.total_messages;
            mine.total_rounds += theirs.total_rounds;
            mine.max_messages = mine.max_messages.max(theirs.max_messages);
            mine.max_rounds = mine.max_rounds.max(theirs.max_rounds);
        }
    }
}

/// One scripted ledger call, applied to both implementations; the
/// `end()` return values must already agree here.
fn ledger_step(
    ledger: &mut Ledger,
    eager: &mut EagerLedger,
    (op, kind, a, b): (u8, u8, u16, u16),
) -> Result<(), TestCaseError> {
    let kind = CostKind::ALL[kind as usize % CostKind::ALL.len()];
    let cost = Cost {
        messages: a as u64,
        rounds: b as u64,
    };
    match op {
        0 | 1 => {
            ledger.begin(kind);
            eager.begin(kind);
        }
        2 => {
            ledger.add_messages(cost.messages);
            eager.add(Cost { rounds: 0, ..cost });
        }
        3 => {
            ledger.add_rounds(cost.rounds);
            eager.add(Cost {
                messages: 0,
                ..cost
            });
        }
        // The one-call leaf span is `begin`, `add`, `end`.
        4 => {
            ledger.leaf(kind, cost);
            eager.begin(kind);
            eager.add(cost);
            eager.end();
        }
        _ => {
            if !eager.stack.is_empty() {
                prop_assert_eq!(ledger.end(), eager.end(), "end() of a {} span", kind);
            }
        }
    }
    prop_assert_eq!(ledger.open_spans(), eager.stack.len());
    Ok(())
}

fn assert_ledgers_equal(ledger: &Ledger, eager: &EagerLedger) -> Result<(), TestCaseError> {
    prop_assert_eq!(ledger.total(), eager.total);
    for kind in CostKind::ALL {
        let expected = eager.stats.get(&kind).copied().unwrap_or_default();
        prop_assert_eq!(ledger.stats(kind), expected, "stats({})", kind);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Settling inclusive costs at `end()` is unobservable: random
    /// begin / add / leaf / end scripts with child ledgers merged in at
    /// random depths leave the `Ledger` equal to the eager reference on
    /// `total()`, every `stats(kind)` and every `end()` return value.
    #[test]
    fn ledger_equals_eager_reference(
        script in proptest::collection::vec(
            (
                (0u8..8, any::<u8>(), any::<u16>(), any::<u16>()),
                // A child ledger to merge in after the call, sometimes.
                any::<bool>(),
                proptest::collection::vec((0u8..6, any::<u8>(), any::<u16>(), any::<u16>()), 0..12),
            ),
            1..60,
        ),
    ) {
        let mut ledger = Ledger::new();
        let mut eager = EagerLedger::default();
        for (call, merge, child_script) in script {
            ledger_step(&mut ledger, &mut eager, call)?;
            if merge {
                let mut child = Ledger::new();
                let mut eager_child = EagerLedger::default();
                for call in child_script {
                    ledger_step(&mut child, &mut eager_child, call)?;
                }
                while !eager_child.stack.is_empty() {
                    prop_assert_eq!(child.end(), eager_child.end());
                }
                assert_ledgers_equal(&child, &eager_child)?;
                ledger.merge_child(&child);
                eager.merge_child(&eager_child);
            }
        }
        while !eager.stack.is_empty() {
            prop_assert_eq!(ledger.end(), eager.end());
        }
        prop_assert!(ledger.is_balanced());
        assert_ledgers_equal(&ledger, &eager)?;
    }
}
