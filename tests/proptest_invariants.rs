//! Property-based end-to-end invariants: arbitrary operation scripts
//! must never break the partition, the registry, the overlay, or the
//! ledger.

use now_bft::adversary::{
    BatchBurstChurn, BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing,
    BatchSplitForcing, ClusterPick, OnePerStep,
};
use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_bft::net::{Cost, CostKind, CostStats, Ledger, NodeId};
use now_bft::sim::{BatchRandomChurn, BatchSawtooth};
use proptest::prelude::*;

mod oracle;

fn params() -> NowParams {
    NowParams::new(1 << 10, 2, 1.5, 0.25, 0.05).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Generated campaigns of every style and knob agree on every engine
    /// leg of the oracle, each consistent and inside the size band.
    #[test]
    fn generated_campaigns_agree_across_engines(seed in any::<u64>()) {
        oracle::check_campaign(&oracle::campaign(seed, oracle::STYLES))?;
    }

    /// Generated campaigns of the adversarial styles only, at every
    /// target policy, width and driver τ.
    #[test]
    fn attack_drivers_agree_across_engines(seed in any::<u64>()) {
        oracle::check_campaign(&oracle::campaign(seed, oracle::ATTACKS))?;
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

    /// Multi-step raw batches — duplicate and departed leave ids,
    /// steered contacts that may have dissolved — on sparse overlays
    /// too, where waves widen: a fork taken between any two steps ends
    /// where the unforked run does, and every leg and the plain one-op
    /// replay admit the same operations.
    #[test]
    fn multi_step_batches_agree_across_legs(
        seed in any::<u64>(),
        sparse in any::<bool>(),
        batches in oracle::batches(2..5, 6),
    ) {
        // Capacity 16: overlay degree 5 over 64 clusters, so waves widen.
        let sparse_params = NowParams::new(16, 2, 1.5, 0.25, 0.05).unwrap();
        let (params, n0) = if sparse { (sparse_params, 512) } else { (params(), 140) };
        let shape = oracle::Shape(params, n0, 0.15, seed);
        oracle::check_script(&shape, &oracle::Body::Batches(batches))?;
    }

    /// One trajectory per seed: one-op drivers run singleton waves, and
    /// `canonical`, its fork and `event(ideal)` end equal. Every driver
    /// style runs one op per step, its batches up to four wide spread
    /// over several steps.
    #[test]
    fn singleton_partitions_agree_across_engines(
        seed in any::<u64>(),
        kind in 0usize..7,
        width in 1usize..=4,
    ) {
        let driver = move |_: &NowSystem| -> Box<dyn BatchDriver> {
            let (first, tau) = (ClusterPick::First, 0.20);
            match kind {
                0 => Box::new(OnePerStep::new(BatchJoinLeave::new(width, tau).with_pick(first))),
                1 => Box::new(OnePerStep::new(BatchForcedLeave::new(width, tau).with_pick(first))),
                2 => Box::new(OnePerStep::new(BatchSplitForcing::new(width, tau).with_pick(first))),
                3 => Box::new(OnePerStep::new(BatchMergeForcing::new(width, tau).with_pick(first))),
                4 => Box::new(OnePerStep::new(BatchBurstChurn::new(width, tau))),
                5 => Box::new(OnePerStep::new(BatchRandomChurn::balanced(width, tau))),
                _ => Box::new(OnePerStep::new(BatchSawtooth::new(130, 170, width, tau))),
            }
        };
        let shape = oracle::Shape(params(), 150, 0.15, seed);
        let singleton = oracle::check_script(&shape, &oracle::Body::Driver(Box::new(driver), 24))?;
        prop_assert!(singleton, "one-op steps are singleton waves");
    }

    /// Exchanges are swaps, so only a departure changes a cluster's
    /// size: in a leave-only batch — on an overlay sparse enough for
    /// wide waves, whose cascades shuffle many of the same nodes — that
    /// ran no split and no merge, the cluster sizes move by exactly the
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

        let report = sys.step_batch(&BatchInput::from_flags(&[], &leaves), &ExecConfig::Canonical);
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
        self.end_as(1)
    }

    /// Closes the innermost span as `n` spans over its one cost.
    fn end_as(&mut self, n: u64) -> Cost {
        let (kind, cost) = self.stack.pop().expect("script ends open spans only");
        self.fold(kind, n, cost, cost);
        cost
    }

    /// `count` leaves side by side: their messages reach every open
    /// span, their rounds none.
    fn concurrent_leaves(&mut self, kind: CostKind, count: u64, sum: Cost, peak: Cost) {
        self.add(Cost { rounds: 0, ..sum });
        self.fold(kind, count, sum, peak);
    }

    fn fold(&mut self, kind: CostKind, n: u64, sum: Cost, peak: Cost) {
        let stats = self.stats.entry(kind).or_default();
        stats.count += n;
        stats.total_messages += sum.messages;
        stats.total_rounds += sum.rounds;
        stats.max_messages = stats.max_messages.max(peak.messages);
        stats.max_rounds = stats.max_rounds.max(peak.rounds);
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
        // `b % 4` leaves side by side (none: no cost), each of at most
        // `a` messages and 2 rounds.
        5 => {
            let count = u64::from(b % 4);
            let peak = Cost {
                messages: if count == 0 { 0 } else { cost.messages },
                rounds: 2.min(count),
            };
            let sum = Cost {
                messages: count * peak.messages,
                rounds: count * peak.rounds,
            };
            ledger.concurrent_leaves(kind, count, sum, peak);
            eager.concurrent_leaves(kind, count, sum, peak);
        }
        // A shared close of `b % 4 + 1` spans.
        6 => {
            if !eager.stack.is_empty() {
                let n = u64::from(b % 4) + 1;
                prop_assert_eq!(ledger.end_as(n), eager.end_as(n), "end_as({}) of a span", n);
            }
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
    /// begin / add / leaf / concurrent-leaves / end / shared-end scripts
    /// leave the `Ledger` equal to the eager reference on `total()`,
    /// every `stats(kind)` and every `end()` and `end_as()` return value.
    #[test]
    fn ledger_equals_eager_reference(
        script in proptest::collection::vec((0u8..10, any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
    ) {
        let mut ledger = Ledger::new();
        let mut eager = EagerLedger::default();
        for call in script {
            ledger_step(&mut ledger, &mut eager, call)?;
        }
        while !eager.stack.is_empty() {
            prop_assert_eq!(ledger.end(), eager.end());
        }
        prop_assert!(ledger.is_balanced());
        assert_ledgers_equal(&ledger, &eager)?;
    }
}
