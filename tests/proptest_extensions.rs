//! Property-based invariants for the extension features: parallel
//! batches, exchange caps, the asynchronous net, Ben-Or, the Law–Siu
//! cycles overlay, secure polling, and the SecurityMode threshold
//! lattice.

use now_bft::agreement::{
    check_agreement, check_validity, run_ben_or_with_coin, ByzPlan, CoinMode,
};
use now_bft::apps::poll;
use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem, SecurityMode};
use now_bft::net::{ClusterId, DetRng, EventNet, EventNetConfig, Ledger};
use now_bft::over::CyclesOverlay;
use proptest::prelude::*;
use rand::Rng;
use std::collections::BTreeSet;

fn params() -> NowParams {
    NowParams::new(1 << 10, 2, 1.5, 0.25, 0.05).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A batched step must conserve population exactly: admitted joins
    /// minus completed leaves, whatever the batch composition, with
    /// duplicates and floor rejections accounted.
    #[test]
    fn batches_conserve_population(
        seed in any::<u64>(),
        joins in proptest::collection::vec(any::<bool>(), 0..12),
        leave_picks in proptest::collection::vec(any::<u16>(), 0..12),
    ) {
        let mut sys = NowSystem::init_fast(params(), 140, 0.2, seed);
        let nodes = sys.node_ids();
        let leaves: Vec<_> = leave_picks
            .iter()
            .map(|&p| nodes[p as usize % nodes.len()])
            .collect();
        let before = sys.population() as i64;
        let report = sys.step_batch(&BatchInput::from_flags(&joins, &leaves), &ExecConfig::serial());
        let after = sys.population() as i64;
        prop_assert_eq!(
            after,
            before + report.joined.len() as i64 - report.left.len() as i64
        );
        prop_assert_eq!(report.left.len() + report.rejected.len(), leaves.len());
        prop_assert_eq!(report.joined.len(), joins.len());
        prop_assert!(report.rounds_parallel <= report.cost.rounds);
        // The wave schedule covers exactly the admitted operations and
        // partitions the batch's serial cost.
        prop_assert_eq!(
            report.waves.iter().map(|w| w.ops).sum::<usize>(),
            report.left.len() + report.joined.len()
        );
        prop_assert_eq!(
            report.waves.iter().map(|w| w.rounds_total).sum::<u64>(),
            report.cost.rounds
        );
        prop_assert_eq!(
            report.rounds_parallel,
            report.waves.iter().map(|w| w.rounds_max).sum::<u64>()
        );
        prop_assert!(sys.check_consistency().is_ok());
    }

    /// Admission invariance: for any batch, the conflict-free wave
    /// scheduler and a plain serial replay of the same operations (same
    /// seed) agree on the final population, the Byzantine population,
    /// the completed departures and the admitted node ids. (The plain
    /// calls draw from the system's shared stream, so their costs are
    /// their own; engine-vs-engine byte equality is pinned by
    /// `proptest_invariants::singleton_partitions_agree_across_engines`.)
    #[test]
    fn wave_scheduler_matches_serial_execution(
        seed in any::<u64>(),
        joins in proptest::collection::vec(any::<bool>(), 0..10),
        leave_picks in proptest::collection::vec(any::<u16>(), 0..10),
    ) {
        let mut batched = NowSystem::init_fast(params(), 140, 0.2, seed);
        let mut serial = NowSystem::init_fast(params(), 140, 0.2, seed);
        let nodes = batched.node_ids();
        let leaves: Vec<_> = leave_picks
            .iter()
            .map(|&p| nodes[p as usize % nodes.len()])
            .collect();

        let report = batched.step_batch(&BatchInput::from_flags(&joins, &leaves), &ExecConfig::scheduled());
        let mut serial_joined = Vec::new();
        let mut serial_left = 0usize;
        for &n in &leaves {
            if serial.leave(n).is_ok() {
                serial_left += 1;
            }
        }
        for &honest in &joins {
            serial_joined.push(serial.join(honest));
        }

        prop_assert_eq!(batched.population(), serial.population());
        prop_assert_eq!(batched.byz_population(), serial.byz_population());
        prop_assert_eq!(report.left.len(), serial_left);
        prop_assert_eq!(report.joined, serial_joined);
        prop_assert_eq!(batched.node_ids(), serial.node_ids());
        prop_assert!(batched.check_consistency().is_ok());
        prop_assert!(serial.check_consistency().is_ok());
    }

    /// Any exchange cap (including 0-equivalent and over-size caps)
    /// keeps the partition a permutation of the population.
    #[test]
    fn capped_exchange_is_still_a_permutation(
        seed in any::<u64>(),
        cap in 0usize..40,
    ) {
        let p = params().with_exchange_cap(Some(cap));
        let mut sys = NowSystem::init_fast(p, 150, 0.25, seed);
        let all_before: BTreeSet<_> = sys.node_ids().into_iter().collect();
        let sizes_before: Vec<usize> = sys.clusters().map(|c| c.size()).collect();
        let target = sys.cluster_ids()[seed as usize % sys.cluster_count()];
        sys.exchange_all(target, seed.is_multiple_of(2));
        let all_after: BTreeSet<_> = sys.node_ids().into_iter().collect();
        let sizes_after: Vec<usize> = sys.clusters().map(|c| c.size()).collect();
        prop_assert_eq!(all_before, all_after);
        prop_assert_eq!(sizes_before, sizes_after);
        prop_assert!(sys.check_consistency().is_ok());
    }

    /// The async net delivers every accepted message exactly once, in
    /// non-decreasing virtual time, within the delay bound.
    #[test]
    fn async_net_delivers_exactly_once(
        seed in any::<u64>(),
        sends in proptest::collection::vec((0usize..6, 0usize..6, any::<u8>()), 1..50),
        max_delay in 1u64..30,
    ) {
        let mut rng = DetRng::new(seed);
        let mut net: EventNet<u8> = EventNet::new(6, EventNetConfig::ideal(), 0);
        for &(from, to, payload) in &sends {
            net.send_after(from, to, payload, rng.gen_range(1..=max_delay));
        }
        // All ports alive: every send is accepted (self-sends included).
        let expected = sends.len() as u64;
        prop_assert_eq!(net.messages_sent(), expected);
        let mut last = 0u64;
        let mut delivered = 0u64;
        while let Some((t, _env)) = net.pop() {
            prop_assert!(t >= last, "time went backwards");
            prop_assert!(t <= (sends.len() as u64) * max_delay + max_delay);
            last = t;
            delivered += 1;
        }
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(net.in_flight(), 0);
    }

    /// Ben-Or satisfies agreement and validity for every input vector,
    /// Byzantine subset within resilience, plan, and coin mode.
    #[test]
    fn ben_or_agreement_and_validity_always(
        seed in any::<u64>(),
        inputs in proptest::collection::vec(0u64..2, 6..12),
        byz_pick in any::<usize>(),
        plan_pick in 0usize..4,
        common in any::<bool>(),
    ) {
        let n = inputs.len();
        let f = (n - 1) / 5;
        let byz: BTreeSet<usize> = if f == 0 {
            BTreeSet::new()
        } else {
            (0..f).map(|i| (byz_pick + i * 3) % n).collect()
        };
        let f = byz.len();
        let plan = match plan_pick {
            0 => ByzPlan::Silent,
            1 => ByzPlan::ConstantValue(0),
            2 => ByzPlan::Equivocate(0, 1),
            _ => ByzPlan::Random,
        };
        let coin = if common {
            CoinMode::Common { seed: seed ^ 0xC0FFEE }
        } else {
            CoinMode::Local
        };
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        let report = run_ben_or_with_coin(
            n, &inputs, &byz, f, plan, coin, 15, 600, &mut ledger, &mut rng,
        );
        prop_assert!(report.all_decided, "stalled: {plan:?} {coin:?}");
        prop_assert!(check_agreement(&report.result));
        prop_assert!(check_validity(&inputs, &byz, &report.result));
    }

    /// The cycles overlay keeps every cycle a closed tour and the union
    /// degree within 2r under arbitrary insert/remove scripts.
    #[test]
    fn cycles_overlay_survives_any_script(
        seed in any::<u64>(),
        r in 1usize..4,
        script in proptest::collection::vec((any::<bool>(), any::<u16>()), 1..60),
    ) {
        let mut rng = DetRng::new(seed);
        let ids: Vec<ClusterId> = (0..10).map(ClusterId::from_raw).collect();
        let mut overlay = CyclesOverlay::init(&ids, r, &mut rng);
        let mut next = 100u64;
        for (insert, pick) in script {
            if insert {
                overlay.insert(ClusterId::from_raw(next), &mut rng);
                next += 1;
            } else if overlay.vertex_count() > 1 {
                let live: Vec<ClusterId> = overlay.vertices().collect();
                overlay.remove(live[pick as usize % live.len()]);
            }
            prop_assert!(overlay.check_invariants().is_ok(),
                         "{:?}", overlay.check_invariants());
            for v in overlay.vertices() {
                prop_assert!(overlay.degree(v) <= 2 * r);
            }
        }
    }

    /// Polls count every ballot exactly once and the adversary's
    /// distortion never exceeds its ballot count — from any root, at
    /// any corruption level, for either bloc direction.
    #[test]
    fn poll_accounting_is_exact(
        seed in any::<u64>(),
        tau in 0.0f64..0.32,
        bloc in any::<bool>(),
        root_pick in any::<usize>(),
    ) {
        let mut sys = NowSystem::init_fast(params(), 160, tau, seed);
        let ids = sys.cluster_ids();
        let root = ids[root_pick % ids.len()];
        let report = poll(&mut sys, root, |n| n.raw() % 3 != 0, bloc);
        prop_assert_eq!(report.yes + report.no, sys.population());
        prop_assert_eq!(
            report.honest_yes + report.honest_no,
            sys.population() - sys.byz_population()
        );
        prop_assert!(report.distortion() <= sys.byz_population());
        prop_assert!(report.complete);
    }

    /// Threshold lattice: plain-mode security implies authenticated-mode
    /// security (1/3 < 1/2), and the invariants are monotone in honesty.
    #[test]
    fn security_mode_lattice(byz in 0usize..60, size in 1usize..60) {
        prop_assume!(byz <= size);
        let honest = size - byz;
        if SecurityMode::Plain.rand_num_secure(byz, size) {
            prop_assert!(SecurityMode::Authenticated.rand_num_secure(byz, size));
        }
        if SecurityMode::Plain.invariant_holds(honest, size) {
            prop_assert!(SecurityMode::Authenticated.invariant_holds(honest, size));
        }
        // Monotonicity: adding an honest member never breaks either.
        for mode in [SecurityMode::Plain, SecurityMode::Authenticated] {
            if mode.invariant_holds(honest, size) {
                prop_assert!(mode.invariant_holds(honest + 1, size + 1));
            }
        }
    }
}
