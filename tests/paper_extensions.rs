//! Integration coverage for the paper's stated extensions, wired
//! end-to-end through the facade crate:
//!
//! * §2 footnote — parallel join/leave batches;
//! * §2 relaxation — generalized population band `N^{1/y} ≤ n ≤ N^z`;
//! * Remark 1 — crypto-hardened τ < 1/2 deployments;
//! * §6 future work — sub-quadratic initialization, asynchronous
//!   agreement;
//! * reference [12] — secure polling on the live overlay.

use now_bft::agreement::{run_ben_or, ByzPlan};
use now_bft::apps::poll;
use now_bft::core::init_tree::init_tree_discovered;
use now_bft::core::{NowParams, NowSystem, SecurityMode};
use now_bft::graph::gen;
use now_bft::net::{CostKind, DetRng, Ledger};
use now_bft::sim::{BatchRandomChurn, BatchRun, ViolationKind};
use std::collections::BTreeSet;

#[test]
fn batched_and_serial_runs_preserve_the_same_invariants() {
    let params = NowParams::new(1 << 10, 4, 1.5, 0.30, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 240, 0.1, 71);
    let mut driver = BatchRandomChurn::balanced(6, 0.1);
    let report = BatchRun::new().run(&mut sys, &mut driver, 30, 72);
    assert_eq!(sys.time_step(), 30, "one time step per batch");
    assert!(report.joins + report.leaves > 120, "6-wide × 30 steps");
    assert!(
        report.binding_violations() == 0,
        "batching must not break Theorem 3 at τ = 0.1, k = 4: {:?}",
        report
            .audits
            .iter()
            .find(|a| ViolationKind::ALL.iter().any(|k| k.fails(a)))
    );
    // Six clusters, overlay degree ≥ 5: every footprint overlaps, so the
    // scheduler mostly serializes here — but never does worse than
    // serial, and its schedule covers every admitted operation.
    assert!(report.parallel_speedup() >= 1.0);
    assert!(report.rounds_parallel <= report.rounds_serial);
    assert!(report.waves >= report.steps);
    sys.check_consistency().unwrap();
}

#[test]
fn sparse_overlays_unlock_wave_parallelism() {
    // The scheduling payoff of the §2 footnote needs cluster count ≫
    // overlay degree: capacity 16 gives target degree 5, and 64
    // clusters leave room for disjoint footprints.
    let params = NowParams::for_capacity(16).unwrap();
    let mut sys = NowSystem::init_fast(params, 64 * params.target_cluster_size(), 0.1, 73);
    let mut driver = BatchRandomChurn::balanced(8, 0.1);
    let report = BatchRun::new().run(&mut sys, &mut driver, 10, 74);
    assert!(
        report.parallel_speedup() > 1.2,
        "sparse overlay should coalesce waves: ×{:.2}",
        report.parallel_speedup()
    );
    assert!(report.max_wave_width >= 2, "some wave ran ops concurrently");
    assert!(report.waves < report.joins + report.leaves);
    sys.check_consistency().unwrap();
}

#[test]
fn widened_band_supports_population_beyond_capacity() {
    // z = 1.2: the model ceiling exceeds N itself; the protocol keeps
    // its size band and audits clean while the population crosses N.
    let params = NowParams::new(1 << 8, 3, 1.5, 0.30, 0.05)
        .unwrap()
        .with_population_exponents(2.0, 1.2)
        .unwrap();
    assert_eq!(params.max_population(), 776); // 256^1.2
    let mut sys = NowSystem::init_fast(params, 100, 0.1, 73);
    while sys.population() < 400 {
        sys.try_join(!sys.population().is_multiple_of(10)).unwrap();
    }
    assert!(sys.population() > (1 << 8), "population beyond N");
    let audit = sys.audit();
    assert!(audit.size_bounds_ok);
    assert!(audit.invariant_ok());
    sys.check_consistency().unwrap();
}

#[test]
fn authenticated_deployment_survives_tau_past_one_third() {
    // End-to-end Remark 1: τ = 0.38 churn on an authenticated system.
    // The binding (majority) invariant holds at k = 8 for this seed;
    // the plain 2/3 target fails pervasively, as it must.
    let params = NowParams::new_authenticated(1 << 10, 8, 1.5, 0.38, 0.05).unwrap();
    let n0 = 10 * params.target_cluster_size();
    let mut sys = NowSystem::init_fast(params, n0, 0.38, 74);
    let mut churn = BatchRandomChurn::balanced(1, 0.38);
    let report = BatchRun::new().run(&mut sys, &mut churn, 80, 75);
    assert_eq!(sys.params().security(), SecurityMode::Authenticated);
    assert!(report.count(ViolationKind::NotTwoThirdsHonest) > 50);
    assert!(
        report.count(ViolationKind::NotMajorityHonest) * 4
            < report.count(ViolationKind::NotTwoThirdsHonest),
        "majority failures ({}) must be far rarer than 2/3 failures ({})",
        report.count(ViolationKind::NotMajorityHonest),
        report.count(ViolationKind::NotTwoThirdsHonest)
    );
    sys.check_consistency().unwrap();
}

#[test]
fn tree_init_system_runs_the_maintenance_phase() {
    // The cheap initialization hands over to the ordinary maintenance
    // machinery: churn after a tree-discovered boot behaves exactly
    // like churn after a flooding boot.
    let params = NowParams::for_capacity(1 << 10).unwrap();
    let mut rng = DetRng::new(75);
    let g = gen::erdos_renyi(120, 0.2, &mut rng);
    let corrupt: Vec<bool> = (0..120).map(|i| i % 10 == 0).collect();
    // Tree discovery can lose the per-id vote when a node's neighborhood
    // is Byzantine-heavy; the documented remedy is retrying with more
    // trees (see init_tree.rs), so drive it exactly as a caller would.
    let mut sys = (0..4)
        .find_map(|attempt| {
            init_tree_discovered(params, &g, &corrupt, 9 + 4 * attempt, 76 + attempt as u64).ok()
        })
        .expect("some retry with more trees completes");
    let tree_units = sys.ledger().stats(CostKind::Discovery).total_messages;
    assert!(tree_units > 0);
    for i in 0..40 {
        if i % 2 == 0 {
            sys.join(true);
        } else {
            let node = sys.node_ids()[0];
            sys.leave(node).unwrap();
        }
    }
    sys.check_consistency().unwrap();
    assert!(sys.audit().size_bounds_ok);
}

#[test]
fn async_agreement_composes_with_cluster_membership() {
    // Run Ben-Or among the members of a live cluster (the substitution
    // §6 points at: an async randNum/agreement transport inside a
    // cluster), with the cluster's actual Byzantine members attacking.
    // Ben-Or's n/5 resilience is *stricter* than the cluster invariant
    // (> 2/3 honest only gives n/3): deploying it cluster-wide would
    // need τ sized below 1/5 − ε. Here we take a cluster that meets the
    // stricter bound (at τ = 0.15 most do) and let its actual Byzantine
    // members attack.
    let params = NowParams::new(1 << 12, 4, 1.5, 0.15, 0.05).unwrap();
    let sys = NowSystem::init_fast(params, 480, 0.15, 77);
    let cluster = sys
        .clusters()
        .find(|c| 5 * c.byz_count() < c.size() && c.byz_count() > 0)
        .expect("some cluster within Ben-Or resilience at τ = 0.15");
    let members = cluster.member_vec();
    let n = members.len();
    let byz: BTreeSet<usize> = members
        .iter()
        .enumerate()
        .filter(|(_, &m)| !sys.is_honest(m).unwrap())
        .map(|(port, _)| port)
        .collect();
    let inputs = vec![1u64; n];
    let mut ledger = Ledger::new();
    let mut rng = DetRng::new(78);
    let report = run_ben_or(
        n,
        &inputs,
        &byz,
        byz.len(),
        ByzPlan::Equivocate(0, 1),
        20,
        400,
        &mut ledger,
        &mut rng,
    );
    assert!(report.all_decided);
    assert_eq!(report.result.unanimous(), Some(&1));
}

#[test]
fn poll_distortion_bounded_through_churn() {
    let params = NowParams::new(1 << 10, 4, 1.5, 0.20, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 320, 0.2, 79);
    for round in 0..3 {
        let root = sys.cluster_ids()[0];
        let report = poll(&mut sys, root, |n| n.raw() % 2 == 0, true);
        assert!(report.complete);
        assert!(
            report.distortion() <= sys.byz_population(),
            "round {round}: distortion {} vs byz {}",
            report.distortion(),
            sys.byz_population()
        );
        assert_eq!(report.yes + report.no, sys.population());
        for _ in 0..25 {
            sys.join(false);
            let node = sys.node_ids()[3];
            sys.leave(node).unwrap();
        }
    }
    sys.check_consistency().unwrap();
}

#[test]
fn exchange_cap_trades_cost_for_refresh_volume() {
    // The Lemma 2–3 ablation end-to-end: capped exchange is cheaper per
    // operation but replaces fewer members per refresh.
    let base = NowParams::for_capacity(1 << 10).unwrap();
    let mut full = NowSystem::init_fast(base, 200, 0.2, 80);
    let mut capped = NowSystem::init_fast(base.with_exchange_cap(Some(2)), 200, 0.2, 80);
    for _ in 0..20 {
        full.join(true);
        capped.join(true);
    }
    let full_cost = full.ledger().stats(CostKind::Join).mean_messages();
    let capped_cost = capped.ledger().stats(CostKind::Join).mean_messages();
    assert!(
        capped_cost * 3.0 < full_cost,
        "cap 2 must be much cheaper: {capped_cost} vs {full_cost}"
    );
    full.check_consistency().unwrap();
    capped.check_consistency().unwrap();
}
