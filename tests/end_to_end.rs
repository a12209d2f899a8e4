//! End-to-end integration: initialization → churn → invariants, across
//! all workspace crates.

use now_bft::core::init::init_discovered;
use now_bft::core::{NowError, NowParams, NowSystem};
use now_bft::graph::gen;
use now_bft::net::{CostKind, DetRng};
use now_bft::sim::{BatchRandomChurn, BatchRun};

fn params() -> NowParams {
    NowParams::new(1 << 10, 3, 1.5, 0.25, 0.05).unwrap()
}

#[test]
fn fast_init_churn_audit_cycle() {
    let mut sys = NowSystem::init_fast(params(), 180, 0.10, 1);
    let mut churn = BatchRandomChurn::balanced(1, 0.10);
    let report = BatchRun::new().run(&mut sys, &mut churn, 80, 0);
    assert_eq!(report.steps, 80);
    sys.check_consistency().unwrap();
    let audit = sys.audit();
    assert!(audit.size_bounds_ok);
    assert!(audit.population > 100);
    // Ledger saw every operation family.
    for kind in [
        CostKind::Join,
        CostKind::Leave,
        CostKind::Exchange,
        CostKind::RandCl,
    ] {
        assert!(sys.ledger().stats(kind).count > 0, "{kind} missing");
    }
}

#[test]
fn discovered_init_matches_fast_init_shape() {
    // The genuinely executed initialization (L0) produces a system with
    // the same structural shape as the fast path.
    let n = 120usize;
    let mut rng = DetRng::new(2);
    let bootstrap = gen::erdos_renyi(n, 0.18, &mut rng);
    let corrupt: Vec<bool> = (0..n).map(|i| i % 10 == 0).collect();
    let slow = init_discovered(params(), &bootstrap, &corrupt, 3).unwrap();
    let fast = NowSystem::init_with_corruption(params(), &corrupt, 3);
    slow.check_consistency().unwrap();
    assert_eq!(slow.population(), fast.population());
    assert_eq!(slow.byz_population(), fast.byz_population());
    assert_eq!(slow.cluster_count(), fast.cluster_count());
    // The measured (L0) initialization records real discovery costs.
    let slow_disc = slow.ledger().stats(CostKind::Discovery);
    assert!(slow_disc.total_messages > 0);
    assert!(slow_disc.total_rounds > 0);
}

#[test]
fn runs_replay_bit_identically() {
    let go = || {
        let mut sys = NowSystem::init_fast(params(), 160, 0.15, 7);
        let mut churn = BatchRandomChurn::balanced(1, 0.15);
        let report = BatchRun::new().run(&mut sys, &mut churn, 60, 9);
        (
            sys.node_ids(),
            sys.cluster_ids(),
            report.peak_byz_fraction().to_bits(),
            sys.ledger().total(),
        )
    };
    assert_eq!(go(), go(), "same seed must replay identically");
}

#[test]
fn population_floor_is_enforced_under_aggressive_shrink() {
    let mut sys = NowSystem::init_fast(params(), 40, 0.0, 4);
    let floor = sys.params().min_population();
    let mut refused = 0;
    for _ in 0..30 {
        let node = sys.node_ids()[0];
        match sys.leave(node) {
            Ok(()) => {}
            Err(NowError::PopulationFloor { .. }) => refused += 1,
            Err(other) => panic!("unexpected error {other}"),
        }
    }
    assert!(refused > 0, "floor must engage");
    assert_eq!(sys.population(), floor);
    sys.check_consistency().unwrap();
}

#[test]
fn split_and_merge_fire_across_the_band() {
    let mut sys = NowSystem::init_fast(params(), 200, 0.10, 5);
    // Grow hard: splits must fire.
    for _ in 0..150 {
        sys.join(false);
    }
    let (_, _, splits, _) = sys.op_counts();
    assert!(splits > 0);
    // Shrink hard: merges must fire.
    for _ in 0..200 {
        let node = sys.node_ids()[0];
        if sys.leave(node).is_err() {
            break;
        }
    }
    let (_, _, _, merges) = sys.op_counts();
    assert!(merges > 0);
    sys.check_consistency().unwrap();
    assert!(sys.audit().size_bounds_ok);
}

#[test]
fn overlay_stays_healthy_through_system_churn() {
    let mut sys = NowSystem::init_fast(params(), 240, 0.10, 6);
    let mut churn = BatchRandomChurn::balanced(1, 0.10);
    BatchRun::new().run(&mut sys, &mut churn, 100, 0);
    let overlay = sys.overlay_audit();
    assert!(overlay.connected, "overlay disconnected by churn");
    assert!(overlay.degree_bound_holds, "Property 2 violated");
    assert!(
        overlay.lambda2 > 0.5,
        "expansion collapsed: {}",
        overlay.lambda2
    );
    assert_eq!(overlay.vertex_count, sys.cluster_count());
}

#[test]
fn byzantine_arrivals_are_tracked_exactly() {
    let mut sys = NowSystem::init_fast(params(), 150, 0.0, 8);
    assert_eq!(sys.byz_population(), 0);
    for i in 0..30 {
        sys.join(i % 3 != 0); // every third arrival corrupt
    }
    assert_eq!(sys.byz_population(), 10);
    let byz = sys.byz_node_ids();
    assert_eq!(byz.len(), 10);
    for b in byz {
        assert!(!sys.is_honest(b).unwrap());
    }
}
