//! Applications on a *churned* system: §6's services must stay correct
//! after the cluster partition has been reshaped by joins, leaves,
//! splits, and merges.

use now_bft::apps::{aggregate_count, broadcast, cluster_agreement, sample_node};
use now_bft::core::{NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun};
use std::collections::BTreeMap;

fn churned_system(seed: u64) -> NowSystem {
    let params = NowParams::new(1 << 10, 3, 1.5, 0.2, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 240, 0.15, seed);
    let mut churn = BatchRandomChurn::balanced(1, 0.15);
    BatchRun::new().run(&mut sys, &mut churn, 60, 0);
    sys.check_consistency().unwrap();
    sys
}

#[test]
fn broadcast_remains_complete_after_churn() {
    let mut sys = churned_system(1);
    for origin in sys.cluster_ids() {
        let report = broadcast(&mut sys, origin);
        assert!(report.complete, "broadcast from {origin} incomplete");
        assert_eq!(report.nodes_reached, sys.population());
    }
}

#[test]
fn aggregation_remains_exact_after_churn() {
    let mut sys = churned_system(2);
    let root = sys.cluster_ids()[0];
    let report = aggregate_count(&mut sys, root);
    assert!(report.complete);
    assert_eq!(report.total, sys.population());
}

#[test]
fn sampling_covers_post_churn_population() {
    let mut sys = churned_system(3);
    let origin = sys.cluster_ids()[0];
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..400 {
        let s = sample_node(&mut sys, origin);
        // Every sample must be a live node.
        assert!(sys.node_cluster(s.node).is_ok());
        seen.insert(s.node);
    }
    // A decent share of distinct nodes shows the sampler is not stuck
    // on a few clusters after the reshape.
    assert!(
        seen.len() as u64 > sys.population() / 2,
        "only {} of {} nodes reachable by sampling",
        seen.len(),
        sys.population()
    );
}

#[test]
fn agreement_decides_and_reaches_all_after_churn() {
    let mut sys = churned_system(4);
    let proposals: BTreeMap<_, _> = sys
        .cluster_ids()
        .into_iter()
        .map(|c| (c, c.raw() * 3 + 1))
        .collect();
    let report = cluster_agreement(&mut sys, &proposals).unwrap();
    assert!(report.complete);
    assert!(proposals.values().any(|&v| v == report.decided));
}

#[test]
fn app_costs_scale_with_population_not_population_squared() {
    let mut small = churned_system(5);
    let origin_s = small.cluster_ids()[0];
    let bc_small = broadcast(&mut small, origin_s);

    let params = NowParams::new(1 << 10, 3, 1.5, 0.2, 0.05).unwrap();
    let mut big = NowSystem::init_fast(params, 480, 0.15, 6);
    let origin_b = big.cluster_ids()[0];
    let bc_big = broadcast(&mut big, origin_b);

    let n_ratio = big.population() as f64 / small.population() as f64;
    let cost_ratio = bc_big.messages as f64 / bc_small.messages as f64;
    assert!(
        cost_ratio < n_ratio * n_ratio * 0.75,
        "broadcast scaled quadratically: n ×{n_ratio:.2}, cost ×{cost_ratio:.2}"
    );
}
