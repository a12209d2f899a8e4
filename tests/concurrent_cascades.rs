//! An exchange is a swap (§3.1: the partner sends one of its own
//! members back "in replacement"), so it cannot change a cluster's
//! size — not even when two leaves of one wave cascade through a few
//! hundred of the same nodes, the second after the first.

use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_bft::net::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The steady benchmark pair's system: 128 clusters of 24.
fn system(seed: u64) -> NowSystem {
    let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05).unwrap();
    NowSystem::init_fast(params, 3072, 0.05, seed)
}

/// The first two clusters, in id order, whose footprints are disjoint.
fn two_disjoint_homes(sys: &NowSystem) -> [ClusterId; 2] {
    let ids = sys.cluster_ids();
    let first = ids[0];
    let covered: BTreeSet<ClusterId> = sys.op_footprint(first).into_iter().collect();
    let second = ids
        .iter()
        .copied()
        .find(|&c| sys.op_footprint(c).iter().all(|x| !covered.contains(x)))
        .expect("a 128-cluster overlay has two disjoint neighbourhoods");
    [first, second]
}

fn sizes(sys: &NowSystem) -> BTreeMap<ClusterId, usize> {
    sys.clusters().map(|c| (c.id(), c.size())).collect()
}

#[test]
fn two_concurrent_cascades_leave_third_party_sizes_alone() {
    let mut sys = system(1);
    let homes = two_disjoint_homes(&sys);
    let leavers: Vec<NodeId> = homes
        .iter()
        .map(|&c| sys.cluster(c).unwrap().member_at(0))
        .collect();
    let before = sizes(&sys);

    let report = sys.step_batch(
        &BatchInput::from_flags(&[], &leavers),
        &ExecConfig::Canonical,
    );
    sys.check_consistency().unwrap();

    assert_eq!(report.left, leavers);
    assert_eq!(report.waves.len(), 1, "one wave: {:?}", report.waves);
    assert_eq!(report.waves[0].ops, 2, "of width 2");
    let (_, _, splits, merges) = sys.op_counts();
    assert_eq!(
        (splits, merges),
        (0, 0),
        "two leaves from full clusters trigger no maintenance"
    );

    // Every departure takes one member out of one cluster, and nothing
    // else changes a size: the two homes may each be one short, and at
    // most one other cluster is — the one the first cascade swapped the
    // second leaver into before its own departure.
    let after = sizes(&sys);
    assert_eq!(
        before.keys().collect::<Vec<_>>(),
        after.keys().collect::<Vec<_>>()
    );
    let moved: Vec<(ClusterId, usize, usize)> = before
        .iter()
        .filter(|&(c, _)| !homes.contains(c))
        .map(|(&c, &was)| (c, was, after[&c]))
        .filter(|&(_, was, is)| was != is)
        .collect();
    assert!(
        moved.len() <= 1 && moved.iter().all(|&(_, was, is)| is + 1 == was),
        "third-party clusters changed size: {moved:?}"
    );
    let lost: i64 = before
        .iter()
        .map(|(c, &was)| was as i64 - after[c] as i64)
        .sum();
    assert_eq!(lost, 2, "two departures, two members fewer");
}
