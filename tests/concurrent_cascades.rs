//! An exchange is a swap (§3.1: the partner sends one of its own
//! members back "in replacement"), so it cannot change a cluster's
//! size — not even when two leaves of one wave cascade through a few
//! hundred of the same nodes. Each was planned against the pre-wave
//! state, so their swaps collide; the canonical apply must resolve
//! every collision without tearing a swap in half.

use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_bft::net::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

const SWAP_CONFLICTS: &str = "now_swap_conflicts_total";

/// The steady benchmark pair's system: 128 clusters of 24.
fn system(seed: u64) -> NowSystem {
    let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 3072, 0.05, seed);
    sys.enable_metrics();
    sys
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

fn swap_conflicts(sys: &NowSystem) -> u64 {
    sys.metrics().expect("metrics on").counter(SWAP_CONFLICTS)
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
        &ExecConfig::scheduled(),
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
    // most one other cluster is — the one an earlier cascade had swapped
    // the second leaver into before its own departure applied.
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

    // The cascades did collide, and the engine counted it.
    assert!(
        swap_conflicts(&sys) > 0,
        "two ≈ 500-swap cascades over 3072 nodes share nodes"
    );
}

/// A plan's view is exact when its op is alone in the wave, so a step
/// whose waves all have width 1 collides on nothing.
#[test]
fn width_one_waves_have_no_swap_conflicts() {
    let mut sys = system(2);
    for step in 0..6usize {
        // Two departures from one cluster share a footprint and
        // serialize into two waves; every other step is one arrival.
        let home = sys.cluster_ids()[7 * step];
        let leavers: Vec<NodeId> = sys.cluster(home).unwrap().member_slice()[..2].to_vec();
        let input = if step % 2 == 0 {
            BatchInput::from_flags(&[], &leavers)
        } else {
            BatchInput::from_flags(&[true], &[])
        };
        let report = sys.step_batch(&input, &ExecConfig::scheduled());
        assert_eq!(
            report.max_wave_width(),
            1,
            "step {step}: {:?}",
            report.waves
        );
        assert_eq!(swap_conflicts(&sys), 0, "step {step}");
    }
    let (joins, leaves, ..) = sys.op_counts();
    assert_eq!((joins, leaves), (3, 6));
    sys.check_consistency().unwrap();
}
