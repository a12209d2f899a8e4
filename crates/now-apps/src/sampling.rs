//! Uniform node sampling: `polylog(n)` messages per sample.

use now_core::NowSystem;
use now_net::{ClusterId, CostKind, NodeId};

/// Outcome of one sampling request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleReport {
    /// The sampled node.
    pub node: NodeId,
    /// Messages spent on this sample (walk + index draw).
    pub messages: u64,
    /// Rounds spent.
    pub rounds: u64,
}

/// Draws a uniformly random node of the network, as seen from a
/// requester in cluster `origin`: one `randCl` walk (size-biased cluster
/// choice) followed by one `randNum` (uniform member index) — together a
/// uniform draw over nodes, at `polylog(n)` message cost (§6's sampling
/// claim, measured by experiment X-A2).
///
/// Costs are recorded under [`CostKind::Sampling`].
///
/// # Panics
/// Panics if `origin` is not a live cluster.
pub fn sample_node(sys: &mut NowSystem, origin: ClusterId) -> SampleReport {
    assert!(
        sys.cluster(origin).is_some(),
        "sample: unknown origin {origin}"
    );
    let before = sys.ledger().total();
    sys.ledger_mut().begin(CostKind::Sampling);
    let (cluster, _) = sys.rand_cl_from(origin);
    let size = sys.cluster(cluster).map(|c| c.size()).unwrap_or(0).max(1);
    let idx = sys.rand_num(cluster, size as u64) as usize;
    let node = sys
        .cluster(cluster)
        // INVARIANT: RandCl walks end on live clusters, and `min`
        // clamps the member index below the just-read size.
        .expect("rand_cl returns live clusters")
        .member_at(idx.min(size - 1));
    // Result returned to the requester along the walk's path — one
    // quorum message per cluster boundary is already accounted by the
    // walk; the final hand-back costs |origin| messages.
    let origin_size = sys.cluster(origin).map(|c| c.size() as u64).unwrap_or(0);
    sys.ledger_mut().add_messages(origin_size);
    sys.ledger_mut().add_rounds(1);
    sys.ledger_mut().end();
    let spent = sys.ledger().total();

    SampleReport {
        node,
        messages: spent.messages - before.messages,
        rounds: spent.rounds - before.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::{NowParams, NowSystem};
    use now_sim::baselines::naive_sampling_cost;
    use std::collections::BTreeMap;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.1, seed)
    }

    #[test]
    fn sample_returns_live_node() {
        let mut sys = system(200, 1);
        let origin = sys.cluster_ids()[0];
        for _ in 0..20 {
            let r = sample_node(&mut sys, origin);
            assert!(sys.node_cluster(r.node).is_ok());
            assert!(r.messages > 0);
            assert!(r.rounds > 0);
        }
    }

    #[test]
    fn samples_are_nearly_uniform() {
        let mut sys = system(300, 2);
        let origin = sys.cluster_ids()[0];
        let trials = 3000usize;
        let mut counts: BTreeMap<NodeId, u64> = BTreeMap::new();
        for _ in 0..trials {
            let r = sample_node(&mut sys, origin);
            *counts.entry(r.node).or_default() += 1;
        }
        let n = sys.population() as f64;
        // Total-variation distance between the empirical law and uniform.
        let mut tv = 0.0;
        for node in sys.node_ids() {
            let got = *counts.get(&node).unwrap_or(&0) as f64 / trials as f64;
            tv += (got - 1.0 / n).abs();
        }
        tv /= 2.0;
        // With 3000 samples over 300 atoms, even a perfect sampler shows
        // TV ≈ sqrt(n/(2π·trials)) ≈ 0.12; bound generously above that.
        assert!(tv < 0.25, "TV from uniform: {tv}");
        // Spread check: a fair majority of nodes sampled at least once.
        assert!(
            counts.len() * 10 >= sys.population() as usize * 9,
            "only {} of {} nodes ever sampled",
            counts.len(),
            sys.population()
        );
    }

    #[test]
    fn sampling_cost_is_polylog_vs_naive_linear() {
        let mut sys = system(600, 3);
        let origin = sys.cluster_ids()[0];
        let mut total = 0u64;
        // A call's walks are geometric (about 2.4 of them at n = 600 and
        // 2.9 at n = 1000, each 15 hops), so a mean over ten calls can
        // be off by a factor of three; over 400 the ratio below is within
        // a few percent of its expectation, 1.19.
        let trials = 400;
        for _ in 0..trials {
            total += sample_node(&mut sys, origin).messages;
        }
        let per_sample = total / trials;
        // §6's point is asymptotic; at n = 600 the quorum-weighted walk
        // constant is large, so compare *scaling*, not absolutes:
        let mut big = system(1000, 3);
        let big_origin = big.cluster_ids()[0];
        let mut big_total = 0u64;
        for _ in 0..trials {
            big_total += sample_node(&mut big, big_origin).messages;
        }
        let per_sample_big = big_total / trials;
        let n_ratio = 1000.0 / 600.0;
        let cost_ratio = per_sample_big as f64 / per_sample as f64;
        assert!(
            cost_ratio < n_ratio,
            "sampling cost grew superlinearly: ×{cost_ratio:.2} for n ×{n_ratio:.2}"
        );
        // And the naive baseline formula is what X-A2 compares against.
        assert_eq!(naive_sampling_cost(600), 1200);
    }

    #[test]
    fn sampling_is_accounted() {
        let mut sys = system(150, 4);
        let origin = sys.cluster_ids()[0];
        let r = sample_node(&mut sys, origin);
        let s = sys.ledger().stats(CostKind::Sampling);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_messages, r.messages);
    }

    #[test]
    #[should_panic(expected = "unknown origin")]
    fn unknown_origin_panics() {
        let mut sys = system(100, 5);
        let _ = sample_node(&mut sys, ClusterId::from_raw(9_999));
    }
}
