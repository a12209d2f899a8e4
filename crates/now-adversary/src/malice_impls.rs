//! Strategic in-protocol behavior for compromised clusters.

use now_core::{Malice, RandNumContext, RandNumPurpose};
use now_net::{ClusterId, DetRng, NodeId};
use rand::Rng;

/// The adversary's in-protocol policy once it holds ≥ 1/3 of some
/// cluster: steer walks toward the target cluster, accept walk endpoints
/// only at the target, surrender honest members first in exchanges
/// (hoarding Byzantine ones), and extremize every other `randNum`.
///
/// Handed to [`now_core::NowSystem::set_malice`] by attack experiments.
#[derive(Debug, Clone, Copy)]
pub struct TargetedMalice {
    /// The cluster the adversary is trying to pollute.
    pub target: ClusterId,
}

impl TargetedMalice {
    /// Policy aimed at `target`.
    pub fn new(target: ClusterId) -> Self {
        TargetedMalice { target }
    }
}

impl Malice for TargetedMalice {
    fn rand_num(&mut self, range: u64, ctx: RandNumContext, rng: &mut DetRng) -> u64 {
        match ctx.purpose {
            // Small draws accept the endpoint; the adversary accepts
            // walks that end at its target and rejects them anywhere
            // else (forcing a restart that keeps the walk alive and
            // steerable toward the target).
            RandNumPurpose::WalkAcceptance => {
                if ctx.cluster == self.target {
                    0
                } else {
                    range.saturating_sub(1)
                }
            }
            // The hop itself is overridden in `walk_hop`; the draw's
            // value is the honest fallback's, and any will do.
            RandNumPurpose::WalkHop => 0,
            // Member indices are refined by `exchange_victim`; split
            // seeds and generic draws get an extremal fixed choice.
            RandNumPurpose::MemberIndex | RandNumPurpose::SplitSeed | RandNumPurpose::Generic => {
                // Deterministic but not constant: mixing in one RNG draw
                // keeps repeated split seeds from being identical, which
                // would make "random" partitions degenerate.
                if range <= 1 {
                    0
                } else {
                    rng.gen_range(0..range)
                }
            }
        }
    }

    fn walk_hop(&mut self, neighbors: &[ClusterId], rng: &mut DetRng) -> Option<ClusterId> {
        if neighbors.contains(&self.target) {
            // Route the walk into the target so that exchanges keep
            // hitting it.
            Some(self.target)
        } else if neighbors.is_empty() {
            None
        } else {
            // No direct route: pick any neighbor (walk stays legal).
            // INVARIANT: the empty case returned None above; the draw
            // range is exactly the neighbor count.
            Some(neighbors[rng.gen_range(0..neighbors.len())])
        }
    }

    fn exchange_victim(&mut self, members: &[(NodeId, bool)], _rng: &mut DetRng) -> Option<NodeId> {
        // Give away an honest member; keep Byzantine ones concentrated.
        members
            .iter()
            .find(|(_, honest)| *honest)
            .or_else(|| members.first())
            .map(|(id, _)| *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(cluster: u64, purpose: RandNumPurpose) -> RandNumContext {
        RandNumContext {
            cluster: ClusterId::from_raw(cluster),
            purpose,
        }
    }

    #[test]
    fn acceptance_is_target_selective() {
        let mut m = TargetedMalice::new(ClusterId::from_raw(7));
        let mut rng = DetRng::new(1);
        // At the target: accept (minimal draw).
        assert_eq!(
            m.rand_num(1 << 24, ctx(7, RandNumPurpose::WalkAcceptance), &mut rng),
            0
        );
        // Elsewhere: reject (maximal draw).
        assert_eq!(
            m.rand_num(1 << 24, ctx(3, RandNumPurpose::WalkAcceptance), &mut rng),
            (1 << 24) - 1
        );
    }

    /// A hop's draw is a legal index at every cluster, the target's
    /// included: the hop is steered by `walk_hop`, not by the draw.
    #[test]
    fn hop_draws_defer_to_walk_hop() {
        let mut m = TargetedMalice::new(ClusterId::from_raw(0));
        let mut rng = DetRng::new(2);
        for d in [1, 5, 88] {
            for cluster in [0, 5] {
                let w = m.rand_num(d, ctx(cluster, RandNumPurpose::WalkHop), &mut rng);
                assert!(w < d, "degree {d}, cluster {cluster}");
            }
        }
    }

    #[test]
    fn generic_draws_stay_in_range() {
        let mut m = TargetedMalice::new(ClusterId::from_raw(0));
        let mut rng = DetRng::new(3);
        for _ in 0..50 {
            let v = m.rand_num(10, ctx(1, RandNumPurpose::Generic), &mut rng);
            assert!(v < 10);
            let s = m.rand_num(10, ctx(1, RandNumPurpose::SplitSeed), &mut rng);
            assert!(s < 10);
        }
        assert_eq!(m.rand_num(0, ctx(1, RandNumPurpose::Generic), &mut rng), 0);
    }

    #[test]
    fn walk_prefers_target() {
        let target = ClusterId::from_raw(7);
        let mut m = TargetedMalice::new(target);
        let mut rng = DetRng::new(4);
        let neighbors = vec![ClusterId::from_raw(1), target, ClusterId::from_raw(3)];
        assert_eq!(m.walk_hop(&neighbors, &mut rng), Some(target));
        let others = vec![ClusterId::from_raw(1), ClusterId::from_raw(3)];
        let hop = m.walk_hop(&others, &mut rng).unwrap();
        assert!(others.contains(&hop));
        assert_eq!(m.walk_hop(&[], &mut rng), None);
    }

    #[test]
    fn exchange_surrenders_honest_first() {
        let mut m = TargetedMalice::new(ClusterId::from_raw(0));
        let mut rng = DetRng::new(5);
        let members = vec![
            (NodeId::from_raw(0), false),
            (NodeId::from_raw(1), true),
            (NodeId::from_raw(2), false),
        ];
        assert_eq!(
            m.exchange_victim(&members, &mut rng),
            Some(NodeId::from_raw(1))
        );
        let all_byz = vec![(NodeId::from_raw(5), false)];
        assert_eq!(
            m.exchange_victim(&all_byz, &mut rng),
            Some(NodeId::from_raw(5))
        );
        assert_eq!(m.exchange_victim(&[], &mut rng), None);
    }
}
