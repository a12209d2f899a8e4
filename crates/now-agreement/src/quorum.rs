//! The inter-cluster quorum acceptance rule.
//!
//! From the paper (§3.2): *"a node receiving a message from all the
//! nodes of a particular cluster considers this message valid if and
//! only if it receives the same message from more than half of the nodes
//! of this cluster."* Together with every cluster having more than two
//! thirds honest members, this single rule is what makes clusters usable
//! as reliable super-nodes.
//!
//! The rule's two failure thresholds structure the whole audit story:
//! * Byzantine ≥ 1/3 of a cluster → `randNum` can be biased (the
//!   threshold `now_core`'s `SecurityMode::rand_num_secure` applies to
//!   every draw the simulator makes);
//! * Byzantine > 1/2 of a cluster → the adversary alone clears the
//!   quorum and can forge arbitrary cluster messages
//!   ([`forgery_possible`]).

use now_net::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Outcome of validating one batch of votes from a purported cluster
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuorumDecision<V> {
    /// More than half of the cluster's members sent this identical value.
    Accepted(V),
    /// No value reached the `> |C|/2` bar.
    Rejected,
}

impl<V> QuorumDecision<V> {
    /// The accepted value, if any.
    pub fn accepted(&self) -> Option<&V> {
        match self {
            QuorumDecision::Accepted(v) => Some(v),
            QuorumDecision::Rejected => None,
        }
    }
}

/// Applies the quorum rule to `votes` claimed to originate from the
/// cluster with member set `members`.
///
/// Votes from non-members are discarded (identities are unforgeable);
/// only a member's first vote counts (later ones model duplicate or
/// contradictory channel traffic and are ignored, as a receiving node
/// keeps one message per private channel per round).
///
/// Accepts the unique value backed by **more than half** of `|members|`
/// — "half plus one" in the paper's phrasing. At most one value can
/// clear that bar.
pub fn accept_cluster_message<V: Clone + Eq + Ord>(
    votes: &[(NodeId, V)],
    members: &BTreeSet<NodeId>,
) -> QuorumDecision<V> {
    let mut first_vote: BTreeMap<NodeId, &V> = BTreeMap::new();
    for (voter, value) in votes {
        if members.contains(voter) {
            first_vote.entry(*voter).or_insert(value);
        }
    }
    let mut tally: BTreeMap<&V, usize> = BTreeMap::new();
    for value in first_vote.values() {
        *tally.entry(value).or_default() += 1;
    }
    let need = members.len() / 2 + 1;
    for (value, count) in tally {
        if count >= need {
            return QuorumDecision::Accepted(value.clone());
        }
    }
    QuorumDecision::Rejected
}

/// Whether a cluster with `byz` Byzantine members out of `size` can have
/// messages forged in its name (the adversary alone clears `> size/2`).
pub fn forgery_possible(byz: usize, size: usize) -> bool {
    byz >= size / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(raws: &[u64]) -> Vec<NodeId> {
        raws.iter().map(|&r| NodeId::from_raw(r)).collect()
    }

    fn member_set(raws: &[u64]) -> BTreeSet<NodeId> {
        ids(raws).into_iter().collect()
    }

    #[test]
    fn honest_majority_accepted() {
        let members = member_set(&[0, 1, 2, 3, 4]);
        let votes: Vec<(NodeId, u32)> = ids(&[0, 1, 2]).into_iter().map(|id| (id, 7u32)).collect();
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Accepted(7)
        );
    }

    #[test]
    fn exactly_half_is_rejected() {
        let members = member_set(&[0, 1, 2, 3]);
        let votes: Vec<(NodeId, u32)> = ids(&[0, 1]).into_iter().map(|id| (id, 7u32)).collect();
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Rejected,
            "2 of 4 is not more than half"
        );
    }

    #[test]
    fn minority_liars_cannot_block() {
        let members = member_set(&[0, 1, 2, 3, 4]);
        let mut votes: Vec<(NodeId, u32)> =
            ids(&[0, 1, 2]).into_iter().map(|id| (id, 7u32)).collect();
        votes.push((NodeId::from_raw(3), 9));
        votes.push((NodeId::from_raw(4), 9));
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Accepted(7)
        );
    }

    #[test]
    fn byzantine_majority_can_forge() {
        // The 1/2 threshold is the forgery line: 3 byzantine of 5 push a
        // lie through.
        let members = member_set(&[0, 1, 2, 3, 4]);
        let votes: Vec<(NodeId, u32)> =
            ids(&[2, 3, 4]).into_iter().map(|id| (id, 666u32)).collect();
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Accepted(666)
        );
        assert!(forgery_possible(3, 5));
        assert!(!forgery_possible(2, 5));
    }

    #[test]
    fn non_member_votes_ignored() {
        let members = member_set(&[0, 1, 2]);
        let votes: Vec<(NodeId, u32)> = ids(&[5, 6, 7, 8])
            .into_iter()
            .map(|id| (id, 1u32))
            .collect();
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Rejected
        );
    }

    #[test]
    fn duplicate_votes_count_once() {
        let members = member_set(&[0, 1, 2]);
        let id0 = NodeId::from_raw(0);
        let votes = vec![(id0, 5u32), (id0, 5u32), (id0, 5u32)];
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Rejected,
            "one member repeating itself is not a quorum"
        );
    }

    #[test]
    fn equivocating_member_first_vote_wins() {
        let members = member_set(&[0, 1, 2]);
        let votes = vec![
            (NodeId::from_raw(0), 5u32),
            (NodeId::from_raw(0), 9u32), // later contradiction ignored
            (NodeId::from_raw(1), 5u32),
        ];
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Accepted(5)
        );
    }

    #[test]
    fn empty_votes_rejected() {
        let members = member_set(&[0, 1, 2]);
        let votes: Vec<(NodeId, u32)> = Vec::new();
        assert_eq!(
            accept_cluster_message(&votes, &members),
            QuorumDecision::Rejected
        );
    }

    #[test]
    fn forgery_threshold_boundaries() {
        assert!(!forgery_possible(0, 1));
        assert!(forgery_possible(1, 1));
        assert!(!forgery_possible(1, 3));
        assert!(forgery_possible(2, 3));
        assert!(!forgery_possible(5, 10));
        assert!(forgery_possible(6, 10));
    }

    proptest! {
        /// At most one value can be accepted, and only with support from
        /// more than half of the membership.
        #[test]
        fn acceptance_requires_majority(
            votes in proptest::collection::vec((0u64..8, 0u32..3), 0..20),
            members in proptest::collection::btree_set(0u64..8, 1..8),
        ) {
            let member_ids: BTreeSet<NodeId> =
                members.iter().map(|&r| NodeId::from_raw(r)).collect();
            let vote_pairs: Vec<(NodeId, u32)> = votes
                .iter()
                .map(|&(r, v)| (NodeId::from_raw(r), v))
                .collect();
            if let QuorumDecision::Accepted(winner) =
                accept_cluster_message(&vote_pairs, &member_ids)
            {
                // Count distinct members whose first vote was the winner.
                let mut seen = BTreeSet::new();
                let mut support = 0usize;
                for (id, v) in &vote_pairs {
                    if member_ids.contains(id) && seen.insert(*id) && *v == winner {
                        support += 1;
                    }
                }
                prop_assert!(support > member_ids.len() / 2);
            }
        }
    }
}
