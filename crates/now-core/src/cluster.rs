//! Cluster state: membership and composition bookkeeping.

use crate::params::SecurityMode;
use now_net::{ClusterId, Cost, NodeId};

/// One NOW cluster: a vertex of the overlay and a set of member nodes.
///
/// Members live in one sorted, contiguous `Vec<NodeId>` — membership is
/// a binary search, iteration is a cache-line walk, and `member_at` is
/// a direct index (`exchange` draws its victims by index on every
/// operation). Clusters are polylog-sized, so the `O(size)`
/// shifts on insert/remove stay well under the pointer-chasing cost of
/// the `BTreeSet` layout this replaced.
///
/// The cluster caches its Byzantine member count so the audits — which
/// run after every operation in long experiments — cost O(1). The cache
/// is maintained by the membership mutators, which take the member's
/// honesty as an argument (the *simulator* knows honesty; the protocol
/// itself never reads it except through the ideal-functionality
/// thresholds documented in [`crate::Malice`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cluster {
    id: ClusterId,
    /// Sorted ascending; the invariant every method below preserves.
    members: Vec<NodeId>,
    byz_count: usize,
}

/// What a collective draw needs to know about the cluster making it:
/// its size (the draw's message cost) and whether `randNum` is secure
/// there. Read once per walk hop, straight from the slabs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ClusterSecurity {
    pub(crate) size: u64,
    /// Secure under [`SecurityMode::Plain`] (< 1/3 Byzantine): gates the
    /// [`crate::Malice`] hop-forcing hook.
    pub(crate) secure_plain: bool,
    /// Secure under the deployment's mode: gates the draws themselves.
    pub(crate) secure: bool,
}

impl ClusterSecurity {
    /// The security of a cluster of `size` members, `byz` of them
    /// Byzantine, deployed under `mode` (an empty cluster is insecure).
    pub(crate) fn of(size: usize, byz: usize, mode: SecurityMode) -> Self {
        ClusterSecurity {
            size: size as u64,
            secure_plain: size > 0 && SecurityMode::Plain.rand_num_secure(byz, size),
            secure: size > 0 && mode.rand_num_secure(byz, size),
        }
    }

    /// The paper's cost of one `randNum` run here: `2·|C|·(|C|−1)`
    /// messages over 2 rounds.
    pub(crate) fn rand_num_cost(&self) -> Cost {
        Cost {
            messages: 2 * self.size * self.size.saturating_sub(1),
            rounds: 2,
        }
    }
}

impl Cluster {
    /// Creates an empty cluster.
    pub(crate) fn new(id: ClusterId) -> Self {
        Cluster {
            id,
            members: Vec::new(),
            byz_count: 0,
        }
    }

    /// The cluster's overlay vertex id.
    pub fn id(&self) -> ClusterId {
        self.id
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Whether the cluster has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of Byzantine members.
    pub fn byz_count(&self) -> usize {
        self.byz_count
    }

    /// Number of honest members.
    pub fn honest_count(&self) -> usize {
        self.members.len() - self.byz_count
    }

    /// Fraction of Byzantine members (0 for an empty cluster).
    pub fn byz_fraction(&self) -> f64 {
        if self.members.is_empty() {
            0.0
        } else {
            self.byz_count as f64 / self.members.len() as f64
        }
    }

    /// Whether `randNum` is secure here under the given substrate mode
    /// (Byzantine < 1/3 in [`SecurityMode::Plain`], < 1/2 in
    /// [`SecurityMode::Authenticated`] — Remark 1).
    pub(crate) fn rand_num_secure_in(&self, mode: SecurityMode) -> bool {
        !self.members.is_empty() && mode.rand_num_secure(self.byz_count, self.members.len())
    }

    /// Whether the adversary alone clears the quorum rule (> 1/2).
    /// Signatures do not change this: honest members never co-sign a
    /// forged message, so forgery needs a Byzantine strict majority in
    /// both modes.
    pub(crate) fn forgeable(&self) -> bool {
        !self.members.is_empty() && self.byz_count > self.members.len() / 2
    }

    /// The paper's headline invariant: strictly more than two thirds of
    /// the members are honest.
    pub(crate) fn two_thirds_honest(&self) -> bool {
        3 * self.honest_count() > 2 * self.members.len()
    }

    /// Whether this cluster satisfies the target invariant of the given
    /// mode: > 2/3 honest in [`SecurityMode::Plain`], an honest strict
    /// majority in [`SecurityMode::Authenticated`].
    pub(crate) fn invariant_holds_in(&self, mode: SecurityMode) -> bool {
        mode.invariant_holds(self.honest_count(), self.members.len())
    }

    /// Membership test (binary search over the sorted member vec).
    pub(crate) fn contains(&self, node: NodeId) -> bool {
        self.members.binary_search(&node).is_ok()
    }

    /// Iterates members in id order.
    pub fn members(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }

    /// Members in id order, borrowed — the zero-copy view for read-only
    /// walks (exchange snapshots, audits, quorum checks).
    pub(crate) fn member_slice(&self) -> &[NodeId] {
        &self.members
    }

    /// Members as an owned, id-ordered vector (snapshot for iteration
    /// while mutating).
    pub fn member_vec(&self) -> Vec<NodeId> {
        self.members.clone()
    }

    /// Adds a member; `honest` is the simulator's ground truth. Returns
    /// `false` (and changes nothing) if already present.
    pub(crate) fn insert(&mut self, node: NodeId, honest: bool) -> bool {
        match self.members.binary_search(&node) {
            Ok(_) => false,
            Err(pos) => {
                self.members.insert(pos, node);
                if !honest {
                    self.byz_count += 1;
                }
                true
            }
        }
    }

    /// Removes a member; `honest` must match the flag used at insertion.
    /// Returns `false` if the node was not a member.
    pub(crate) fn remove(&mut self, node: NodeId, honest: bool) -> bool {
        match self.members.binary_search(&node) {
            Ok(pos) => {
                self.members.remove(pos);
                if !honest {
                    self.byz_count -= 1;
                }
                true
            }
            Err(_) => false,
        }
    }

    /// The member at `index` in id order (a direct index into the
    /// sorted member vec).
    ///
    /// # Panics
    /// Panics if `index ≥ size()`.
    pub fn member_at(&self, index: usize) -> NodeId {
        self.members[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(raw: u64) -> NodeId {
        NodeId::from_raw(raw)
    }

    #[test]
    fn insert_remove_maintain_counts() {
        let mut c = Cluster::new(ClusterId::from_raw(0));
        assert!(c.insert(nid(0), true));
        assert!(c.insert(nid(1), false));
        assert!(c.insert(nid(2), false));
        assert!(!c.insert(nid(2), false), "duplicate insert rejected");
        assert_eq!(c.size(), 3);
        assert_eq!(c.byz_count(), 2);
        assert_eq!(c.honest_count(), 1);
        assert!(c.remove(nid(1), false));
        assert!(!c.remove(nid(1), false), "double remove rejected");
        assert_eq!(c.byz_count(), 1);
        assert_eq!(c.size(), 2);
    }

    #[test]
    fn fractions_and_thresholds() {
        let mut c = Cluster::new(ClusterId::from_raw(1));
        for i in 0..9 {
            c.insert(nid(i), i >= 2); // 2 byzantine of 9
        }
        assert!((c.byz_fraction() - 2.0 / 9.0).abs() < 1e-12);
        assert!(c.rand_num_secure_in(SecurityMode::Plain), "2 < 9/3");
        assert!(!c.forgeable());
        assert!(c.two_thirds_honest());

        c.insert(nid(100), false); // 3 of 10
        assert!(
            c.rand_num_secure_in(SecurityMode::Plain),
            "3 < 10/3? 9 < 10 yes"
        );
        c.insert(nid(101), false); // 4 of 11
        assert!(!c.rand_num_secure_in(SecurityMode::Plain), "12 ≥ 11");
        assert!(!c.two_thirds_honest(), "7 honest of 11: 21 < 22");
    }

    #[test]
    fn two_thirds_boundary() {
        let mut c = Cluster::new(ClusterId::from_raw(2));
        // 6 honest, 3 byzantine: exactly 2/3 honest — NOT strictly more.
        for i in 0..6 {
            c.insert(nid(i), true);
        }
        for i in 6..9 {
            c.insert(nid(i), false);
        }
        assert!(!c.two_thirds_honest(), "exactly 2/3 fails the strict bound");
        c.insert(nid(9), true); // 7 of 10
        assert!(c.two_thirds_honest());
    }

    #[test]
    fn forgery_threshold() {
        let mut c = Cluster::new(ClusterId::from_raw(3));
        for i in 0..4 {
            c.insert(nid(i), i >= 2); // 2 byz of 4
        }
        assert!(!c.forgeable(), "2 of 4 is only half");
        c.insert(nid(4), false); // 3 byz of 5
        assert!(c.forgeable());
    }

    #[test]
    fn empty_cluster_degenerates_safely() {
        let c = Cluster::new(ClusterId::from_raw(4));
        assert!(c.is_empty());
        assert_eq!(c.byz_fraction(), 0.0);
        assert!(!c.forgeable());
        assert!(
            !c.rand_num_secure_in(SecurityMode::Plain),
            "0 < 0 is false — vacuously insecure"
        );
    }

    #[test]
    fn mode_aware_thresholds() {
        let mut c = Cluster::new(ClusterId::from_raw(6));
        // 6 honest, 4 byzantine of 10.
        for i in 0..6 {
            c.insert(nid(i), true);
        }
        for i in 6..10 {
            c.insert(nid(i), false);
        }
        assert!(!c.rand_num_secure_in(SecurityMode::Plain), "4 ≥ 10/3");
        assert!(
            c.rand_num_secure_in(SecurityMode::Authenticated),
            "4 < 10/2"
        );
        assert!(!c.invariant_holds_in(SecurityMode::Plain), "6/10 ≤ 2/3");
        assert!(
            c.invariant_holds_in(SecurityMode::Authenticated),
            "6/10 > 1/2"
        );
        // 5 of 10: even the authenticated invariant fails.
        c.remove(nid(0), true);
        c.insert(nid(10), false);
        assert!(!c.invariant_holds_in(SecurityMode::Authenticated));
        assert!(!c.rand_num_secure_in(SecurityMode::Authenticated));
    }

    #[test]
    fn plain_shorthand_matches_mode_call() {
        let mut c = Cluster::new(ClusterId::from_raw(7));
        for i in 0..9 {
            c.insert(nid(i), i >= 2);
        }
        assert_eq!(
            c.rand_num_secure_in(SecurityMode::Plain),
            c.rand_num_secure_in(SecurityMode::Plain)
        );
        assert_eq!(
            c.two_thirds_honest(),
            c.invariant_holds_in(SecurityMode::Plain)
        );
    }

    #[test]
    fn member_at_in_id_order() {
        let mut c = Cluster::new(ClusterId::from_raw(5));
        c.insert(nid(30), true);
        c.insert(nid(10), true);
        c.insert(nid(20), true);
        assert_eq!(c.member_at(0), nid(10));
        assert_eq!(c.member_at(2), nid(30));
    }
}
