//! `exchange` — the node-shuffling primitive.
//!
//! From the paper (§3.1): for each node `x` to be exchanged from cluster
//! `C`, a cluster `C'` is chosen at random with `randCl`; `C'` is
//! informed it will receive `x` and picks (via `randNum`) one of its own
//! members `y` to send back in replacement. Neighbors of both clusters
//! learn the new compositions, because the quorum rule requires every
//! receiver to know the exact membership of the sending cluster.
//!
//! Exchanging *all* members of `C` is what resets its composition to a
//! fresh τ-Bernoulli sample (Lemma 1): each incoming `y` is a uniformly
//! random member of a size-biased random cluster — that is, a uniformly
//! random node of the network.
//!
//! The `cascade` flag implements the rule the Theorem 3 proof leans on
//! for `leave`: every cluster that received one of `C`'s (possibly
//! non-uniform) nodes must itself exchange all of its nodes afterwards.
//!
//! The shuffle is a [`Kernel`] method: each `x ↔ y` pair is one
//! [`Kernel::swap`] on the live registry, so no cluster's size changes.

use crate::kernel::Kernel;
use crate::malice::RandNumPurpose;
use crate::system::NowSystem;
use now_net::{ClusterId, CostKind, NodeId};
use std::collections::BTreeSet;

impl Kernel<'_> {
    /// Exchanges every member of `c` with uniformly chosen nodes of the
    /// network (one `randCl` + one `randNum` per member). Returns the
    /// set of partner clusters that received one of `c`'s former
    /// members.
    ///
    /// With `cascade = true`, each partner cluster then exchanges all of
    /// *its* members (non-recursively — partners of partners do not
    /// cascade), matching the `leave` operation's specification.
    ///
    /// The walks of `c`'s exchange are one group, and the walks of all
    /// the partners' exchanges another: each group's walks run before
    /// its swaps and are billed as lockstep rounds
    /// ([`Kernel::rand_cl_group`]). The cascade's [`CostKind::Exchange`]
    /// span closes as one exchange per partner ([`Ledger::end_as`]).
    ///
    /// [`Ledger::end_as`]: now_net::Ledger::end_as
    pub(crate) fn exchange_all(&mut self, c: ClusterId, cascade: bool) -> BTreeSet<ClusterId> {
        self.ledger.begin(CostKind::Exchange);
        let partners = self.exchange_walks(&[c]);
        let group = self.exchange_swaps(c, &partners);
        self.ledger.end();
        if cascade && !group.is_empty() {
            self.ledger.begin(CostKind::Exchange);
            let partners = self.exchange_walks(&group);
            let mut rest = &partners[..];
            for &r in &group {
                let (own, tail) = rest.split_at(self.exchanged(r));
                self.exchange_swaps(r, own);
                rest = tail;
            }
            self.ledger.end_as(group.len() as u64);
        }
        group.into_iter().collect()
    }

    /// How many of `c`'s members one exchange moves: all of them, or,
    /// with the [`crate::NowParams::with_exchange_cap`] ablation set, at
    /// most the cap (the regime Lemmas 2–3 analyze between full
    /// refreshes).
    fn exchanged(&self, c: ClusterId) -> usize {
        let size = self.members(c).len();
        self.params.exchange_cap().map_or(size, |cap| cap.min(size))
    }

    /// The partner walks of the exchanges of every cluster in `group`,
    /// as one group of walks: [`Kernel::exchanged`] calls from each, in
    /// order.
    fn exchange_walks(&mut self, group: &[ClusterId]) -> Vec<ClusterId> {
        let starts: Vec<(ClusterId, usize)> =
            group.iter().map(|&c| (c, self.exchanged(c))).collect();
        let mut partners = Vec::with_capacity(starts.iter().map(|&(_, n)| n).sum());
        self.rand_cl_group(&starts, &mut partners);
        partners
    }

    /// The swaps of one exchange of `c`, whose walks found `partners`:
    /// the `i`-th member exchanged goes to the `i`-th partner. Returns
    /// the partners that received a member, in ascending order.
    fn exchange_swaps(&mut self, c: ClusterId, partners: &[ClusterId]) -> Vec<ClusterId> {
        // The exchange's one membership snapshot, read as its swaps
        // start: the loop below edits `c` while it iterates.
        let mut members = self.members(c).to_vec();
        if partners.len() < members.len() {
            let picks = now_graph::sample::sample_distinct(members.len(), partners.len(), self.rng);
            // INVARIANT: `sample_distinct(n, ..)` yields indices below
            // `n = members.len()`.
            members = picks.into_iter().map(|i| members[i]).collect();
        }
        let mut receivers = Vec::with_capacity(partners.len());

        for (x, &partner) in members.into_iter().zip(partners) {
            // `x` is still in `c`: only a swap takes a node out of a
            // cluster, and the one leaving `c` in an earlier iteration
            // was that iteration's own `x` — its `y` came from a
            // `partner ≠ c`, so it was never an unprocessed member of
            // the snapshot.
            if partner == c {
                continue; // self-exchange is a no-op
            }
            // Partner picks a uniformly random member via randNum; if
            // the partner is compromised, Malice chooses the victim.
            let at_partner = self.security(partner);
            let partner_size = at_partner.size as usize;
            if partner_size == 0 {
                continue;
            }
            let idx = self.draw(
                partner,
                at_partner.size,
                RandNumPurpose::MemberIndex,
                at_partner,
            ) as usize;
            // INVARIANT: `partner_size > 0` (checked above); `min`
            // clamps the drawn index into bounds.
            let mut y = self.members(partner)[idx.min(partner_size - 1)];
            // A neutral adversary ignores the labels: skip building them.
            if !at_partner.secure && !self.malice.is_neutral() {
                let labeled: Vec<(NodeId, bool)> = self
                    .members(partner)
                    .iter()
                    .map(|&m| (m, self.honesty(m)))
                    .collect();
                if let Some(forced) = self.malice.exchange_victim(&labeled, self.rng) {
                    if self.members(partner).binary_search(&forced).is_ok() {
                        y = forced;
                    }
                }
            }
            // Swap x ↔ y: `y` goes back "in replacement" (§3.1), so
            // neither cluster's size changes.
            self.swap(x, c, y, partner);
            receivers.push(partner);
            // Transfer + view updates inside both clusters: each member
            // of each cluster learns the newcomer (1 round).
            let size_c = self.members(c).len() as u64;
            let size_p = self.members(partner).len() as u64;
            self.ledger.add_messages(size_c + size_p);
            self.ledger.add_rounds(1);
        }

        // Both `c` and the partners announce their final compositions to
        // their overlay neighbors.
        receivers.sort_unstable();
        receivers.dedup();
        self.notify_neighbors(c);
        for &partner in &receivers {
            self.notify_neighbors(partner);
        }
        receivers
    }
}

impl NowSystem {
    /// Exchanges every member of `c` on the live system; returns the
    /// partner clusters that received one of `c`'s former members. With
    /// `cascade = true` each partner then exchanges all of its members
    /// too.
    ///
    /// Costs land under [`CostKind::Exchange`] (inclusive of the inner
    /// `randCl`/`randNum` invocations; the paper's stated complexity for
    /// one exchange is `O(log⁶N)` messages and `O(log⁴N)` rounds).
    ///
    /// # Panics
    /// Panics if `c` is not a live cluster.
    pub fn exchange_all(&mut self, c: ClusterId, cascade: bool) -> BTreeSet<ClusterId> {
        assert!(
            self.registry.contains_cluster(c),
            "exchange_all: unknown cluster {c}"
        );
        self.kernel().exchange_all(c, cascade)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NowParams;
    use now_net::NodeId;
    use std::collections::BTreeSet;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.25, seed)
    }

    #[test]
    fn exchange_preserves_population_and_sizes() {
        let mut sys = system(200, 1);
        let c = sys.cluster_ids()[0];
        let sizes_before: Vec<usize> = sys.clusters().map(|cl| cl.size()).collect();
        let all_before: BTreeSet<NodeId> = sys.node_ids().into_iter().collect();
        sys.exchange_all(c, false);
        let sizes_after: Vec<usize> = sys.clusters().map(|cl| cl.size()).collect();
        let all_after: BTreeSet<NodeId> = sys.node_ids().into_iter().collect();
        assert_eq!(sizes_before, sizes_after, "exchange is size-preserving");
        assert_eq!(all_before, all_after, "no node lost or duplicated");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn exchange_replaces_most_members() {
        let mut sys = system(300, 2);
        let c = sys.cluster_ids()[0];
        let before: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        sys.exchange_all(c, false);
        let after: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        let kept = before.intersection(&after).count();
        // Self-exchanges keep a ~|C|/n fraction; most members must go.
        assert!(
            kept * 3 < before.len() * 2,
            "only {kept}/{} replaced",
            before.len()
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn cascade_reaches_receivers() {
        let mut sys = system(200, 3);
        let c = sys.cluster_ids()[0];
        let receivers = sys.exchange_all(c, true);
        assert!(!receivers.is_empty());
        let s = sys.ledger().stats(CostKind::Exchange);
        // One exchange for c + one per receiver.
        assert_eq!(s.count, 1 + receivers.len() as u64);
        sys.check_consistency().unwrap();
    }

    /// The cascade ablation ([`NowParams::with_cascade`]) as a leave
    /// runs it: on one system and the same leaves, a leave that merges
    /// nothing books one exchange with the cascade off, and more than
    /// one (its receivers') with it on.
    #[test]
    fn a_leave_without_the_cascade_exchanges_once() {
        for cascade in [true, false] {
            let params = NowParams::for_capacity(1 << 10)
                .unwrap()
                .with_cascade(cascade);
            let mut sys = NowSystem::init_fast(params, 200, 0.25, 9);
            let mut leaves = 0;
            for node in sys.node_ids().into_iter().step_by(9).take(12) {
                let exchanges = sys.ledger().stats(CostKind::Exchange).count;
                let merges = sys.op_counts().3;
                sys.leave(node).unwrap();
                if sys.op_counts().3 > merges {
                    continue;
                }
                let booked = sys.ledger().stats(CostKind::Exchange).count - exchanges;
                assert_eq!(
                    booked == 1,
                    !cascade,
                    "cascade {cascade}: {booked} exchanges"
                );
                leaves += 1;
            }
            assert!(
                leaves >= 8,
                "cascade {cascade}: {leaves} leaves merged nothing"
            );
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn exchange_costs_dominate_their_parts() {
        let mut sys = system(200, 4);
        let c = sys.cluster_ids()[0];
        sys.exchange_all(c, false);
        let ex = sys.ledger().stats(CostKind::Exchange);
        let rc = sys.ledger().stats(CostKind::RandCl);
        assert_eq!(ex.count, 1);
        assert!(
            ex.total_messages >= rc.total_messages,
            "inclusive accounting: exchange ≥ its randCls"
        );
        assert!(rc.count as usize >= sys.cluster(c).unwrap().size() / 2);
    }

    /// Lemma 1's mechanism: a cluster packed with Byzantine nodes
    /// returns to the global corruption rate after one full exchange.
    #[test]
    fn full_exchange_detoxifies_a_polluted_cluster() {
        let mut sys = system(400, 5);
        let victim = sys.cluster_ids()[0];
        // Pollute: move byzantine nodes in until the cluster is ~90% byz.
        let byz_nodes = sys.byz_node_ids();
        let mut moved = 0;
        for b in byz_nodes {
            if sys.node_cluster(b).unwrap() != victim {
                let target_size = sys.cluster(victim).unwrap().size();
                // Swap an honest member out to keep size constant.
                if let Some(h) = sys
                    .cluster(victim)
                    .unwrap()
                    .member_vec()
                    .into_iter()
                    .find(|&m| sys.is_honest(m).unwrap())
                {
                    let other = sys.node_cluster(b).unwrap();
                    sys.move_node(b, victim);
                    sys.move_node(h, other);
                    moved += 1;
                    assert_eq!(sys.cluster(victim).unwrap().size(), target_size);
                }
            }
            if sys.cluster(victim).unwrap().byz_fraction() > 0.85 {
                break;
            }
        }
        assert!(moved > 5);
        let polluted = sys.cluster(victim).unwrap().byz_fraction();
        assert!(polluted > 0.7, "setup failed: {polluted}");

        sys.exchange_all(victim, false);
        let cured = sys.cluster(victim).unwrap().byz_fraction();
        // Global rate is 0.25; the cured cluster should be near it.
        assert!(
            cured < 0.5,
            "exchange failed to detoxify: {polluted} → {cured}"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn exchange_cap_limits_shuffle_volume() {
        let params = NowParams::for_capacity(1 << 10)
            .unwrap()
            .with_exchange_cap(Some(3));
        let mut sys = NowSystem::init_fast(params, 300, 0.25, 8);
        let c = sys.cluster_ids()[0];
        let before: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        sys.exchange_all(c, false);
        let after: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        let replaced = before.difference(&after).count();
        assert!(replaced <= 3, "cap 3 but {replaced} members were exchanged");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn uncapped_exchange_touches_whole_membership() {
        // Control for the cap test: same system, no cap.
        let mut sys = system(300, 8);
        let c = sys.cluster_ids()[0];
        let size = sys.cluster(c).unwrap().size();
        let before: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        sys.exchange_all(c, false);
        let after: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        let replaced = before.difference(&after).count();
        assert!(replaced > size / 2);
    }

    #[test]
    #[should_panic(expected = "unknown cluster")]
    fn exchange_unknown_cluster_panics() {
        let mut sys = system(100, 6);
        let ghost = now_net::ClusterId::from_raw(4242);
        let _ = sys.exchange_all(ghost, false);
    }

    #[test]
    fn exchange_on_single_cluster_system_is_noop() {
        let mut sys = system(20, 7);
        assert_eq!(sys.cluster_count(), 1);
        let c = sys.cluster_ids()[0];
        let before: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        let receivers = sys.exchange_all(c, true);
        assert!(receivers.is_empty());
        let after: BTreeSet<NodeId> = sys.cluster(c).unwrap().members().collect();
        assert_eq!(before, after);
    }
}
