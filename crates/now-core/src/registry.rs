//! Slab-backed membership registry.
//!
//! The membership state of a NOW deployment used to live in sharded
//! `BTreeMap`s — one node → record map and one cluster map, split over
//! fixed shard arrays. Every operation's walks read this state at every
//! hop, and pointer-chasing tree layouts dominate such a walk, so this
//! module stores the hot state in contiguous slabs instead:
//!
//! * **cluster slab** — [`Cluster`] objects (sorted member vecs plus
//!   cached Byzantine counts) live in one `Vec` of slots, recycled
//!   through a freelist on merge. Lookup by [`ClusterId`] is a direct
//!   array index (`cluster_index[raw id]`); the parallel sorted id/slot
//!   arrays stay the canonical iteration order, and
//!   [`Registry::cluster_ids`] is a borrow of the sorted cache. The
//!   walk table has one row per slot, so the slab stays compact: merges
//!   free slots and splits reuse them.
//! * **direct node table** — one 8-byte entry per node id ever issued,
//!   indexed by raw id: the slot of the node's home cluster in the
//!   cluster slab and its honesty, with `NO_SLOT` marking an absent
//!   node. Ids are allocated sequentially by [`now_net::IdGen`], so the
//!   table stays dense, a lookup is one load into it and one into the
//!   cluster slab, and [`Registry::node_ids`] is an ascending scan,
//!   already sorted.
//! * **exact aggregates** — a global population counter, a global
//!   Byzantine counter, and the sorted cluster-id cache, all maintained
//!   incrementally, so `population()` / `byz_population()` /
//!   `cluster_ids()` are O(1).
//!
//! **Determinism.** Slot numbers are *internal* names: nothing
//! observable (ids, member vecs, counters, reports) depends on them,
//! and every public iteration order is canonical id order
//! ([`Registry::cluster_ids`], [`Registry::node_ids`],
//! [`Registry::clusters`]). Slab recycling is deterministic too: the
//! registry has one writer (`&mut self`), and every operation edits it
//! in run order, so the freelist sees the same sequence on every run.
//!
//! Every mutation goes through the registry ([`Registry::attach`],
//! [`Registry::detach`], [`Registry::move_to`]), which keeps the node
//! table, the member vecs, and the aggregate counters in lockstep;
//! [`Registry::check_invariants`] re-derives all of them from scratch
//! and is run by `NowSystem::check_consistency` after every operation in
//! the test suites, so the slab layout is *exact*, not approximate.

use crate::cluster::{Cluster, ClusterSecurity};
use crate::params::SecurityMode;
use now_net::{ClusterId, NodeId};

/// Sentinel in the node table and the direct cluster index: "no slot".
const NO_SLOT: u32 = u32::MAX;

/// One node's registry entry: the simulator's ground-truth honesty flag
/// and the cluster the node currently belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// Ground-truth honesty (the protocol itself never reads this except
    /// through the ideal-functionality thresholds of [`crate::Malice`]).
    pub honest: bool,
    /// Home cluster.
    pub cluster: ClusterId,
}

/// O(1) per-cluster aggregate: member count and honest-member count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClusterStats {
    /// Total members.
    pub size: usize,
    /// Honest members.
    pub honest: usize,
}

impl ClusterStats {
    /// Byzantine members.
    pub fn byz(&self) -> usize {
        self.size - self.honest
    }
}

/// One slot of the cluster slab.
#[derive(Debug, Clone)]
struct ClusterSlot {
    cluster: Cluster,
    live: bool,
}

/// One entry of the direct node table.
#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    /// Slot of the home cluster in the cluster slab; `NO_SLOT` if the
    /// node is absent.
    cluster_slot: u32,
    honest: bool,
}

impl NodeEntry {
    const ABSENT: NodeEntry = NodeEntry {
        cluster_slot: NO_SLOT,
        honest: false,
    };
}

/// The slab-backed membership store (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// The cluster slab; freed slots are recycled via `cluster_free`.
    cluster_slots: Vec<ClusterSlot>,
    cluster_free: Vec<u32>,
    /// All live cluster ids, sorted ascending (kept exact on
    /// insert/remove; O(#C) memmove there buys O(1) random access and
    /// allocation-free iteration everywhere else).
    sorted_clusters: Vec<ClusterId>,
    /// Slab slot of `sorted_clusters[i]` (parallel array).
    sorted_slots: Vec<u32>,
    /// Direct map `raw ClusterId → cluster slab slot` (`NO_SLOT` =
    /// absent): grown on create, reset on remove, never on lookup.
    /// Cluster ids are sequential too, so this stays dense.
    cluster_index: Vec<u32>,
    /// The node table: `raw NodeId → entry`, grown on attach, never on
    /// lookup. Ids are sequential, so this stays dense.
    nodes: Vec<NodeEntry>,
    population: u64,
    byz_population: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Slab slot of a live cluster, by id (direct index).
    #[inline]
    pub(crate) fn cluster_slot_of(&self, id: ClusterId) -> Option<u32> {
        match self.cluster_index.get(id.raw() as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// The live cluster in `slot` (a slot from
    /// [`Registry::cluster_slot_of`], resolved in the same serial
    /// phase).
    #[inline]
    pub(crate) fn cluster_in_slot(&self, slot: u32) -> &Cluster {
        let s = &self.cluster_slots[slot as usize];
        debug_assert!(s.live);
        &s.cluster
    }

    /// Size and `randNum` security under `mode` of the cluster in
    /// `slot`: what every walk hop and every collective draw reads, by
    /// slot, so that a hop, which has the next cluster's slot from its
    /// table row, translates no id.
    #[inline]
    pub(crate) fn security_at(&self, slot: u32, mode: SecurityMode) -> ClusterSecurity {
        let c = self.cluster_in_slot(slot);
        ClusterSecurity::of(c.size(), c.byz_count(), mode)
    }

    /// The id of the cluster in `slot`, or `None` if the slot is free.
    pub(crate) fn cluster_id_in_slot(&self, slot: u32) -> Option<ClusterId> {
        let s = &self.cluster_slots[slot as usize];
        s.live.then(|| s.cluster.id())
    }

    /// Length of the cluster slab, live and free slots alike: the
    /// bound on every slot [`Registry::cluster_slot_of`] returns.
    pub(crate) fn cluster_slab_len(&self) -> usize {
        self.cluster_slots.len()
    }

    /// The entry of a live node, by id (direct index).
    #[inline]
    fn entry(&self, node: NodeId) -> Option<NodeEntry> {
        match self.nodes.get(node.raw() as usize) {
            Some(&entry) if entry.cluster_slot != NO_SLOT => Some(entry),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Aggregates.
    // ------------------------------------------------------------------

    /// Current population (exact counter, O(1)).
    pub fn population(&self) -> u64 {
        self.population
    }

    /// Current Byzantine population (exact counter, O(1)).
    pub fn byz_population(&self) -> u64 {
        self.byz_population
    }

    /// Whether no node is registered.
    pub fn is_empty(&self) -> bool {
        self.population == 0
    }

    // ------------------------------------------------------------------
    // Node table.
    // ------------------------------------------------------------------

    /// The record of a live node (direct table index, O(1)).
    pub fn get(&self, node: NodeId) -> Option<NodeRecord> {
        let entry = self.entry(node)?;
        Some(NodeRecord {
            honest: entry.honest,
            cluster: self.cluster_slots[entry.cluster_slot as usize].cluster.id(),
        })
    }

    /// Whether the node is registered.
    pub fn contains(&self, node: NodeId) -> bool {
        self.entry(node).is_some()
    }

    /// All node ids, ascending: one scan of the node table, which is
    /// keyed by raw id and therefore already sorted.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.population as usize);
        for (raw, entry) in self.nodes.iter().enumerate() {
            if entry.cluster_slot != NO_SLOT {
                out.push(NodeId::from_raw(raw as u64));
            }
        }
        out
    }

    /// Ids of the Byzantine nodes, ascending (same scan, filtered).
    pub fn byz_node_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.byz_population as usize);
        for (raw, entry) in self.nodes.iter().enumerate() {
            if entry.cluster_slot != NO_SLOT && !entry.honest {
                out.push(NodeId::from_raw(raw as u64));
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Cluster store.
    // ------------------------------------------------------------------

    /// Creates an empty cluster.
    ///
    /// # Panics
    /// Panics if the id is already live.
    pub fn create_cluster(&mut self, id: ClusterId) {
        let pos = match self.sorted_clusters.binary_search(&id) {
            // INVARIANT: documented `# Panics` contract — cluster ids
            // come from a monotone IdGen, so a duplicate is a caller
            // bug, not a runtime condition.
            Ok(_) => panic!("cluster {id} created twice"),
            Err(pos) => pos,
        };
        let slot = match self.cluster_free.pop() {
            Some(slot) => {
                let s = &mut self.cluster_slots[slot as usize];
                debug_assert!(!s.live);
                s.cluster = Cluster::new(id);
                s.live = true;
                slot
            }
            None => {
                self.cluster_slots.push(ClusterSlot {
                    cluster: Cluster::new(id),
                    live: true,
                });
                (self.cluster_slots.len() - 1) as u32
            }
        };
        self.sorted_clusters.insert(pos, id);
        self.sorted_slots.insert(pos, slot);
        let raw = id.raw() as usize;
        if self.cluster_index.len() <= raw {
            self.cluster_index.resize(raw + 1, NO_SLOT);
        }
        self.cluster_index[raw] = slot;
    }

    /// Removes a cluster from the store, freeing its slab slot.
    ///
    /// # Panics
    /// Panics if the cluster still has members (detach or move them
    /// first) — removing a populated cluster would corrupt the counters.
    pub fn remove_cluster(&mut self, id: ClusterId) -> Option<Cluster> {
        let pos = self.sorted_clusters.binary_search(&id).ok()?;
        let slot = self.sorted_slots[pos];
        let s = &mut self.cluster_slots[slot as usize];
        assert!(
            s.cluster.is_empty(),
            "cluster {id} removed while holding {} members",
            s.cluster.size()
        );
        let removed = std::mem::replace(&mut s.cluster, Cluster::new(id));
        s.live = false;
        self.cluster_free.push(slot);
        self.sorted_clusters.remove(pos);
        self.sorted_slots.remove(pos);
        self.cluster_index[id.raw() as usize] = NO_SLOT;
        Some(removed)
    }

    /// A cluster by id.
    pub fn cluster(&self, id: ClusterId) -> Option<&Cluster> {
        self.cluster_slot_of(id)
            .map(|slot| self.cluster_in_slot(slot))
    }

    /// Whether the cluster is live.
    pub fn contains_cluster(&self, id: ClusterId) -> bool {
        self.cluster_slot_of(id).is_some()
    }

    /// Number of live clusters.
    pub fn cluster_count(&self) -> usize {
        self.sorted_clusters.len()
    }

    /// Live cluster ids, ascending (cached; no allocation on the
    /// registry's side beyond the slice view).
    pub fn cluster_ids(&self) -> &[ClusterId] {
        &self.sorted_clusters
    }

    /// The `idx`-th live cluster id in ascending order (O(1); used by
    /// uniform contact-cluster draws).
    ///
    /// # Panics
    /// Panics if `idx ≥ cluster_count()`.
    pub fn cluster_id_at(&self, idx: usize) -> ClusterId {
        self.sorted_clusters[idx]
    }

    /// Iterates clusters in ascending id order.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.sorted_slots
            .iter()
            .map(move |&slot| &self.cluster_slots[slot as usize].cluster)
    }

    /// Per-cluster size / honest-count aggregate, O(1) after the slot
    /// lookup ([`Cluster`] caches its Byzantine count).
    pub fn cluster_stats(&self, id: ClusterId) -> Option<ClusterStats> {
        self.cluster(id).map(|c| ClusterStats {
            size: c.size(),
            honest: c.honest_count(),
        })
    }

    // ------------------------------------------------------------------
    // Membership mutations (the only writers of the aggregates).
    // ------------------------------------------------------------------

    /// Registers `node` as a member of `cluster`.
    ///
    /// # Panics
    /// Panics if the node is already registered or the cluster is not
    /// live.
    pub fn attach(&mut self, node: NodeId, honest: bool, cluster: ClusterId) {
        // INVARIANT: documented `# Panics` contract — attach targets
        // come from the caller's live cluster choice; a dead id here is
        // an ordering bug upstream, not recoverable state.
        let cslot = self
            .cluster_slot_of(cluster)
            .unwrap_or_else(|| panic!("attach into dead cluster {cluster}"));
        assert!(
            self.cluster_slots[cslot as usize]
                .cluster
                .insert(node, honest),
            "{node} already in {cluster}"
        );
        let raw = node.raw() as usize;
        if self.nodes.len() <= raw {
            self.nodes.resize(raw + 1, NodeEntry::ABSENT);
        }
        let entry = &mut self.nodes[raw];
        assert!(entry.cluster_slot == NO_SLOT, "{node} attached twice");
        *entry = NodeEntry {
            cluster_slot: cslot,
            honest,
        };
        self.population += 1;
        if !honest {
            self.byz_population += 1;
        }
    }

    /// Unregisters `node`; returns its final record.
    pub fn detach(&mut self, node: NodeId) -> Option<NodeRecord> {
        let NodeEntry {
            cluster_slot,
            honest,
        } = self.entry(node)?;
        self.nodes[node.raw() as usize] = NodeEntry::ABSENT;
        let c = &mut self.cluster_slots[cluster_slot as usize];
        assert!(c.cluster.remove(node, honest), "member set drifted");
        self.population -= 1;
        if !honest {
            self.byz_population -= 1;
        }
        Some(NodeRecord {
            honest,
            cluster: c.cluster.id(),
        })
    }

    /// Moves `node` to cluster `to` (no-op if already there); returns
    /// the previous home, or `None` if the node is unknown.
    ///
    /// # Panics
    /// Panics if `to` is not a live cluster.
    pub fn move_to(&mut self, node: NodeId, to: ClusterId) -> Option<ClusterId> {
        let NodeEntry {
            cluster_slot: from_slot,
            honest,
        } = self.entry(node)?;
        let from_id = self.cluster_slots[from_slot as usize].cluster.id();
        if from_id == to {
            return Some(from_id);
        }
        // INVARIANT: documented `# Panics` contract — the kernel moves
        // nodes only into clusters it just read from the overlay, which
        // names live clusters alone between splits and merges.
        let to_slot = self
            .cluster_slot_of(to)
            .unwrap_or_else(|| panic!("move into dead cluster {to}"));
        assert!(
            self.cluster_slots[from_slot as usize]
                .cluster
                .remove(node, honest),
            "member set drifted"
        );
        assert!(
            self.cluster_slots[to_slot as usize]
                .cluster
                .insert(node, honest),
            "{node} already in {to}"
        );
        self.nodes[node.raw() as usize].cluster_slot = to_slot;
        Some(from_id)
    }

    // ------------------------------------------------------------------
    // Exactness.
    // ------------------------------------------------------------------

    /// Re-derives every aggregate and cross-checks the node table, the
    /// cluster slab and its freelist, the member vecs, the cached
    /// Byzantine counts, the sorted cluster cache, the direct cluster
    /// map, and the global counters.
    /// O(ids issued + #C + slab capacity).
    ///
    /// # Errors
    /// A human-readable description of the first inconsistency found.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Node table: every entry names a live home cluster that holds
        // the node.
        let mut seen_nodes = 0u64;
        let mut seen_byz = 0u64;
        for (raw, entry) in self.nodes.iter().enumerate() {
            let slot = entry.cluster_slot;
            if slot == NO_SLOT {
                continue;
            }
            let node = NodeId::from_raw(raw as u64);
            let Some(cs) = self.cluster_slots.get(slot as usize) else {
                return Err(format!("{node} home slot {slot} out of range"));
            };
            if !cs.live {
                return Err(format!("{node} points at dead cluster slot {slot}"));
            }
            if !cs.cluster.contains(node) {
                return Err(format!(
                    "{node} missing from its cluster {}",
                    cs.cluster.id()
                ));
            }
            seen_nodes += 1;
            if !entry.honest {
                seen_byz += 1;
            }
        }
        if seen_nodes != self.population {
            return Err(format!(
                "population counter drift: counted {seen_nodes}, cached {}",
                self.population
            ));
        }
        if seen_byz != self.byz_population {
            return Err(format!(
                "byz counter drift: counted {seen_byz}, cached {}",
                self.byz_population
            ));
        }

        // Cluster store: sorted cache + slab + member vecs + byz caches.
        if self.sorted_clusters.len() != self.sorted_slots.len() {
            return Err("sorted cluster cache arrays disagree in length".to_string());
        }
        // INVARIANT: `windows(2)` only yields slices of length 2.
        if self.sorted_clusters.windows(2).any(|w| w[0] >= w[1]) {
            return Err("sorted cluster cache out of order".to_string());
        }
        let mut memberships = 0u64;
        for (pos, (&cid, &slot)) in self
            .sorted_clusters
            .iter()
            .zip(&self.sorted_slots)
            .enumerate()
        {
            let Some(cs) = self.cluster_slots.get(slot as usize) else {
                return Err(format!("sorted cache pos {pos} slot {slot} out of range"));
            };
            if !cs.live {
                return Err(format!("cluster {cid} cached at dead slot {slot}"));
            }
            if cs.cluster.id() != cid {
                return Err(format!("cluster id mismatch at {cid}"));
            }
            let mut byz = 0usize;
            let mut prev: Option<NodeId> = None;
            for m in cs.cluster.members() {
                if prev.is_some_and(|p| p >= m) {
                    return Err(format!("member vec of {cid} out of order"));
                }
                prev = Some(m);
                let Some(rec) = self.get(m) else {
                    return Err(format!("{m} in cluster {cid} but not in node table"));
                };
                if rec.cluster != cid {
                    return Err(format!("{m} node table points elsewhere than {cid}"));
                }
                if !rec.honest {
                    byz += 1;
                }
                memberships += 1;
            }
            if byz != cs.cluster.byz_count() {
                return Err(format!(
                    "byz cache drift in {cid}: cached {}, actual {byz}",
                    cs.cluster.byz_count()
                ));
            }
        }
        if memberships != self.population {
            return Err(format!(
                "membership drift: {memberships} memberships vs {} table entries",
                self.population
            ));
        }
        // Direct cluster map ↔ sorted cache, both directions: every live
        // id maps to its live slot, and every other entry is the
        // sentinel (so a recycled slot answers to its new id only).
        for (&cid, &slot) in self.sorted_clusters.iter().zip(&self.sorted_slots) {
            if self.cluster_slot_of(cid) != Some(slot) {
                return Err(format!(
                    "direct cluster map drift: {cid} lives in slot {slot}, map says {:?}",
                    self.cluster_slot_of(cid)
                ));
            }
        }
        for (raw, &slot) in self.cluster_index.iter().enumerate() {
            if slot == NO_SLOT {
                continue;
            }
            let cid = ClusterId::from_raw(raw as u64);
            match self.cluster_slots.get(slot as usize) {
                Some(cs) if cs.live && cs.cluster.id() == cid => {}
                _ => {
                    return Err(format!(
                        "direct cluster map entry {cid} names slot {slot}, which does not hold it"
                    ))
                }
            }
        }
        let live_clusters = self.cluster_slots.iter().filter(|s| s.live).count();
        if live_clusters != self.sorted_clusters.len() {
            return Err(format!(
                "sorted cache size drift: {} cached vs {live_clusters} live slots",
                self.sorted_clusters.len()
            ));
        }
        if self.cluster_free.len() + live_clusters != self.cluster_slots.len() {
            return Err(format!(
                "cluster freelist drift: {} free + {live_clusters} live != {} slots",
                self.cluster_free.len(),
                self.cluster_slots.len()
            ));
        }
        for &slot in &self.cluster_free {
            match self.cluster_slots.get(slot as usize) {
                Some(s) if !s.live => {}
                _ => return Err(format!("cluster freelist holds live/bogus slot {slot}")),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(raw: u64) -> NodeId {
        NodeId::from_raw(raw)
    }

    fn cid(raw: u64) -> ClusterId {
        ClusterId::from_raw(raw)
    }

    fn registry_with(clusters: u64, nodes_per: u64) -> Registry {
        let mut reg = Registry::new();
        for c in 0..clusters {
            reg.create_cluster(cid(c));
        }
        let mut n = 0u64;
        for c in 0..clusters {
            for i in 0..nodes_per {
                reg.attach(nid(n), i % 3 != 0, cid(c));
                n += 1;
            }
        }
        reg
    }

    #[test]
    fn counters_are_exact() {
        let reg = registry_with(5, 9);
        assert_eq!(reg.population(), 45);
        assert_eq!(reg.byz_population(), 15); // every third arrival
        assert_eq!(reg.cluster_count(), 5);
        reg.check_invariants().unwrap();
    }

    #[test]
    fn node_ids_are_sorted_across_shards() {
        let reg = registry_with(3, 50);
        let ids = reg.node_ids();
        assert_eq!(ids.len(), 150);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let byz = reg.byz_node_ids();
        assert!(byz.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(byz.len(), 51);
    }

    #[test]
    fn attach_detach_roundtrip() {
        let mut reg = registry_with(2, 4);
        let rec = reg.detach(nid(0)).unwrap();
        assert_eq!(rec.cluster, cid(0));
        assert!(!rec.honest);
        assert_eq!(reg.population(), 7);
        assert_eq!(reg.byz_population(), 3); // two per cluster, one detached
        assert!(reg.detach(nid(0)).is_none(), "double detach is None");
        reg.attach(nid(0), rec.honest, cid(1));
        assert_eq!(reg.get(nid(0)).unwrap().cluster, cid(1));
        reg.check_invariants().unwrap();
    }

    #[test]
    fn move_updates_both_sides() {
        let mut reg = registry_with(3, 5);
        assert_eq!(reg.move_to(nid(1), cid(2)), Some(cid(0)));
        assert_eq!(reg.get(nid(1)).unwrap().cluster, cid(2));
        assert!(reg.cluster(cid(2)).unwrap().contains(nid(1)));
        assert!(!reg.cluster(cid(0)).unwrap().contains(nid(1)));
        // Self-move is a no-op.
        assert_eq!(reg.move_to(nid(1), cid(2)), Some(cid(2)));
        // Unknown node.
        assert_eq!(reg.move_to(nid(999), cid(0)), None);
        reg.check_invariants().unwrap();
    }

    #[test]
    fn cluster_stats_track_mutations() {
        let mut reg = registry_with(2, 6);
        let s0 = reg.cluster_stats(cid(0)).unwrap();
        assert_eq!(s0.size, 6);
        assert_eq!(s0.byz(), 2);
        reg.move_to(nid(0), cid(1)).unwrap();
        assert_eq!(reg.cluster_stats(cid(0)).unwrap().size, 5);
        assert_eq!(reg.cluster_stats(cid(1)).unwrap().size, 7);
        assert!(reg.cluster_stats(cid(42)).is_none());
    }

    #[test]
    fn sorted_cluster_cache_is_maintained() {
        let mut reg = Registry::new();
        for raw in [5u64, 1, 9, 3] {
            reg.create_cluster(cid(raw));
        }
        assert_eq!(reg.cluster_ids(), &[cid(1), cid(3), cid(5), cid(9)]);
        assert_eq!(reg.cluster_id_at(2), cid(5));
        reg.remove_cluster(cid(5)).unwrap();
        assert_eq!(reg.cluster_ids(), &[cid(1), cid(3), cid(9)]);
        assert!(reg.remove_cluster(cid(5)).is_none());
        let order: Vec<ClusterId> = reg.clusters().map(|c| c.id()).collect();
        assert_eq!(order, vec![cid(1), cid(3), cid(9)]);
        reg.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "created twice")]
    fn duplicate_cluster_rejected() {
        let mut reg = Registry::new();
        reg.create_cluster(cid(1));
        reg.create_cluster(cid(1));
    }

    #[test]
    #[should_panic(expected = "holding")]
    fn removing_populated_cluster_panics() {
        let mut reg = registry_with(1, 3);
        reg.remove_cluster(cid(0));
    }

    #[test]
    #[should_panic(expected = "attached twice")]
    fn duplicate_attach_rejected() {
        let mut reg = registry_with(2, 1);
        reg.attach(nid(0), true, cid(1));
    }

    /// A detached node's entry reads absent, the node table grows only
    /// to the largest id attached, and a freed cluster slot is recycled
    /// through the freelist.
    #[test]
    fn node_table_and_cluster_slab_recycle() {
        let mut reg = registry_with(2, 2);
        reg.detach(nid(0)).unwrap();
        assert!(!reg.contains(nid(0)));
        assert!(reg.get(nid(0)).is_none());
        assert!(reg.get(nid(100)).is_none());
        assert_eq!(reg.nodes.len(), 4, "lookups never grow the table");
        reg.attach(nid(100), true, cid(1));
        assert_eq!(reg.nodes.len(), 101);
        assert_eq!(reg.node_ids(), [nid(1), nid(2), nid(3), nid(100)]);
        reg.attach(nid(0), false, cid(1));
        assert_eq!(reg.get(nid(0)).unwrap().cluster, cid(1));

        let old_cluster = reg.cluster_slot_of(cid(0)).unwrap();
        for n in reg.cluster(cid(0)).unwrap().member_vec() {
            reg.detach(n).unwrap();
        }
        reg.remove_cluster(cid(0)).unwrap();
        reg.create_cluster(cid(7));
        assert_eq!(reg.cluster_slot_of(cid(7)), Some(old_cluster));
        reg.check_invariants().unwrap();
    }

    /// The direct cluster map answers for live ids only — removed,
    /// never-issued and out-of-range ids read as absent without growing
    /// it — and a slot recycled by split-after-merge is reachable only
    /// under its new id.
    #[test]
    fn direct_cluster_map_answers_only_for_live_ids() {
        let mut reg = registry_with(3, 2);
        let map_len = reg.cluster_index.len();
        let ghost = cid(99_999);
        assert!(reg.cluster(ghost).is_none());
        assert!(!reg.contains_cluster(ghost));
        assert!(reg.cluster_stats(ghost).is_none());
        assert!(reg.remove_cluster(ghost).is_none());
        assert!(reg.cluster(cid(3)).is_none(), "never issued");
        assert_eq!(
            reg.cluster_index.len(),
            map_len,
            "lookups never grow the map"
        );

        let slot = reg.cluster_slot_of(cid(1)).unwrap();
        for n in reg.cluster(cid(1)).unwrap().member_vec() {
            reg.move_to(n, cid(0)).unwrap();
        }
        reg.remove_cluster(cid(1)).unwrap();
        assert_eq!(reg.cluster_slot_of(cid(1)), None, "removed id reads absent");
        reg.create_cluster(cid(3));
        assert_eq!(
            reg.cluster_slot_of(cid(3)),
            Some(slot),
            "freed slot is reused"
        );
        assert_eq!(
            reg.cluster_slot_of(cid(1)),
            None,
            "old id does not alias it"
        );
        assert_eq!(reg.cluster(cid(3)).unwrap().id(), cid(3));
        reg.check_invariants().unwrap();
    }

    /// A node-table entry whose home slot does not hold the node: one
    /// naming another live cluster's slot, one past the slab, one naming
    /// a freed slot.
    #[test]
    fn invariant_check_catches_node_table_drift() {
        let reg = registry_with(4, 2);
        let slot = |c| reg.cluster_slot_of(cid(c)).unwrap();
        // nid(0) lives in cid(0).
        let mut crossed = reg.clone();
        crossed.nodes[0].cluster_slot = slot(1);
        assert!(crossed
            .check_invariants()
            .unwrap_err()
            .contains("missing from its cluster"));
        let mut out_of_range = reg.clone();
        out_of_range.nodes[0].cluster_slot = 4;
        assert!(out_of_range
            .check_invariants()
            .unwrap_err()
            .contains("out of range"));
        let mut dead = reg.clone();
        for n in [nid(6), nid(7)] {
            dead.detach(n).unwrap();
        }
        dead.remove_cluster(cid(3)).unwrap();
        dead.nodes[0].cluster_slot = slot(3);
        assert!(dead
            .check_invariants()
            .unwrap_err()
            .contains("dead cluster slot"));
        // An honesty flag flipped behind the counters' back.
        let mut flipped = reg;
        flipped.nodes[0].honest = !flipped.nodes[0].honest;
        assert!(flipped.check_invariants().unwrap_err().contains("drift"));
    }

    #[test]
    fn invariant_check_catches_direct_cluster_map_drift() {
        let reg = registry_with(4, 2);
        // A live id pointing at another cluster's slot.
        let mut crossed = reg.clone();
        crossed.cluster_index.swap(1, 2);
        assert!(crossed
            .check_invariants()
            .unwrap_err()
            .contains("direct cluster map"));
        // A stale entry for an id that is not live.
        let mut stale = reg.clone();
        stale.cluster_index.push(0);
        assert!(stale
            .check_invariants()
            .unwrap_err()
            .contains("direct cluster map"));
        // A live id the map has forgotten.
        let mut forgotten = reg;
        forgotten.cluster_index[3] = NO_SLOT;
        assert!(forgotten
            .check_invariants()
            .unwrap_err()
            .contains("direct cluster map"));
    }

    #[test]
    fn invariant_check_is_exhaustive_on_empty() {
        let reg = Registry::new();
        assert!(reg.is_empty());
        reg.check_invariants().unwrap();
    }

    /// The seed's map-backed registry semantics, kept as a test-only
    /// reference shadow: one `BTreeMap` per cluster plus a node→home
    /// map, with the same aggregate counters the slab store caches. The
    /// equivalence proptest below drives it in lockstep with the slab
    /// registry to pin that the flat-memory rewrite changed *layout
    /// only*, never observable state.
    #[derive(Default)]
    struct ShadowRegistry {
        clusters: std::collections::BTreeMap<ClusterId, std::collections::BTreeMap<NodeId, bool>>,
        homes: std::collections::BTreeMap<NodeId, ClusterId>,
    }

    impl ShadowRegistry {
        fn population(&self) -> u64 {
            self.homes.len() as u64
        }

        fn byz_population(&self) -> u64 {
            self.clusters
                .values()
                .map(|m| m.values().filter(|&&h| !h).count() as u64)
                .sum()
        }

        fn attach(&mut self, node: NodeId, honest: bool, cluster: ClusterId) {
            assert!(self.clusters.contains_key(&cluster));
            assert!(self.homes.insert(node, cluster).is_none());
            self.clusters
                .get_mut(&cluster)
                .unwrap()
                .insert(node, honest);
        }

        fn detach(&mut self, node: NodeId) -> Option<(bool, ClusterId)> {
            let home = self.homes.remove(&node)?;
            let honest = self.clusters.get_mut(&home).unwrap().remove(&node).unwrap();
            Some((honest, home))
        }

        fn move_to(&mut self, node: NodeId, to: ClusterId) -> Option<ClusterId> {
            let from = *self.homes.get(&node)?;
            if from == to {
                return Some(from);
            }
            let honest = self.clusters.get_mut(&from).unwrap().remove(&node).unwrap();
            self.clusters.get_mut(&to).unwrap().insert(node, honest);
            self.homes.insert(node, to);
            Some(from)
        }

        /// Asserts every observable of the slab registry against the
        /// map-backed reference, bit for bit.
        fn assert_equals(&self, reg: &Registry, issued_clusters: u64, issued_nodes: u64) {
            assert_eq!(reg.population(), self.population());
            assert_eq!(reg.byz_population(), self.byz_population());
            let shadow_nodes: Vec<NodeId> = self.homes.keys().copied().collect();
            assert_eq!(reg.node_ids(), shadow_nodes, "node id set + order");
            let shadow_byz: Vec<NodeId> = self
                .homes
                .iter()
                .filter(|&(n, home)| !self.clusters[home][n])
                .map(|(&n, _)| n)
                .collect();
            assert_eq!(reg.byz_node_ids(), shadow_byz, "byz id set + order");
            // Every node id ever issued (and one past them) resolves
            // through the node table exactly when the shadow holds it —
            // detached ids included.
            for raw in 0..=issued_nodes {
                let n = nid(raw);
                let home = self.homes.get(&n).copied();
                assert_eq!(reg.get(n).map(|r| r.cluster), home, "lookup of {n}");
                assert_eq!(reg.contains(n), home.is_some(), "contains {n}");
            }
            let shadow_clusters: Vec<ClusterId> = self.clusters.keys().copied().collect();
            assert_eq!(reg.cluster_ids(), shadow_clusters, "cluster id set + order");
            // Every id ever issued (and one past them) resolves through
            // the direct map exactly when the shadow holds it — removed
            // ids whose slots were recycled included.
            for raw in 0..=issued_clusters {
                let c = cid(raw);
                assert_eq!(
                    reg.cluster(c).map(|cl| cl.id()),
                    self.clusters.contains_key(&c).then_some(c),
                    "lookup of {c}"
                );
            }
            for (&c, members) in &self.clusters {
                let cluster = reg.cluster(c).expect("shadow cluster is live");
                let shadow_members: Vec<NodeId> = members.keys().copied().collect();
                assert_eq!(cluster.member_slice(), shadow_members);
                assert_eq!(
                    cluster.byz_count(),
                    members.values().filter(|&&h| !h).count()
                );
            }
            for (&n, &home) in &self.homes {
                let rec = reg.get(n).expect("shadow node is live");
                assert_eq!(rec.cluster, home);
                assert_eq!(rec.honest, self.clusters[&home][&n]);
            }
            reg.check_invariants().unwrap();
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Drives the slab-backed registry and the seed-semantics map
        /// shadow through the same randomized script and demands
        /// bit-equal observables after every step. Slot recycling is
        /// exercised on purpose: cluster removal/recreation
        /// (merge-then-split included) forces the cluster freelist and
        /// the direct cluster map into play mid-script, and node churn
        /// leaves absent entries between live ones in the node table.
        #[test]
        fn flat_core_equals_seed_semantics(
            script in proptest::collection::vec((0u8..7, any::<u16>(), any::<bool>()), 1..160),
        ) {
            let mut reg = Registry::new();
            let mut shadow = ShadowRegistry::default();
            let mut next_node = 0u64;
            let mut next_cluster = 0u64;

            for (op, pick, honest) in script {
                let pick = pick as usize;
                match op {
                    // Create a fresh cluster.
                    0 => {
                        let c = cid(next_cluster);
                        next_cluster += 1;
                        reg.create_cluster(c);
                        shadow.clusters.insert(c, Default::default());
                    }
                    // Remove an empty cluster, if any (recycles a slot).
                    1 => {
                        let empty: Vec<ClusterId> = shadow
                            .clusters
                            .iter()
                            .filter(|(_, m)| m.is_empty())
                            .map(|(&c, _)| c)
                            .collect();
                        if !empty.is_empty() {
                            let c = empty[pick % empty.len()];
                            let removed = reg.remove_cluster(c).expect("live empty cluster");
                            prop_assert!(removed.is_empty());
                            shadow.clusters.remove(&c);
                        }
                    }
                    // Attach a fresh node.
                    2 => {
                        if !shadow.clusters.is_empty() {
                            let cs: Vec<ClusterId> = shadow.clusters.keys().copied().collect();
                            let c = cs[pick % cs.len()];
                            let n = nid(next_node);
                            next_node += 1;
                            reg.attach(n, honest, c);
                            shadow.attach(n, honest, c);
                        }
                    }
                    // Detach a live node (its table entry reads absent).
                    3 => {
                        let ns: Vec<NodeId> = shadow.homes.keys().copied().collect();
                        if !ns.is_empty() {
                            let n = ns[pick % ns.len()];
                            let rec = reg.detach(n).expect("live node");
                            let (sh_honest, sh_home) = shadow.detach(n).unwrap();
                            prop_assert_eq!(rec.honest, sh_honest);
                            prop_assert_eq!(rec.cluster, sh_home);
                        }
                    }
                    // Move a live node.
                    4 => {
                        let ns: Vec<NodeId> = shadow.homes.keys().copied().collect();
                        let cs: Vec<ClusterId> = shadow.clusters.keys().copied().collect();
                        if !ns.is_empty() && !cs.is_empty() {
                            let n = ns[pick % ns.len()];
                            let to = cs[pick % cs.len()];
                            prop_assert_eq!(reg.move_to(n, to), shadow.move_to(n, to));
                        }
                    }
                    // Merge then split: dissolve a live cluster into
                    // another and create a fresh one, which takes over
                    // the freed slot under a new id.
                    5 => {
                        let cs: Vec<ClusterId> = shadow.clusters.keys().copied().collect();
                        if cs.len() >= 2 {
                            let victim = cs[pick % cs.len()];
                            let heir = cs[(pick + 1) % cs.len()];
                            let members: Vec<NodeId> =
                                shadow.clusters[&victim].keys().copied().collect();
                            for n in members {
                                prop_assert_eq!(reg.move_to(n, heir), shadow.move_to(n, heir));
                            }
                            let slot = reg.cluster_slot_of(victim);
                            reg.remove_cluster(victim).expect("live drained cluster");
                            shadow.clusters.remove(&victim);
                            let c = cid(next_cluster);
                            next_cluster += 1;
                            reg.create_cluster(c);
                            shadow.clusters.insert(c, Default::default());
                            prop_assert_eq!(reg.cluster_slot_of(c), slot, "split recycles the slot");
                            prop_assert_eq!(reg.cluster_slot_of(victim), None);
                        }
                    }
                    // An arrival that departs at once when Byzantine:
                    // its table entry reads absent at once.
                    _ => {
                        let cs: Vec<ClusterId> = shadow.clusters.keys().copied().collect();
                        if !cs.is_empty() {
                            let c = cs[pick % cs.len()];
                            let n = nid(next_node);
                            next_node += 1;
                            reg.attach(n, honest, c);
                            shadow.attach(n, honest, c);
                            if !honest {
                                prop_assert!(reg.detach(n).is_some());
                                prop_assert!(shadow.detach(n).is_some());
                            }
                        }
                    }
                }
                shadow.assert_equals(&reg, next_cluster, next_node);
            }
        }
    }
}
