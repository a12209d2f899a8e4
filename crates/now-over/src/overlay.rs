//! The overlay graph structure and its Add/Remove maintenance.

use crate::audit::OverlayAudit;
use crate::params::OverParams;
use now_graph::Graph;
use now_net::ClusterId;
use rand::Rng;

/// One vertex of the overlay slab: its id, its sorted neighbor vec, and
/// its position in the uniform-sampling pool.
#[derive(Debug, Clone)]
struct VertexSlot {
    id: ClusterId,
    /// Sorted ascending — neighbor iteration is canonical id order, and
    /// edge membership is a binary search.
    neighbors: Vec<ClusterId>,
    /// Position of this vertex in `Overlay::sample_pool`.
    pool_pos: u32,
    live: bool,
}

/// The cluster overlay Ĝᴿ: an undirected graph keyed by [`ClusterId`],
/// with structural enforcement of the degree cap and floor-repair on
/// removals.
///
/// Storage is a slab of vertex slots (freelist-recycled on removal),
/// a sorted `(id, slot)` index that fixes the canonical iteration
/// order, and a direct `raw id → slot` map that resolves lookups in
/// O(1): neighbor sets are per-vertex sorted vecs, so
/// [`Overlay::neighbors`] is one array read and a borrow — zero
/// allocation — and iteration is a contiguous scan in canonical id
/// order. The previous `BTreeMap<ClusterId, BTreeSet<ClusterId>>`
/// layout paid a pointer chase per neighbor on every footprint
/// computation.
///
/// Neighbor selection for maintenance comes in two flavors:
/// * `*_uniform` methods sample uniformly from the live vertices — the
///   overlay-local stand-in used by overlay-only experiments and tests;
/// * `*_with` methods accept caller-chosen candidates — `now-core`
///   passes clusters drawn by `randCl` (size-biased walks), which is the
///   protocol-faithful path.
#[derive(Debug, Clone)]
pub struct Overlay {
    /// The vertex slab; freed slots are recycled via `free`.
    slots: Vec<VertexSlot>,
    free: Vec<u32>,
    /// Live `(id, slot)` pairs sorted by id: the canonical iteration
    /// order.
    index: Vec<(ClusterId, u32)>,
    /// Direct map `raw ClusterId → slab slot` (`NO_SLOT` = absent): the
    /// id → slot resolver. Grown on insert, reset on remove, never on
    /// lookup; cluster ids are sequential, so it stays dense.
    slot_index: Vec<u32>,
    params: OverParams,
    edges: usize,
    /// Live vertices in arbitrary (insertion/swap-remove) order: the
    /// incrementally maintained candidate pool that uniform maintenance
    /// sampling indexes into. Each vertex's position lives in its slab
    /// slot (`pool_pos`), so pool upkeep is O(1).
    sample_pool: Vec<ClusterId>,
}

/// Sentinel in the direct slot map: "no slot".
const NO_SLOT: u32 = u32::MAX;

impl Overlay {
    /// Creates an empty overlay.
    pub fn new(params: OverParams) -> Self {
        Overlay {
            slots: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
            slot_index: Vec::new(),
            params,
            edges: 0,
            sample_pool: Vec::new(),
        }
    }

    /// Bootstraps the overlay on `ids` as a degree-normalized
    /// Erdős–Rényi graph (each pair linked with
    /// [`OverParams::init_edge_probability`]), then tops every vertex up
    /// to the degree floor so no vertex starts isolated.
    pub fn init_random<R: Rng>(ids: &[ClusterId], params: OverParams, rng: &mut R) -> Self {
        let mut overlay = Overlay::new(params);
        for &id in ids {
            overlay.insert_vertex(id);
        }
        let p = params.init_edge_probability(ids.len());
        if p > 0.0 {
            for (i, &a) in ids.iter().enumerate() {
                // INVARIANT: `i < len` from enumerate, so `i + 1` is a
                // valid (possibly empty) tail start.
                for &b in &ids[i + 1..] {
                    if rng.gen_bool(p) {
                        overlay.link(a, b);
                    }
                }
            }
        }
        // Top up sparse vertices (tiny overlays and unlucky draws).
        let vertices: Vec<ClusterId> = overlay.vertices().collect();
        for v in vertices {
            overlay.repair_floor(v, rng);
        }
        overlay
    }

    /// Slab slot of a live vertex, by id (direct index).
    #[inline]
    fn slot_of(&self, id: ClusterId) -> Option<u32> {
        match self.slot_index.get(id.raw() as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    /// Static parameters.
    pub fn params(&self) -> OverParams {
        self.params
    }

    /// Number of vertices (clusters).
    pub fn vertex_count(&self) -> usize {
        self.index.len()
    }

    /// Number of overlay edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Whether `id` is a live overlay vertex.
    pub fn contains(&self, id: ClusterId) -> bool {
        self.slot_of(id).is_some()
    }

    /// Iterator over live vertices in id order.
    pub fn vertices(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.index.iter().map(|&(id, _)| id)
    }

    /// Degree of `id` (0 if absent).
    pub fn degree(&self, id: ClusterId) -> usize {
        self.slot_of(id)
            .map(|s| self.slots[s as usize].neighbors.len())
            .unwrap_or(0)
    }

    /// Neighbors of `id` in id order, borrowed from the slab (empty if
    /// absent). Zero-allocation: this is the footprint hot path.
    #[inline]
    pub fn neighbors(&self, id: ClusterId) -> &[ClusterId] {
        match self.slot_of(id) {
            Some(s) => &self.slots[s as usize].neighbors,
            None => &[],
        }
    }

    /// Whether the overlay has the edge `{a, b}`.
    pub fn has_edge(&self, a: ClusterId, b: ClusterId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Inserts an isolated vertex (no-op if present).
    pub fn insert_vertex(&mut self, id: ClusterId) {
        let pos = match self.index.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(_) => return,
            Err(pos) => pos,
        };
        let pool_pos = self.sample_pool.len() as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                let v = &mut self.slots[slot as usize];
                debug_assert!(!v.live && v.neighbors.is_empty());
                v.id = id;
                v.pool_pos = pool_pos;
                v.live = true;
                slot
            }
            None => {
                self.slots.push(VertexSlot {
                    id,
                    neighbors: Vec::new(),
                    pool_pos,
                    live: true,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.index.insert(pos, (id, slot));
        let raw = id.raw() as usize;
        if self.slot_index.len() <= raw {
            self.slot_index.resize(raw + 1, NO_SLOT);
        }
        self.slot_index[raw] = slot;
        self.sample_pool.push(id);
    }

    /// Drops the vertex in `slot` from the incremental sampling pool
    /// (O(1) swap-remove, O(1) to fix the moved entry's position).
    fn forget_sample(&mut self, slot: u32) {
        let pos = self.slots[slot as usize].pool_pos as usize;
        self.sample_pool.swap_remove(pos);
        if let Some(&moved) = self.sample_pool.get(pos) {
            // INVARIANT: the sample pool only holds live vertices, and
            // `moved` was just read from it.
            let ms = self.slot_of(moved).expect("pooled vertex is live");
            self.slots[ms as usize].pool_pos = pos as u32;
        }
    }

    /// One uniform draw from the live vertices (O(1) against the
    /// incremental pool).
    fn sample_vertex<R: Rng>(&self, rng: &mut R) -> ClusterId {
        // INVARIANT: callers sample only when vertices exist, and
        // the draw range is exactly the pool length.
        self.sample_pool[rng.gen_range(0..self.sample_pool.len())]
    }

    /// Links `a`–`b` if both exist, are distinct, unlinked, and **both
    /// below the degree cap**. Returns whether the edge was created.
    pub fn link(&mut self, a: ClusterId, b: ClusterId) -> bool {
        if a == b {
            return false;
        }
        let (Some(sa), Some(sb)) = (self.slot_of(a), self.slot_of(b)) else {
            return false;
        };
        let pos_b = match self.slots[sa as usize].neighbors.binary_search(&b) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        let cap = self.params.degree_cap();
        if self.slots[sa as usize].neighbors.len() >= cap
            || self.slots[sb as usize].neighbors.len() >= cap
        {
            return false;
        }
        self.slots[sa as usize].neighbors.insert(pos_b, b);
        let pos_a = self.slots[sb as usize]
            .neighbors
            .binary_search(&a)
            .expect_err("symmetric adjacency");
        self.slots[sb as usize].neighbors.insert(pos_a, a);
        self.edges += 1;
        true
    }

    /// Removes the edge `{a, b}`; returns whether it existed.
    pub fn unlink(&mut self, a: ClusterId, b: ClusterId) -> bool {
        let Some(sa) = self.slot_of(a) else {
            return false;
        };
        let Ok(pos_b) = self.slots[sa as usize].neighbors.binary_search(&b) else {
            return false;
        };
        self.slots[sa as usize].neighbors.remove(pos_b);
        // INVARIANT: edges are kept strictly symmetric — `b` holds
        // `a` in its neighbor vec, so both endpoints are live.
        // INVARIANT: symmetry again — `a` was found under `b`'s
        // slot's sorted neighbors because remove_edge maintains both
        // directions atomically.
        let sb = self.slot_of(b).expect("symmetric adjacency");
        let pos_a = self.slots[sb as usize]
            .neighbors
            .binary_search(&a)
                // INVARIANT: symmetric adjacency — the departing id is in
                // each former neighbor's sorted vec.
            .expect("symmetric adjacency");
        self.slots[sb as usize].neighbors.remove(pos_a);
        self.edges -= 1;
        true
    }

    /// OVER `Add` with caller-chosen neighbor candidates (in preference
    /// order, normally produced by `randCl`). Links until the target
    /// degree is reached or candidates run out; returns the neighbors
    /// actually linked.
    pub fn add_with_candidates(
        &mut self,
        id: ClusterId,
        candidates: &[ClusterId],
    ) -> Vec<ClusterId> {
        self.insert_vertex(id);
        let want = self.params.target_degree();
        let mut linked = Vec::new();
        for &c in candidates {
            if linked.len() >= want {
                break;
            }
            if self.link(id, c) {
                linked.push(c);
            }
        }
        linked
    }

    /// OVER `Add` with uniform sampling over existing vertices.
    ///
    /// Candidates come from the incremental sampling pool by rejection
    /// (expected O(1) per accepted link while most vertices are
    /// linkable — the overwhelmingly common case), with a bounded
    /// attempt budget; the rare dense/degenerate corner (most vertices
    /// at the cap or already neighbors) falls back to the exhaustive
    /// partial Fisher–Yates scan, keeping the postcondition exact.
    pub fn add_uniform<R: Rng>(&mut self, id: ClusterId, rng: &mut R) -> Vec<ClusterId> {
        self.insert_vertex(id);
        let others = self.vertex_count() - 1;
        let want = self.params.target_degree().min(others);
        let mut linked = Vec::new();
        let mut attempts = 0usize;
        let budget = 6 * want + 16;
        while linked.len() < want && attempts < budget {
            attempts += 1;
            let cand = self.sample_vertex(rng);
            if cand != id && self.link(id, cand) {
                linked.push(cand);
            }
        }
        if linked.len() < want {
            self.link_exhaustive(id, want - linked.len(), rng, &mut linked);
        }
        linked
    }

    /// The exhaustive fallback: partial Fisher–Yates over every
    /// remaining linkable vertex (O(V); reached only when rejection
    /// sampling's budget ran out).
    fn link_exhaustive<R: Rng>(
        &mut self,
        id: ClusterId,
        mut want_more: usize,
        rng: &mut R,
        linked: &mut Vec<ClusterId>,
    ) {
        let mut rest: Vec<ClusterId> = self
            .vertices()
            .filter(|&v| v != id && !self.has_edge(id, v))
            .collect();
        let mut i = 0;
        while want_more > 0 && i < rest.len() {
            let j = rng.gen_range(i..rest.len());
            rest.swap(i, j);
            if self.link(id, rest[i]) {
                linked.push(rest[i]);
                want_more -= 1;
            }
            i += 1;
        }
    }

    /// OVER `Remove`: deletes `id` and its edges (freeing its slab
    /// slot), then repairs every former neighbor that fell below the
    /// degree floor by linking it to fresh uniform vertices. Returns
    /// the former neighbors.
    pub fn remove<R: Rng>(&mut self, id: ClusterId, rng: &mut R) -> Vec<ClusterId> {
        let Some(pos) = self.index.binary_search_by_key(&id, |&(i, _)| i).ok() else {
            return Vec::new();
        };
        let slot = self.index[pos].1;
        self.index.remove(pos);
        self.slot_index[id.raw() as usize] = NO_SLOT;
        self.forget_sample(slot);
        let former = {
            let v = &mut self.slots[slot as usize];
            v.live = false;
            std::mem::take(&mut v.neighbors)
        };
        self.free.push(slot);
        self.edges -= former.len();
        for &n in &former {
            // INVARIANT: `former` lists the departing vertex's neighbors,
            // each of which is live and symmetric.
            let sn = self.slot_of(n).expect("symmetric adjacency");
            // INVARIANT: symmetry again — the departing id is in
            // each former neighbor's sorted vec.
            let p = self.slots[sn as usize]
                .neighbors
                .binary_search(&id)
                .expect("symmetric adjacency");
            self.slots[sn as usize].neighbors.remove(p);
        }
        // Repairs run in ascending neighbor-id order — the canonical
        // order the rng-consumption determinism contract pins.
        for &n in &former {
            self.repair_floor(n, rng);
        }
        former
    }

    /// Tops `id` up to the degree floor with uniform random links (to
    /// vertices below the cap). Returns how many edges were added.
    ///
    /// An at-floor vertex returns without touching the pool or the rng
    /// — the common case of `remove`'s neighbor repairs — and deficits
    /// are filled by rejection sampling against the incremental pool
    /// (exhaustive-scan fallback for the saturated corner), so the
    /// per-op cost no longer carries an O(V) candidate materialization.
    pub fn repair_floor<R: Rng>(&mut self, id: ClusterId, rng: &mut R) -> usize {
        if !self.contains(id) {
            return 0;
        }
        let floor = self
            .params
            .degree_floor()
            .min(self.vertex_count().saturating_sub(1));
        if self.degree(id) >= floor {
            return 0;
        }
        let mut added = 0;
        let mut attempts = 0usize;
        let budget = 6 * (floor - self.degree(id)) + 16;
        while self.degree(id) < floor && attempts < budget {
            attempts += 1;
            let cand = self.sample_vertex(rng);
            if cand != id && self.link(id, cand) {
                added += 1;
            }
        }
        if self.degree(id) < floor {
            let mut linked = Vec::new();
            self.link_exhaustive(id, floor - self.degree(id), rng, &mut linked);
            added += linked.len();
        }
        added
    }

    /// Exports a dense snapshot for analysis: the graph plus the
    /// id-order index mapping (`index[i]` is the cluster at dense
    /// vertex `i`).
    pub fn to_dense(&self) -> (Graph, Vec<ClusterId>) {
        let ids: Vec<ClusterId> = self.vertices().collect();
        let mut g = Graph::new(ids.len());
        for (i, &v) in ids.iter().enumerate() {
            for &w in self.neighbors(v) {
                if v < w {
                    // INVARIANT: `ids` is the sorted live-vertex list and
                    // neighbors of live vertices are live.
                    let j = ids.binary_search(&w).expect("neighbor is live");
                    g.add_edge(i, j);
                }
            }
        }
        (g, ids)
    }

    /// Measures the overlay against Properties 1–2 (see
    /// [`OverlayAudit`]).
    pub fn audit(&self) -> OverlayAudit {
        OverlayAudit::measure(self)
    }

    /// Structural invariant check used by tests and debug assertions:
    /// symmetry, no self-loops, sorted neighbor vecs, consistent edge
    /// count, degree cap, slab/freelist/pool exactness, and the direct
    /// slot map against the sorted index in both directions.
    pub fn check_invariants(&self) -> Result<(), String> {
        // INVARIANT: `windows(2)` only yields slices of length 2.
        if self.index.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("vertex index out of order".to_string());
        }
        // Every live id maps to its live slot, and every other entry is
        // the sentinel (so a recycled slot answers to its new id only).
        for &(v, slot) in &self.index {
            if self.slot_of(v) != Some(slot) {
                return Err(format!(
                    "direct slot map drift: {v} lives in slot {slot}, map says {:?}",
                    self.slot_of(v)
                ));
            }
        }
        for (raw, &slot) in self.slot_index.iter().enumerate() {
            if slot == NO_SLOT {
                continue;
            }
            let v = ClusterId::from_raw(raw as u64);
            match self.slots.get(slot as usize) {
                Some(s) if s.live && s.id == v => {}
                _ => {
                    return Err(format!(
                        "direct slot map entry {v} names slot {slot}, which does not hold it"
                    ))
                }
            }
        }
        let mut count = 0usize;
        for &(v, slot) in &self.index {
            let Some(s) = self.slots.get(slot as usize) else {
                return Err(format!("vertex {v} indexed at bogus slot {slot}"));
            };
            if !s.live {
                return Err(format!("vertex {v} indexed at dead slot {slot}"));
            }
            if s.id != v {
                return Err(format!("slot id drift: {v} indexed, slot holds {}", s.id));
            }
            // INVARIANT: `windows(2)` only yields slices of length 2.
            if s.neighbors.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("neighbor vec of {v} out of order"));
            }
            if s.neighbors.binary_search(&v).is_ok() {
                return Err(format!("self-loop at {v}"));
            }
            if s.neighbors.len() > self.params.degree_cap() {
                return Err(format!(
                    "degree cap violated at {v}: {} > {}",
                    s.neighbors.len(),
                    self.params.degree_cap()
                ));
            }
            for &w in &s.neighbors {
                if !self.has_edge(w, v) {
                    return Err(format!("asymmetric edge {v}–{w}"));
                }
                count += 1;
            }
        }
        if count != 2 * self.edges {
            return Err(format!(
                "edge count drift: counted {count}, cached {}",
                2 * self.edges
            ));
        }
        let live = self.slots.iter().filter(|s| s.live).count();
        if live != self.index.len() {
            return Err(format!(
                "slab drift: {live} live slots vs {} indexed",
                self.index.len()
            ));
        }
        if self.free.len() + live != self.slots.len() {
            return Err(format!(
                "freelist drift: {} free + {live} live != {} slots",
                self.free.len(),
                self.slots.len()
            ));
        }
        for &slot in &self.free {
            match self.slots.get(slot as usize) {
                Some(s) if !s.live => {}
                _ => return Err(format!("freelist holds live/bogus slot {slot}")),
            }
        }
        if self.sample_pool.len() != self.index.len() {
            return Err(format!(
                "sampling pool drift: {} pooled, {} live",
                self.sample_pool.len(),
                self.index.len()
            ));
        }
        for (i, &v) in self.sample_pool.iter().enumerate() {
            let Some(slot) = self.slot_of(v) else {
                return Err(format!("dead vertex {v} in sampling pool"));
            };
            if self.slots[slot as usize].pool_pos as usize != i {
                return Err(format!("sampling position drift at {v}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::DetRng;
    use proptest::prelude::*;

    fn ids(n: u64) -> Vec<ClusterId> {
        (0..n).map(ClusterId::from_raw).collect()
    }

    fn params() -> OverParams {
        OverParams::for_capacity(1 << 12) // target degree 16 (12^1.1≈15.4)
    }

    #[test]
    fn init_links_to_target_degree_on_average() {
        let mut rng = DetRng::new(1);
        let overlay = Overlay::init_random(&ids(200), params(), &mut rng);
        overlay.check_invariants().unwrap();
        let mean = 2.0 * overlay.edge_count() as f64 / overlay.vertex_count() as f64;
        let target = params().target_degree() as f64;
        assert!(
            (mean - target).abs() < 0.25 * target,
            "mean degree {mean}, target {target}"
        );
    }

    #[test]
    fn init_leaves_no_vertex_below_floor() {
        let mut rng = DetRng::new(2);
        let overlay = Overlay::init_random(&ids(100), params(), &mut rng);
        let floor = params().degree_floor();
        for v in overlay.vertices() {
            assert!(
                overlay.degree(v) >= floor.min(overlay.vertex_count() - 1),
                "vertex {v} below floor: {}",
                overlay.degree(v)
            );
        }
    }

    #[test]
    fn add_uniform_reaches_target_degree() {
        let mut rng = DetRng::new(3);
        let mut overlay = Overlay::init_random(&ids(100), params(), &mut rng);
        let newcomer = ClusterId::from_raw(999);
        let linked = overlay.add_uniform(newcomer, &mut rng);
        assert_eq!(linked.len(), params().target_degree());
        assert_eq!(overlay.degree(newcomer), params().target_degree());
        overlay.check_invariants().unwrap();
    }

    #[test]
    fn add_with_candidates_respects_preference_order() {
        let mut rng = DetRng::new(4);
        let mut overlay = Overlay::init_random(&ids(50), params(), &mut rng);
        let newcomer = ClusterId::from_raw(999);
        let candidates: Vec<ClusterId> = ids(50);
        let linked = overlay.add_with_candidates(newcomer, &candidates);
        assert_eq!(linked.len(), params().target_degree());
        assert_eq!(linked, candidates[..linked.len()].to_vec());
    }

    #[test]
    fn add_into_tiny_overlay_links_everyone() {
        let mut rng = DetRng::new(5);
        let mut overlay = Overlay::new(params());
        overlay.insert_vertex(ClusterId::from_raw(0));
        overlay.insert_vertex(ClusterId::from_raw(1));
        let linked = overlay.add_uniform(ClusterId::from_raw(2), &mut rng);
        assert_eq!(linked.len(), 2, "only 2 candidates exist");
        overlay.check_invariants().unwrap();
    }

    #[test]
    fn link_refuses_cap_violation() {
        let small = OverParams::new(16, 0.1, 2); // cap = 2·⌈4^1.1⌉ = 2·5 = 10
        let cap = small.degree_cap();
        let mut overlay = Overlay::new(small);
        let hub = ClusterId::from_raw(0);
        overlay.insert_vertex(hub);
        for i in 1..=(cap as u64 + 5) {
            overlay.insert_vertex(ClusterId::from_raw(i));
        }
        let mut linked = 0;
        for i in 1..=(cap as u64 + 5) {
            if overlay.link(hub, ClusterId::from_raw(i)) {
                linked += 1;
            }
        }
        assert_eq!(linked, cap);
        assert_eq!(overlay.degree(hub), cap);
        overlay.check_invariants().unwrap();
    }

    #[test]
    fn link_rejects_degenerate_cases() {
        let mut overlay = Overlay::new(params());
        let a = ClusterId::from_raw(0);
        let b = ClusterId::from_raw(1);
        overlay.insert_vertex(a);
        assert!(!overlay.link(a, a), "self-loop");
        assert!(!overlay.link(a, b), "absent endpoint");
        overlay.insert_vertex(b);
        assert!(overlay.link(a, b));
        assert!(!overlay.link(a, b), "duplicate edge");
    }

    #[test]
    fn remove_repairs_orphaned_neighbors() {
        let mut rng = DetRng::new(6);
        let mut overlay = Overlay::init_random(&ids(60), params(), &mut rng);
        let victim = ClusterId::from_raw(7);
        let former = overlay.remove(victim, &mut rng);
        assert!(!overlay.contains(victim));
        assert!(!former.is_empty());
        let floor = params().degree_floor();
        for v in overlay.vertices() {
            assert!(
                overlay.degree(v) >= floor.min(overlay.vertex_count() - 1),
                "{v} left below floor after repair"
            );
        }
        overlay.check_invariants().unwrap();
    }

    #[test]
    fn remove_absent_vertex_is_noop() {
        let mut rng = DetRng::new(7);
        let mut overlay = Overlay::new(params());
        assert!(overlay.remove(ClusterId::from_raw(9), &mut rng).is_empty());
    }

    #[test]
    fn removed_vertex_slot_is_recycled() {
        let mut rng = DetRng::new(9);
        let mut overlay = Overlay::init_random(&ids(30), params(), &mut rng);
        let victim = ClusterId::from_raw(3);
        overlay.remove(victim, &mut rng);
        assert!(overlay.neighbors(victim).is_empty(), "absent → empty slice");
        // A later add reuses the freed slot; the overlay stays exact.
        overlay.add_uniform(ClusterId::from_raw(500), &mut rng);
        assert!(overlay.contains(ClusterId::from_raw(500)));
        overlay.check_invariants().unwrap();
    }

    /// The direct slot map answers for live ids only — removed,
    /// never-issued and out-of-range ids read as absent without growing
    /// it — and a recycled slot is reachable only under its new id.
    #[test]
    fn direct_map_answers_only_for_live_ids() {
        let mut rng = DetRng::new(10);
        let mut overlay = Overlay::init_random(&ids(30), params(), &mut rng);
        let map_len = overlay.slot_index.len();
        let ghost = ClusterId::from_raw(99_999);
        let live = ClusterId::from_raw(0);
        assert!(!overlay.contains(ghost));
        assert_eq!(overlay.degree(ghost), 0);
        assert!(overlay.neighbors(ghost).is_empty());
        assert!(!overlay.has_edge(ghost, live) && !overlay.has_edge(live, ghost));
        assert!(!overlay.link(ghost, live) && !overlay.unlink(ghost, live));
        assert!(overlay.remove(ghost, &mut rng).is_empty());
        assert_eq!(overlay.repair_floor(ghost, &mut rng), 0);
        assert_eq!(
            overlay.slot_index.len(),
            map_len,
            "lookups never grow the map"
        );

        let victim = ClusterId::from_raw(3);
        let slot = overlay.slot_of(victim).unwrap();
        overlay.remove(victim, &mut rng);
        assert_eq!(overlay.slot_of(victim), None, "removed id reads absent");
        let newcomer = ClusterId::from_raw(30);
        overlay.add_uniform(newcomer, &mut rng);
        assert_eq!(
            overlay.slot_of(newcomer),
            Some(slot),
            "freed slot is reused"
        );
        assert_eq!(overlay.slot_of(victim), None, "old id does not alias it");
        overlay.check_invariants().unwrap();
    }

    #[test]
    fn invariant_check_catches_direct_map_drift() {
        let mut rng = DetRng::new(11);
        let overlay = Overlay::init_random(&ids(10), params(), &mut rng);
        // A live id pointing at another vertex's slot.
        let mut crossed = overlay.clone();
        crossed.slot_index.swap(1, 2);
        assert!(crossed
            .check_invariants()
            .unwrap_err()
            .contains("direct slot map"));
        // A stale entry for an id that is not live.
        let mut stale = overlay.clone();
        stale.slot_index.push(0);
        assert!(stale
            .check_invariants()
            .unwrap_err()
            .contains("direct slot map"));
        // A live id the map has forgotten.
        let mut forgotten = overlay;
        forgotten.slot_index[4] = NO_SLOT;
        assert!(forgotten
            .check_invariants()
            .unwrap_err()
            .contains("direct slot map"));
    }

    #[test]
    fn dense_snapshot_matches_overlay() {
        let mut rng = DetRng::new(8);
        let overlay = Overlay::init_random(&ids(40), params(), &mut rng);
        let (g, index) = overlay.to_dense();
        assert_eq!(g.vertex_count(), overlay.vertex_count());
        assert_eq!(g.edge_count(), overlay.edge_count());
        for (i, &ci) in index.iter().enumerate() {
            assert_eq!(g.degree(i), overlay.degree(ci));
        }
    }

    #[test]
    fn unlink_roundtrip() {
        let mut overlay = Overlay::new(params());
        let a = ClusterId::from_raw(0);
        let b = ClusterId::from_raw(1);
        overlay.insert_vertex(a);
        overlay.insert_vertex(b);
        overlay.link(a, b);
        assert!(overlay.unlink(a, b));
        assert!(!overlay.unlink(a, b));
        assert_eq!(overlay.edge_count(), 0);
        overlay.check_invariants().unwrap();
    }

    proptest! {
        /// Invariants survive arbitrary interleaved add/remove scripts.
        #[test]
        fn invariants_under_churn_script(script in proptest::collection::vec((any::<bool>(), 0u64..40), 1..120), seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let mut overlay = Overlay::init_random(&ids(20), params(), &mut rng);
            let mut next_id = 1000u64;
            for (is_add, target) in script {
                if is_add {
                    overlay.add_uniform(ClusterId::from_raw(next_id), &mut rng);
                    next_id += 1;
                } else if overlay.vertex_count() > 3 {
                    // Remove an arbitrary live vertex.
                    let live: Vec<ClusterId> = overlay.vertices().collect();
                    let victim = live[(target as usize) % live.len()];
                    overlay.remove(victim, &mut rng);
                }
                prop_assert!(overlay.check_invariants().is_ok(),
                             "{:?}", overlay.check_invariants());
            }
        }
    }
}
