//! Law–Siu random-cycles expander — the constant-degree alternative.
//!
//! §3 of the paper: NOW "could also be ensured by other protocols which
//! differ either in the number of failures they can \[tolerate\] or
//! their degree (e.g. 4 in \[2\] instead of log^{1+α}N in OVER)". The
//! canonical constant-degree construction from the paper's related work
//! is Law & Siu (reference \[26\], INFOCOM 2003): the overlay is the
//! **union of `r` independent Hamiltonian cycles** over the vertex set.
//!
//! * Every vertex has degree at most `2r` — constant, against OVER's
//!   `Θ(log^{1+α}N)`.
//! * Insertion splices the newcomer into each cycle at an independent
//!   uniformly random position (`O(r)` link updates — cheaper than
//!   OVER's `Add`).
//! * Removal splices the departed vertex out of each cycle
//!   (predecessor → successor), preserving all `r` cycles exactly.
//! * With `r ≥ 2` the union is an expander whp (Law & Siu's analysis);
//!   the trade-off against OVER is a *smaller* spectral gap at equal
//!   vertex count — longer walks for the same walk accuracy — which is
//!   exactly what experiment X-ALT measures.
//!
//! [`CyclesOverlay`] deliberately mirrors the read API of
//! [`crate::Overlay`] (vertices/neighbors/degree/audit) so the two can
//! be compared side by side.

use now_graph::Graph;
use now_net::ClusterId;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// The union-of-`r`-random-cycles overlay (Law & Siu).
#[derive(Debug, Clone)]
pub struct CyclesOverlay {
    /// `succ[c][v]` = successor of `v` in cycle `c`.
    succ: Vec<BTreeMap<ClusterId, ClusterId>>,
    /// `pred[c][v]` = predecessor of `v` in cycle `c`.
    pred: Vec<BTreeMap<ClusterId, ClusterId>>,
    order: BTreeSet<ClusterId>,
}

impl CyclesOverlay {
    /// Builds the overlay on `ids` as `r` independent uniformly random
    /// cycles.
    ///
    /// # Panics
    /// Panics if `r == 0` or `ids` contains duplicates.
    pub fn init<R: Rng>(ids: &[ClusterId], r: usize, rng: &mut R) -> Self {
        assert!(r > 0, "need at least one cycle");
        let unique: BTreeSet<ClusterId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate vertex ids");
        let mut overlay = CyclesOverlay {
            succ: vec![BTreeMap::new(); r],
            pred: vec![BTreeMap::new(); r],
            order: unique,
        };
        for c in 0..r {
            let mut perm: Vec<ClusterId> = ids.to_vec();
            now_graph::sample::shuffle(&mut perm, rng);
            for (i, &v) in perm.iter().enumerate() {
                // INVARIANT: `(i + 1) % len < len`; perm is non-empty here
                // (enumerate yielded an element).
                let next = perm[(i + 1) % perm.len()];
                overlay.succ[c].insert(v, next);
                overlay.pred[c].insert(next, v);
            }
        }
        overlay
    }

    /// Number of cycles `r` (max degree is `2r`).
    pub(crate) fn cycle_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.order.len()
    }

    /// Live vertices in id order.
    pub fn vertices(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.order.iter().copied()
    }

    /// Distinct neighbors of `id` across all cycles (empty if absent).
    pub(crate) fn neighbors(&self, id: ClusterId) -> Vec<ClusterId> {
        let mut out = BTreeSet::new();
        for c in 0..self.cycle_count() {
            if let Some(&s) = self.succ[c].get(&id) {
                if s != id {
                    out.insert(s);
                }
            }
            if let Some(&p) = self.pred[c].get(&id) {
                if p != id {
                    out.insert(p);
                }
            }
        }
        out.into_iter().collect()
    }

    /// Degree of `id` in the union graph (≤ `2r`).
    pub fn degree(&self, id: ClusterId) -> usize {
        self.neighbors(id).len()
    }

    /// Splices `id` into every cycle at an independent uniformly random
    /// position. No-op if already present.
    pub fn insert<R: Rng>(&mut self, id: ClusterId, rng: &mut R) {
        if !self.order.insert(id) {
            return;
        }
        let live: Vec<ClusterId> = self.order.iter().copied().filter(|&v| v != id).collect();
        for c in 0..self.cycle_count() {
            if live.is_empty() {
                self.succ[c].insert(id, id);
                self.pred[c].insert(id, id);
                continue;
            }
            // INVARIANT: `live` is non-empty on this branch (the insert
            // handled the empty-cycle case above); the draw is 0..len.
            let after = live[rng.gen_range(0..live.len())];
            // INVARIANT: every live vertex appears in every cycle's
            // successor map — `after` was just drawn from the live set.
            let next = self.succ[c][&after];
            self.succ[c].insert(after, id);
            self.succ[c].insert(id, next);
            self.pred[c].insert(next, id);
            self.pred[c].insert(id, after);
        }
    }

    /// Splices `id` out of every cycle (predecessor links to
    /// successor). Returns whether the vertex was present.
    pub fn remove(&mut self, id: ClusterId) -> bool {
        if !self.order.remove(&id) {
            return false;
        }
        for c in 0..self.cycle_count() {
            // INVARIANT: membership in `order` (checked above) means the
            // vertex is threaded through every cycle's pred/succ maps.
            let p = self.pred[c].remove(&id).expect("present in every cycle");
            // INVARIANT: as above, for the successor direction.
            let s = self.succ[c].remove(&id).expect("present in every cycle");
            if p != id {
                self.succ[c].insert(p, s);
                self.pred[c].insert(s, p);
            }
        }
        true
    }

    /// Dense snapshot of the union graph with the id ↦ index mapping
    /// (for the spectral machinery of `now-graph`).
    pub fn to_dense(&self) -> (Graph, Vec<ClusterId>) {
        let ids: Vec<ClusterId> = self.order.iter().copied().collect();
        let index: BTreeMap<ClusterId, usize> =
            ids.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut g = Graph::new(ids.len());
        for &v in &ids {
            for nbr in self.neighbors(v) {
                if v < nbr {
                    // INVARIANT: `index` maps every live id, and neighbors of
                    // live vertices are live.
                    g.add_edge(index[&v], index[&nbr]);
                }
            }
        }
        (g, ids)
    }

    /// Structural self-check: every cycle is a single closed tour over
    /// exactly the live vertex set.
    pub fn check_invariants(&self) -> Result<(), String> {
        for c in 0..self.cycle_count() {
            if self.succ[c].len() != self.order.len() {
                return Err(format!(
                    "cycle {c}: {} successor entries vs {} vertices",
                    self.succ[c].len(),
                    self.order.len()
                ));
            }
            let Some(&start) = self.order.first() else {
                continue;
            };
            let mut seen = BTreeSet::new();
            let mut cur = start;
            loop {
                if !seen.insert(cur) {
                    return Err(format!("cycle {c}: revisited {cur} before closing"));
                }
                let Some(&next) = self.succ[c].get(&cur) else {
                    return Err(format!("cycle {c}: {cur} has no successor"));
                };
                if self.pred[c].get(&next) != Some(&cur) {
                    return Err(format!("cycle {c}: pred/succ mismatch at {cur}->{next}"));
                }
                cur = next;
                if cur == start {
                    break;
                }
            }
            if seen.len() != self.order.len() {
                return Err(format!(
                    "cycle {c} closes after {} of {} vertices (split tour)",
                    seen.len(),
                    self.order.len()
                ));
            }
        }
        Ok(())
    }

    /// Spectral health snapshot of the union graph.
    #[cfg(test)]
    pub(crate) fn audit(&self) -> CyclesAudit {
        use now_graph::{algebraic_connectivity, traversal::is_connected, SpectralOptions};
        let (g, _) = self.to_dense();
        let n = g.vertex_count();
        let lambda2 = if n >= 2 {
            algebraic_connectivity(&g, SpectralOptions::default())
        } else {
            0.0
        };
        CyclesAudit {
            vertex_count: n,
            edge_count: g.edge_count(),
            max_degree: g.max_degree(),
            min_degree: if n == 0 { 0 } else { g.min_degree() },
            connected: is_connected(&g),
            lambda2,
            degree_bound_holds: g.max_degree() <= 2 * self.cycle_count(),
        }
    }
}

/// Health snapshot of a [`CyclesOverlay`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CyclesAudit {
    /// Live vertices.
    pub vertex_count: usize,
    /// Union-graph edges.
    pub edge_count: usize,
    /// Maximum union-graph degree (≤ 2r structurally).
    pub max_degree: usize,
    /// Minimum union-graph degree.
    pub min_degree: usize,
    /// Whether the union graph is connected (each cycle alone already
    /// is, so this can only fail on degenerate sizes).
    pub connected: bool,
    /// Algebraic connectivity λ₂ of the union graph.
    pub lambda2: f64,
    /// Whether `max_degree ≤ 2r`.
    pub degree_bound_holds: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::DetRng;

    fn ids(n: u64) -> Vec<ClusterId> {
        (0..n).map(ClusterId::from_raw).collect()
    }

    #[test]
    fn init_builds_r_closed_tours() {
        let mut rng = DetRng::new(1);
        let overlay = CyclesOverlay::init(&ids(40), 3, &mut rng);
        overlay.check_invariants().unwrap();
        assert_eq!(overlay.vertex_count(), 40);
        assert_eq!(overlay.cycle_count(), 3);
        let audit = overlay.audit();
        assert!(audit.connected, "one cycle alone is connected");
        assert!(audit.max_degree <= 6);
        assert!(audit.degree_bound_holds);
    }

    #[test]
    fn degree_cap_is_two_r() {
        let mut rng = DetRng::new(2);
        for r in [1usize, 2, 4] {
            let overlay = CyclesOverlay::init(&ids(60), r, &mut rng);
            for v in overlay.vertices() {
                assert!(
                    overlay.degree(v) <= 2 * r,
                    "degree {} > 2r",
                    overlay.degree(v)
                );
            }
        }
    }

    #[test]
    fn insert_splices_into_every_cycle() {
        let mut rng = DetRng::new(3);
        let mut overlay = CyclesOverlay::init(&ids(20), 2, &mut rng);
        let newcomer = ClusterId::from_raw(99);
        overlay.insert(newcomer, &mut rng);
        overlay.check_invariants().unwrap();
        assert!(overlay.vertices().any(|v| v == newcomer));
        assert_eq!(overlay.vertex_count(), 21);
        let d = overlay.degree(newcomer);
        assert!((1..=4).contains(&d), "degree {d} out of [1, 2r]");
        // Re-insert is a no-op.
        overlay.insert(newcomer, &mut rng);
        assert_eq!(overlay.vertex_count(), 21);
    }

    #[test]
    fn remove_preserves_the_tours() {
        let mut rng = DetRng::new(4);
        let mut overlay = CyclesOverlay::init(&ids(30), 2, &mut rng);
        for victim in [5u64, 11, 23] {
            assert!(overlay.remove(ClusterId::from_raw(victim)));
            overlay.check_invariants().unwrap();
        }
        assert_eq!(overlay.vertex_count(), 27);
        assert!(!overlay.remove(ClusterId::from_raw(5)), "double remove");
        assert!(overlay.audit().connected);
    }

    /// Law & Siu: r ≥ 2 random cycles form an expander whp. λ₂ of a
    /// single cycle on n vertices is ~(2π/n)² — vanishing; the union of
    /// two stays bounded away from 0. Asserted over a 5-seed quantile
    /// ensemble rather than one pinned seed (ROADMAP "statistical-test
    /// robustness"). Measured two-cycle λ₂ ensemble on the vendored
    /// stream: [0.585, 0.614, 0.669, 0.703, 0.791].
    #[test]
    fn union_of_two_cycles_expands() {
        let mut l2s = Vec::new();
        for seed in [5u64, 6, 7, 8, 9] {
            let mut rng = DetRng::new(seed);
            let single = CyclesOverlay::init(&ids(64), 1, &mut rng);
            let double = CyclesOverlay::init(&ids(64), 2, &mut rng);
            // A single cycle is C₆₄ whatever the permutation: its λ₂ is
            // structural, not statistical.
            let l1 = single.audit().lambda2;
            assert!(l1 < 0.1, "one 64-cycle has tiny λ₂, got {l1} (seed {seed})");
            l2s.push(double.audit().lambda2);
        }
        l2s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            l2s[l2s.len() / 2] > 0.4,
            "median two-cycle λ₂ too small: {l2s:?}"
        );
        assert!(l2s[0] > 0.3, "worst-seed two-cycle λ₂ collapsed: {l2s:?}");
    }

    /// Expansion survives sustained churn, over a 5-seed quantile
    /// ensemble (ROADMAP "statistical-test robustness"). Measured λ₂
    /// ensemble on the vendored stream:
    /// [0.387, 0.668, 0.689, 0.702, 0.704].
    #[test]
    fn churn_keeps_expansion() {
        let mut l2s = Vec::new();
        for seed in [6u64, 7, 8, 9, 10] {
            let mut rng = DetRng::new(seed);
            let mut overlay = CyclesOverlay::init(&ids(40), 2, &mut rng);
            let mut next = 100u64;
            for round in 0..200 {
                if round % 2 == 0 {
                    overlay.insert(ClusterId::from_raw(next), &mut rng);
                    next += 1;
                } else {
                    let live: Vec<ClusterId> = overlay.vertices().collect();
                    overlay.remove(live[round % live.len()]);
                }
            }
            overlay.check_invariants().unwrap();
            let audit = overlay.audit();
            assert!(audit.connected, "disconnected under churn (seed {seed})");
            assert!(audit.degree_bound_holds, "degree bound broke (seed {seed})");
            l2s.push(audit.lambda2);
        }
        l2s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            l2s[l2s.len() / 2] > 0.4,
            "median λ₂ collapsed under churn: {l2s:?}"
        );
        assert!(l2s[0] > 0.2, "worst-seed λ₂ collapsed under churn: {l2s:?}");
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = DetRng::new(7);
        let mut overlay = CyclesOverlay::init(&ids(1), 2, &mut rng);
        overlay.check_invariants().unwrap();
        assert_eq!(
            overlay.degree(ClusterId::from_raw(0)),
            0,
            "self-loops hidden"
        );
        overlay.insert(ClusterId::from_raw(1), &mut rng);
        overlay.check_invariants().unwrap();
        assert_eq!(overlay.degree(ClusterId::from_raw(0)), 1);
        overlay.remove(ClusterId::from_raw(0));
        overlay.check_invariants().unwrap();
        assert_eq!(overlay.vertex_count(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycles_rejected() {
        let mut rng = DetRng::new(8);
        let _ = CyclesOverlay::init(&ids(5), 0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_ids_rejected() {
        let mut rng = DetRng::new(9);
        let dup = vec![ClusterId::from_raw(1), ClusterId::from_raw(1)];
        let _ = CyclesOverlay::init(&dup, 2, &mut rng);
    }
}
