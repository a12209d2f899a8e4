//! Isoperimetric (edge-expansion) constants.
//!
//! Property 1 of the paper: `I(Ĝᴿ) = inf_{S ⊂ V, |S| ≤ n/2} E(S,S̄)/|S|
//! ≥ log^{1+α}N / 2` whp. This module provides:
//!
//! * [`exact_isoperimetric`] — exact value by Gray-code subset
//!   enumeration (graphs up to 24 vertices; `O(2^n)` with `O(1)` work
//!   per subset), used to *validate the estimators* and to measure small
//!   overlays exactly.
//! * [`cheeger_lower_bound`] — `λ₂/2 ≤ I(G)` from the discrete Cheeger
//!   inequality for edge expansion.
//! * [`sweep_cut_upper_bound`] — the classic Fiedler sweep: sort
//!   vertices by Fiedler value and take the best prefix cut; any cut
//!   upper-bounds the infimum.

use crate::graph::Graph;
use crate::spectral::{fiedler_vector, SpectralOptions};

/// Largest graph accepted by [`exact_isoperimetric`].
pub const EXACT_LIMIT: usize = 24;

/// Exact isoperimetric constant `min_{1 ≤ |S| ≤ n/2} E(S,S̄)/|S|`.
///
/// Uses Gray-code enumeration with bitmask adjacency: flipping one vertex
/// in/out of `S` updates the cut size in `O(1)` word operations.
///
/// Returns `f64::INFINITY` for graphs with fewer than 2 vertices (the
/// infimum ranges over an empty set).
///
/// # Panics
/// Panics if the graph has more than [`EXACT_LIMIT`] vertices.
///
/// # Example
/// ```
/// use now_graph::{gen, exact_isoperimetric};
/// // G(6, 1) is K_6: worst S has |S| = 3, cut = 9, I = 3.
/// let k6 = gen::erdos_renyi(6, 1.0, &mut now_net::DetRng::new(1));
/// assert_eq!(exact_isoperimetric(&k6), 3.0);
/// ```
pub fn exact_isoperimetric(g: &Graph) -> f64 {
    let n = g.vertex_count();
    assert!(
        n <= EXACT_LIMIT,
        "exact isoperimetric limited to {EXACT_LIMIT} vertices, got {n}"
    );
    if n < 2 {
        return f64::INFINITY;
    }
    // Bitmask adjacency.
    let adj: Vec<u32> = (0..n)
        .map(|u| {
            let mut m = 0u32;
            for v in g.neighbors(u) {
                m |= 1 << v;
            }
            m
        })
        .collect();

    let mut s_mask: u32 = 0;
    let mut size: usize = 0;
    let mut cut: i64 = 0;
    let mut best = f64::INFINITY;
    let total: u64 = 1u64 << n;
    for i in 1..total {
        // Gray code: the bit flipped between g(i-1) and g(i).
        let flip = i.trailing_zeros() as usize;
        let bit = 1u32 << flip;
        let nbrs_in_s = (adj[flip] & s_mask).count_ones() as i64;
        let deg = adj[flip].count_ones() as i64;
        if s_mask & bit == 0 {
            // v enters S: edges to S̄ added = deg − nbrs_in_s; edges to S
            // removed from the cut = nbrs_in_s.
            cut += deg - 2 * nbrs_in_s;
            s_mask |= bit;
            size += 1;
        } else {
            s_mask &= !bit;
            size -= 1;
            let nbrs_in_s_after = (adj[flip] & s_mask).count_ones() as i64;
            cut -= deg - 2 * nbrs_in_s_after;
        }
        let eff = size.min(n - size);
        if eff > 0 {
            let ratio = cut as f64 / eff as f64;
            if ratio < best {
                best = ratio;
            }
        }
    }
    best
}

/// Cheeger-style lower bound on the isoperimetric constant: `λ₂ / 2`.
///
/// This is the bound `I(G) ≥ λ₂/2` for the combinatorial Laplacian; it
/// is what experiment X-P12 reports for overlays too large for
/// [`exact_isoperimetric`].
pub fn cheeger_lower_bound(lambda2: f64) -> f64 {
    lambda2 / 2.0
}

/// Upper bound on `I(G)` by the best Fiedler sweep cut.
///
/// Sorts vertices by Fiedler value and evaluates every prefix `S`,
/// returning the minimum `E(S,S̄)/min(|S|, n−|S|)`. Returns
/// `f64::INFINITY` for graphs with fewer than 2 vertices.
pub fn sweep_cut_upper_bound(g: &Graph, opts: SpectralOptions) -> f64 {
    let n = g.vertex_count();
    if n < 2 {
        return f64::INFINITY;
    }
    let f = fiedler_vector(g, opts);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| f[a].partial_cmp(&f[b]).unwrap_or(std::cmp::Ordering::Equal));

    let mut in_s = vec![false; n];
    let mut cut: i64 = 0;
    let mut best = f64::INFINITY;
    for (prefix_len, &v) in order.iter().enumerate() {
        // v enters S.
        let mut nbrs_in_s = 0i64;
        let deg = g.degree(v) as i64;
        for w in g.neighbors(v) {
            if in_s[w] {
                nbrs_in_s += 1;
            }
        }
        cut += deg - 2 * nbrs_in_s;
        in_s[v] = true;
        let size = prefix_len + 1;
        let eff = size.min(n - size);
        if eff > 0 {
            let ratio = cut as f64 / eff as f64;
            if ratio < best {
                best = ratio;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::spectral::algebraic_connectivity;
    use now_net::DetRng;
    use proptest::prelude::*;

    #[test]
    fn complete_graph_expansion() {
        // K_n: worst case |S| = ⌊n/2⌋, I = n − ⌊n/2⌋ = ⌈n/2⌉.
        assert_eq!(exact_isoperimetric(&gen::complete(4)), 2.0);
        assert_eq!(exact_isoperimetric(&gen::complete(6)), 3.0);
        assert_eq!(exact_isoperimetric(&gen::complete(7)), 4.0);
    }

    #[test]
    fn ring_expansion_is_poor() {
        // C_n: best S is an arc of length n/2, cut = 2.
        let n = 12;
        let i = exact_isoperimetric(&gen::ring(n));
        assert!((i - 2.0 / (n as f64 / 2.0)).abs() < 1e-12);
    }

    #[test]
    fn path_expansion() {
        // P_n: cut an end half with 1 edge: I = 1/⌊n/2⌋.
        let i = exact_isoperimetric(&gen::path(8));
        assert!((i - 0.25).abs() < 1e-12);
    }

    #[test]
    fn star_expansion() {
        // Star on n=7: S = 3 leaves, cut 3 → ratio 1.
        let i = exact_isoperimetric(&gen::star(7));
        assert!((i - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disconnected_graph_has_zero_expansion() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        assert_eq!(exact_isoperimetric(&g), 0.0);
    }

    #[test]
    fn degenerate_sizes_give_infinity() {
        assert_eq!(exact_isoperimetric(&Graph::new(0)), f64::INFINITY);
        assert_eq!(exact_isoperimetric(&Graph::new(1)), f64::INFINITY);
        assert_eq!(
            sweep_cut_upper_bound(&Graph::new(1), SpectralOptions::default()),
            f64::INFINITY
        );
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn exact_rejects_large_graphs() {
        let _ = exact_isoperimetric(&Graph::new(30));
    }

    #[test]
    fn sweep_cut_finds_barbell_bottleneck() {
        let mut g = Graph::new(10);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
                g.add_edge(u + 5, v + 5);
            }
        }
        g.add_edge(4, 5);
        let ub = sweep_cut_upper_bound(&g, SpectralOptions::default());
        assert!((ub - 0.2).abs() < 1e-9, "barbell bottleneck 1/5, got {ub}");
        assert_eq!(exact_isoperimetric(&g), 0.2);
    }

    proptest! {
        /// The sandwich Cheeger-lower ≤ exact ≤ sweep-upper holds on
        /// random connected-ish graphs.
        #[test]
        fn bounds_sandwich_exact(seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let g = gen::ring_with_chords(14, 6, &mut rng);
            let exact = exact_isoperimetric(&g);
            let l2 = algebraic_connectivity(&g, SpectralOptions::default());
            let lower = cheeger_lower_bound(l2);
            let upper = sweep_cut_upper_bound(&g, SpectralOptions::default());
            prop_assert!(lower <= exact + 1e-6, "lower {} > exact {}", lower, exact);
            prop_assert!(upper >= exact - 1e-9, "upper {} < exact {}", upper, exact);
        }

        /// Exact expansion is zero iff the graph is disconnected (n ≥ 2).
        #[test]
        fn zero_iff_disconnected(edges in proptest::collection::vec((0usize..8, 0usize..8), 0..20)) {
            let mut g = Graph::new(8);
            for (u, v) in edges {
                if u != v { g.add_edge(u, v); }
            }
            let i = exact_isoperimetric(&g);
            let connected = crate::traversal::is_connected(&g);
            if connected {
                prop_assert!(i > 0.0);
            } else {
                prop_assert_eq!(i, 0.0);
            }
        }
    }
}
