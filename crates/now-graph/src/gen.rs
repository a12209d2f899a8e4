//! Graph generators.
//!
//! [`erdos_renyi`] is the model OVER bootstraps from (the paper links
//! each pair of clusters with probability `p = log^{1+α}N / √N` at
//! initialization). The remaining topologies are references with known
//! expansion behavior, used to validate the spectral and isoperimetric
//! estimators: rings expand poorly (`I ≈ 2/(n/2)`), complete graphs
//! expand maximally (`I = ⌈n/2⌉`), stars have conductance bottlenecks.

use crate::graph::Graph;
use rand::Rng;

/// Samples `G(n, p)`: every unordered pair becomes an edge independently
/// with probability `p`.
///
/// # Panics
/// Panics if `p` is not within `[0, 1]`.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability {p} not in [0,1]"
    );
    let mut g = Graph::new(n);
    if p == 0.0 {
        return g;
    }
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v);
            }
        }
    }
    g
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u, v);
        }
    }
    g
}

/// Cycle `C_n` (requires `n ≥ 3`; smaller `n` yields a path or a single
/// edge without panicking, which keeps generators total for tests).
pub fn ring(n: usize) -> Graph {
    let mut g = Graph::new(n);
    if n < 2 {
        return g;
    }
    for u in 0..n.saturating_sub(1) {
        g.add_edge(u, u + 1);
    }
    if n >= 3 {
        g.add_edge(n - 1, 0);
    }
    g
}

/// Simple path `P_n`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n.saturating_sub(1) {
        g.add_edge(u, u + 1);
    }
    g
}

/// Star with center `0` and `n - 1` leaves.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    g
}

/// Ring plus `chords` random chords — a cheap "small-world" expander-ish
/// construction used as a fixture in walk tests.
pub fn ring_with_chords<R: Rng>(n: usize, chords: usize, rng: &mut R) -> Graph {
    let mut g = ring(n);
    if n < 4 {
        return g;
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < chords * 20 + 100 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !g.has_edge(u, v) {
            g.add_edge(u, v);
            added += 1;
        }
    }
    g
}

/// Near-`d`-regular random graph via the configuration-model pairing with
/// rejection of loops/multi-edges (retrying a bounded number of times).
/// The result may miss a few edges of exact regularity; callers needing
/// exact degrees should check [`Graph::min_degree`]/[`Graph::max_degree`].
///
/// # Panics
/// Panics if `d >= n`.
pub fn near_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(d < n, "degree {d} must be below vertex count {n}");
    let mut g = Graph::new(n);
    if n == 0 || d == 0 {
        return g;
    }
    // Stub list: each vertex appears d times; pair stubs randomly.
    for _round in 0..40 {
        let mut stubs: Vec<usize> = Vec::new();
        for v in 0..n {
            let deficit = d.saturating_sub(g.degree(v));
            stubs.extend(std::iter::repeat_n(v, deficit));
        }
        if stubs.len() < 2 {
            break;
        }
        // Fisher–Yates shuffle.
        for i in (1..stubs.len()).rev() {
            let j = rng.gen_range(0..=i);
            stubs.swap(i, j);
        }
        for pair in stubs.chunks(2) {
            if let [u, v] = *pair {
                if u != v && !g.has_edge(u, v) && g.degree(u) < d && g.degree(v) < d {
                    g.add_edge(u, v);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::DetRng;
    use proptest::prelude::*;

    #[test]
    fn er_p0_is_empty_p1_is_complete() {
        let mut rng = DetRng::new(1);
        let g0 = erdos_renyi(10, 0.0, &mut rng);
        assert_eq!(g0.edge_count(), 0);
        let g1 = erdos_renyi(10, 1.0, &mut rng);
        assert_eq!(g1.edge_count(), 45);
    }

    #[test]
    fn er_edge_count_near_expectation() {
        let mut rng = DetRng::new(2);
        let n = 200;
        let p = 0.1;
        let g = erdos_renyi(n, p, &mut rng);
        let expected = p * (n * (n - 1) / 2) as f64;
        let got = g.edge_count() as f64;
        assert!(
            (got - expected).abs() < 0.15 * expected,
            "edge count {got} too far from expectation {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "not in [0,1]")]
    fn er_rejects_bad_probability() {
        let mut rng = DetRng::new(1);
        let _ = erdos_renyi(5, 1.5, &mut rng);
    }

    #[test]
    fn er_is_deterministic_per_seed() {
        let a = erdos_renyi(50, 0.2, &mut DetRng::new(42));
        let b = erdos_renyi(50, 0.2, &mut DetRng::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn complete_graph_shape() {
        let g = complete(6);
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.min_degree(), 5);
        assert_eq!(g.max_degree(), 5);
    }

    #[test]
    fn ring_is_2_regular() {
        let g = ring(8);
        assert_eq!(g.edge_count(), 8);
        assert_eq!(g.min_degree(), 2);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn tiny_rings_degenerate_gracefully() {
        assert_eq!(ring(0).edge_count(), 0);
        assert_eq!(ring(1).edge_count(), 0);
        assert_eq!(ring(2).edge_count(), 1);
    }

    #[test]
    fn star_shape() {
        let g = star(5);
        assert_eq!(g.degree(0), 4);
        for v in 1..5 {
            assert_eq!(g.degree(v), 1);
        }
    }

    #[test]
    fn path_shape() {
        let g = path(4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
    }

    #[test]
    fn ring_with_chords_adds_requested_chords() {
        let mut rng = DetRng::new(3);
        let g = ring_with_chords(30, 10, &mut rng);
        assert_eq!(g.edge_count(), 40);
    }

    #[test]
    fn near_regular_hits_target_degree() {
        let mut rng = DetRng::new(4);
        let g = near_regular(40, 6, &mut rng);
        assert!(g.max_degree() <= 6);
        // Configuration model with retries should get very close.
        assert!(
            g.min_degree() >= 5,
            "min degree {} too far below 6",
            g.min_degree()
        );
    }

    proptest! {
        #[test]
        fn er_never_exceeds_complete(n in 0usize..30, seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let g = erdos_renyi(n, 0.5, &mut rng);
            prop_assert!(g.edge_count() <= n.saturating_sub(1) * n / 2);
            prop_assert_eq!(g.vertex_count(), n);
        }

        #[test]
        fn near_regular_respects_cap(n in 2usize..30, seed in any::<u64>()) {
            let d = (n - 1).min(5);
            let mut rng = DetRng::new(seed);
            let g = near_regular(n, d, &mut rng);
            prop_assert!(g.max_degree() <= d);
        }
    }
}
