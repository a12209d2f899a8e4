//! Graph generators.
//!
//! [`erdos_renyi`] is the model OVER bootstraps from (the paper links
//! each pair of clusters with probability `p = log^{1+α}N / √N` at
//! initialization). The remaining topologies are references with known
//! expansion behavior, used to validate the spectral and isoperimetric
//! estimators: rings expand poorly (`I ≈ 2/(n/2)`), complete graphs
//! expand maximally (`I = ⌈n/2⌉`), stars have conductance bottlenecks.
//! Complete graphs, rings, stars and rings with chords are unit-test
//! fixtures.

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

/// Simple path `P_n`.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n.saturating_sub(1) {
        g.add_edge(u, u + 1);
    }
    g
}

/// Complete graph `K_n`.
#[cfg(test)]
pub(crate) fn complete(n: usize) -> Graph {
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
#[cfg(test)]
pub(crate) fn ring(n: usize) -> Graph {
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

/// Star with center `0` and `n - 1` leaves.
#[cfg(test)]
pub(crate) fn star(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for v in 1..n {
        g.add_edge(0, v);
    }
    g
}

/// Ring plus `chords` random chords — a cheap "small-world" expander-ish
/// construction used as a fixture in the expansion tests.
#[cfg(test)]
pub(crate) fn ring_with_chords<R: Rng>(n: usize, chords: usize, rng: &mut R) -> Graph {
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

    proptest! {
        #[test]
        fn er_never_exceeds_complete(n in 0usize..30, seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let g = erdos_renyi(n, 0.5, &mut rng);
            prop_assert!(g.edge_count() <= n.saturating_sub(1) * n / 2);
            prop_assert_eq!(g.vertex_count(), n);
        }
    }
}
