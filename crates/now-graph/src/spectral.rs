//! Spectral estimates: algebraic connectivity λ₂ and the Fiedler vector.
//!
//! Property 1 of the paper lower-bounds the isoperimetric constant of
//! the overlay. Computing `I(G)` exactly is NP-hard, so for overlays of
//! realistic size we bracket it: the discrete Cheeger inequality gives
//! `I(G) ≥ λ₂/2` (with λ₂ the second-smallest eigenvalue of the
//! combinatorial Laplacian `L = D − A`), and a Fiedler sweep cut gives an
//! upper bound (see [`crate::expansion`]).
//!
//! λ₂ is found by power iteration on the spectral complement
//! `B = 2Δ·I − L` restricted to the space orthogonal to the all-ones
//! vector (the kernel of `L` on a connected graph). This is dependency-
//! free and `O(iters · m)`, ample for overlays of up to a few thousand
//! clusters.

use crate::graph::Graph;

/// Tuning knobs for the power iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralOptions {
    /// Maximum number of power-iteration steps.
    pub max_iters: usize,
    /// Relative tolerance on the Rayleigh quotient for early stopping.
    pub tol: f64,
}

impl Default for SpectralOptions {
    fn default() -> Self {
        SpectralOptions {
            max_iters: 3000,
            tol: 1e-10,
        }
    }
}

/// Applies the combinatorial Laplacian: `y = (D − A) x`.
fn laplacian_apply(g: &Graph, x: &[f64], y: &mut [f64]) {
    for u in 0..g.vertex_count() {
        let mut acc = g.degree(u) as f64 * x[u];
        for v in g.neighbors(u) {
            acc -= x[v];
        }
        y[u] = acc;
    }
}

/// Deterministic pseudo-random start vector (no RNG needed: the spectral
/// result does not depend on the start vector except in degenerate ties,
/// and determinism keeps experiment outputs stable).
fn start_vector(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(31);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn project_out_ones(x: &mut [f64]) {
    if x.is_empty() {
        return;
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for xi in x.iter_mut() {
        *xi -= mean;
    }
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for xi in x.iter_mut() {
            *xi /= norm;
        }
    }
    norm
}

fn fiedler_iteration(g: &Graph, opts: SpectralOptions) -> (f64, Vec<f64>) {
    let n = g.vertex_count();
    if n < 2 {
        return (0.0, vec![0.0; n]);
    }
    let shift = 2.0 * g.max_degree() as f64 + 1.0;
    let mut x = start_vector(n);
    project_out_ones(&mut x);
    if normalize(&mut x) == 0.0 {
        return (0.0, vec![0.0; n]);
    }
    let mut y = vec![0.0; n];
    let mut lambda_prev = f64::INFINITY;
    let mut lambda = 0.0;
    for iter in 0..opts.max_iters {
        // y = B x = shift * x − L x
        laplacian_apply(g, &x, &mut y);
        for i in 0..n {
            y[i] = shift * x[i] - y[i];
        }
        project_out_ones(&mut y);
        if normalize(&mut y) == 0.0 {
            // x was (numerically) in the kernel of B on 1⊥: λ₂ = shift.
            return (shift, x);
        }
        std::mem::swap(&mut x, &mut y);
        // Rayleigh quotient of L at x (x is unit-norm).
        laplacian_apply(g, &x, &mut y);
        lambda = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum::<f64>();
        if iter % 8 == 7 {
            if (lambda - lambda_prev).abs() <= opts.tol * lambda.abs().max(1e-12) {
                break;
            }
            lambda_prev = lambda;
        }
    }
    (lambda.max(0.0), x)
}

/// Second-smallest eigenvalue λ₂ of the combinatorial Laplacian
/// (algebraic connectivity). Zero iff the graph is disconnected (or has
/// fewer than two vertices).
///
/// # Example
/// ```
/// use now_graph::{gen, algebraic_connectivity, SpectralOptions};
/// let g = gen::erdos_renyi(6, 1.0, &mut now_net::DetRng::new(1)); // K_6
/// let l2 = algebraic_connectivity(&g, SpectralOptions::default());
/// assert!((l2 - 6.0).abs() < 1e-6); // λ₂(K_n) = n
/// ```
pub fn algebraic_connectivity(g: &Graph, opts: SpectralOptions) -> f64 {
    fiedler_iteration(g, opts).0
}

/// Unit-norm Fiedler vector (eigenvector of λ₂), used for sweep cuts.
/// For graphs with fewer than two vertices returns a zero vector.
pub(crate) fn fiedler_vector(g: &Graph, opts: SpectralOptions) -> Vec<f64> {
    fiedler_iteration(g, opts).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use now_net::DetRng;

    fn lambda2(g: &Graph) -> f64 {
        algebraic_connectivity(g, SpectralOptions::default())
    }

    #[test]
    fn complete_graph_lambda2_is_n() {
        for n in [3usize, 5, 9] {
            let l2 = lambda2(&gen::complete(n));
            assert!((l2 - n as f64).abs() < 1e-6, "K_{n}: got {l2}");
        }
    }

    #[test]
    fn ring_lambda2_matches_closed_form() {
        for n in [4usize, 8, 16] {
            let expect = 2.0 * (1.0 - (2.0 * std::f64::consts::PI / n as f64).cos());
            let l2 = lambda2(&gen::ring(n));
            assert!((l2 - expect).abs() < 1e-6, "C_{n}: got {l2}, want {expect}");
        }
    }

    #[test]
    fn path_lambda2_matches_closed_form() {
        for n in [3usize, 6, 10] {
            let expect = 2.0 * (1.0 - (std::f64::consts::PI / n as f64).cos());
            let l2 = lambda2(&gen::path(n));
            assert!((l2 - expect).abs() < 1e-6, "P_{n}: got {l2}, want {expect}");
        }
    }

    #[test]
    fn star_lambda2_is_one() {
        let l2 = lambda2(&gen::star(9));
        assert!((l2 - 1.0).abs() < 1e-6, "star: got {l2}");
    }

    #[test]
    fn disconnected_graph_has_zero_lambda2() {
        let mut g = Graph::new(6);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 4);
        g.add_edge(4, 5);
        let l2 = lambda2(&g);
        assert!(l2.abs() < 1e-7, "disconnected: got {l2}");
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(lambda2(&Graph::new(0)), 0.0);
        assert_eq!(lambda2(&Graph::new(1)), 0.0);
    }

    /// Dense ER graphs expand, over a 5-seed quantile ensemble (ROADMAP
    /// "statistical-test robustness"). Measured λ₂ ensemble on the
    /// vendored stream: [2.61, 3.20, 4.42, 4.66, 4.91].
    #[test]
    fn er_lambda2_positive_when_connected() {
        let mut l2s = Vec::new();
        for seed in [6u64, 7, 8, 9, 10] {
            let mut rng = DetRng::new(seed);
            let g = gen::erdos_renyi(80, 0.15, &mut rng);
            assert!(
                crate::traversal::is_connected(&g),
                "dense ER disconnected (seed {seed})"
            );
            l2s.push(lambda2(&g));
        }
        l2s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(
            l2s[l2s.len() / 2] > 1.5,
            "median λ₂ of dense ER too small: {l2s:?}"
        );
        assert!(l2s[0] > 0.5, "worst-seed λ₂ of dense ER too small: {l2s:?}");
    }

    #[test]
    fn fiedler_vector_is_unit_and_mean_free() {
        let g = gen::ring(12);
        let v = fiedler_vector(&g, SpectralOptions::default());
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let mean: f64 = v.iter().sum::<f64>() / v.len() as f64;
        assert!((norm - 1.0).abs() < 1e-9);
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn fiedler_vector_separates_barbell() {
        // Two K_5 cliques joined by one edge: Fiedler vector should give
        // opposite signs to the two cliques.
        let mut g = Graph::new(10);
        for u in 0..5 {
            for v in (u + 1)..5 {
                g.add_edge(u, v);
                g.add_edge(u + 5, v + 5);
            }
        }
        g.add_edge(4, 5);
        let f = fiedler_vector(&g, SpectralOptions::default());
        let left_sign = f[0].signum();
        for x in &f[..5] {
            assert_eq!(x.signum(), left_sign, "clique A coherent");
        }
        for x in &f[5..10] {
            assert_eq!(x.signum(), -left_sign, "clique B opposite");
        }
    }

    #[test]
    fn lambda2_monotone_under_edge_addition_examples() {
        // Adding edges can only increase λ₂ (interlacing); check on a
        // concrete sequence.
        let mut g = gen::ring(10);
        let base = lambda2(&g);
        g.add_edge(0, 5);
        let denser = lambda2(&g);
        assert!(denser >= base - 1e-9, "{denser} < {base}");
    }
}
