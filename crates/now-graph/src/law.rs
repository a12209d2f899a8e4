//! The exact output law of `randCl`'s size-biased CTRW.
//!
//! One CTRW of duration `t` from `s` (every edge firing at rate 1) ends
//! at vertex `v` with probability `(e^{−tL} δ_s)_v`, `L` the
//! combinatorial Laplacian. `randCl` accepts the endpoint `v` with
//! probability `|v| / max_size` and otherwise starts a fresh CTRW there,
//! so its output law is the accepted mass summed over the restarts.
//! [`ctrw_law`] computes it by uniformization: with `Λ` the largest
//! degree, `e^{−tL} = Σ_k Poisson(Λt; k) P^k` for the stochastic
//! `P = I − L/Λ`. Its callers measure how far a law is from its target
//! by [`total_variation`].

use crate::graph::Graph;

/// The law of `randCl`'s output from `start` on `g`: CTRWs of `duration`,
/// each endpoint `v` accepted with probability `min(sizes[v] / max_size,
/// 1)` and otherwise restarted from, until the unaccepted mass is below
/// `10⁻¹⁵`. Entry `v` is the probability that the walk returns `v`.
///
/// # Panics
/// Panics if `sizes` does not have one entry per vertex, `start` is out
/// of range, `max_size` is 0, or no vertex has a positive size.
pub fn ctrw_law(
    g: &Graph,
    sizes: &[usize],
    max_size: usize,
    duration: f64,
    start: usize,
) -> Vec<f64> {
    let n = g.vertex_count();
    assert_eq!(sizes.len(), n, "one size per vertex");
    assert!(
        start < n && max_size > 0,
        "start or normaliser out of range"
    );
    assert!(sizes.iter().any(|&s| s > 0), "no vertex can accept");
    let accept: Vec<f64> = sizes
        .iter()
        .map(|&s| (s as f64 / max_size as f64).min(1.0))
        .collect();
    let rows: Vec<Vec<usize>> = (0..n).map(|v| g.neighbors(v).collect()).collect();
    let (mut walking, mut out) = (vec![0.0; n], vec![0.0; n]);
    walking[start] = 1.0;
    loop {
        walking = heat(&rows, walking, duration);
        let mut left = 0.0;
        for ((w, o), a) in walking.iter_mut().zip(&mut out).zip(&accept) {
            *o += *w * a;
            *w -= *w * a;
            left += *w;
        }
        if left < 1e-15 {
            return out;
        }
    }
}

/// Total variation distance `½ Σ |p_i − q_i|` between two distributions.
///
/// # Panics
/// Panics if the vectors have different lengths.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p
        .iter()
        .zip(q.iter())
        .map(|(a, b)| (a - b).abs())
        .sum::<f64>()
}

/// `e^{−tL} p` on the graph of adjacency `rows`, by uniformization in
/// slices of `Λt ≤ 600`, so that `e^{−Λt}` stays a normal `f64`. Each
/// slice's Poisson series stops past its mean once a term's weight falls
/// below `10⁻²⁰`.
#[expect(
    clippy::disallowed_methods,
    reason = "libm's exp is off the trajectory: the exact law is a reference that tests and experiments compare walks against, and no run draws from it"
)]
fn heat(rows: &[Vec<usize>], mut p: Vec<f64>, t: f64) -> Vec<f64> {
    let rate = rows.iter().map(Vec::len).max().unwrap_or(0) as f64;
    if rate == 0.0 || t <= 0.0 {
        return p;
    }
    let slices = (rate * t / 600.0).ceil();
    let lambda = rate * t / slices;
    let mut next = vec![0.0; p.len()];
    for _ in 0..slices as usize {
        let mut term = p.clone();
        p.fill(0.0);
        let mut weight = (-lambda).exp();
        for k in 1.. {
            for (s, x) in p.iter_mut().zip(&term) {
                *s += weight * x;
            }
            if k as f64 > lambda && weight < 1e-20 {
                break;
            }
            // term ← P·term, P = I − L/Λ.
            for (v, row) in rows.iter().enumerate() {
                let inflow: f64 = row.iter().map(|&u| term[u]).sum();
                next[v] = term[v] + (inflow - row.len() as f64 * term[v]) / rate;
            }
            std::mem::swap(&mut term, &mut next);
            weight *= lambda / k as f64;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// On `K_n`, `e^{−tL} δ_s` puts `1/n + (1 − 1/n)e^{−nt}` on `s` and
    /// the rest evenly elsewhere, and with every size at the normaliser
    /// the first endpoint is accepted.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm evaluates the closed form the law is checked against"
    )]
    fn matches_the_closed_form_on_a_complete_graph() {
        let (n, t) = (6, 0.13);
        let law = ctrw_law(&gen::complete(n), &[4; 6], 4, t, 2);
        let stay = 1.0 / n as f64 + (1.0 - 1.0 / n as f64) * (-(n as f64) * t).exp();
        for (v, &p) in law.iter().enumerate() {
            let want = if v == 2 {
                stay
            } else {
                (1.0 - stay) / (n - 1) as f64
            };
            assert!((p - want).abs() < 1e-14, "vertex {v}: {p} vs {want}");
        }
    }

    /// A long walk's law is the size-biased one, `|v| / Σ|u|`, on an
    /// irregular graph with unequal sizes, and uniform when every size
    /// is the normaliser: a CTRW with every edge at rate 1 is uniform
    /// over vertices whatever their degrees (Aldous & Fill), where a
    /// discrete walk would be biased by degree. At any duration the law
    /// is a distribution, and at 0 it is the start's if the start
    /// accepts.
    #[test]
    fn long_walks_reach_the_size_biased_law() {
        let mut g = gen::ring(12);
        for (u, v) in [(0, 6), (0, 3), (2, 9), (0, 8)] {
            g.add_edge(u, v);
        }
        let sizes = [9, 3, 7, 7, 12, 5, 6, 10, 4, 8, 11, 2];
        let total: usize = sizes.iter().sum();
        let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / total as f64).collect();
        let long = ctrw_law(&g, &sizes, 12, 200.0, 0);
        assert!(total_variation(&long, &target) < 1e-12);
        assert!(g.min_degree() < g.max_degree(), "irregular fixture");
        let uniform = ctrw_law(&g, &[12; 12], 12, 200.0, 0);
        assert!(total_variation(&uniform, &[1.0 / 12.0; 12]) < 1e-12);
        for t in [0.0, 0.3, 2.0] {
            let law = ctrw_law(&g, &sizes, 12, t, 4);
            assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-12, "t = {t}");
        }
        assert!((ctrw_law(&g, &sizes, 12, 0.0, 4)[4] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn tv_distance_properties() {
        let p = vec![0.5, 0.5, 0.0];
        let q = vec![0.0, 0.5, 0.5];
        assert!((total_variation(&p, &q) - 0.5).abs() < 1e-12);
        assert_eq!(total_variation(&p, &p), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn tv_rejects_mismatched_lengths() {
        let _ = total_variation(&[0.5], &[0.5, 0.5]);
    }
}
