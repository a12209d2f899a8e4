//! The exact output laws of `randCl`'s walks: the paper's size-biased
//! CTRW ([`ctrw_law`]) and the non-backtracking walk the implementation
//! runs ([`nbrw_law`]).
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
//!
//! A non-backtracking walk of `k` hops carries its mass on directed
//! edges: its first hop leaves the start by a uniform edge, and every
//! later hop leaves by a uniform edge other than the one it came in on
//! (at a degree-1 vertex, by that one). Its stationary law is uniform
//! over directed edges, so its endpoint lands on `v` in proportion to
//! `deg v`; `randCl` therefore accepts `v` with probability `(|v| /
//! max_size) · (d_min / deg v)`, which makes the accepted law `|v| / n`.
//! On a graph of largest degree 2 or less, where a non-backtracking walk
//! does not mix, a hop is instead uniform over the vertex's neighbours
//! and the vertex itself, and every degree counts that stay. [`nbrw_law`]
//! gives the output law, restarts included, from every start at once.

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

/// The law of `randCl`'s output on `g` from every start: walks of `k`
/// non-backtracking hops, each endpoint `v` accepted with probability
/// `(min(sizes[v], max_size) / max_size) · (d_min / deg v)`, `d_min` the
/// least degree of `g`, and otherwise restarted from. Where no degree
/// exceeds 2, a hop may also stay, uniformly with the neighbours, never
/// barred, and every degree counts the stay (module docs). Row `s`,
/// entry `v` is the probability that the walk from `s` returns `v`.
///
/// The `k`-hop law `K` (vertex to endpoint) is propagated over directed
/// edges, `O(k·|E|)` per start. The restarts make the output law the
/// solution `Z` of `(I − K·R) Z = K·A`, with `A` and `R = I − A` the
/// diagonal acceptance and rejection; it is solved for `D = Z − 1·πᵀ`,
/// `π` the target `sizes[v] / Σ sizes`, whose right-hand side `K·A −
/// (K·a)·πᵀ` is small once the walk mixes, so that rounding stays far
/// below the distances measured. `I − K·R` is strictly diagonally
/// dominant by rows (every row of `K` reaches an accepting vertex), so
/// Gaussian elimination needs no pivoting: `O(m³)` for `m` vertices.
///
/// # Panics
/// Panics if `sizes` does not have one entry per vertex, a size or
/// `max_size` or `k` is 0, or a vertex is isolated.
pub fn nbrw_law(g: &Graph, sizes: &[usize], max_size: usize, k: usize) -> Vec<Vec<f64>> {
    let n = g.vertex_count();
    assert_eq!(sizes.len(), n, "one size per vertex");
    assert!(max_size > 0 && k > 0, "normaliser or walk length is 0");
    assert!(sizes.iter().all(|&s| s > 0), "a vertex cannot accept");
    assert!(n == 0 || g.min_degree() > 0, "isolated vertex");
    let stays = (g.max_degree() <= 2) as usize;
    let d_min = (g.min_degree() + stays) as f64;
    let accept: Vec<f64> = (0..n)
        .map(|v| {
            let size = sizes[v].min(max_size) as f64;
            size * d_min / (max_size as f64 * (g.degree(v) + stays) as f64)
        })
        .collect();
    let total: usize = sizes.iter().sum();
    let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / total as f64).collect();

    // The augmented system [I − K·R | K·A − (K·a)·πᵀ], row by start.
    let mut sys: Vec<Vec<f64>> = hop_laws(g, k, stays == 1)
        .iter()
        .enumerate()
        .map(|(s, kin)| {
            let ka: f64 = kin.iter().zip(&accept).map(|(p, a)| p * a).sum();
            let lhs = kin.iter().zip(&accept).map(|(p, a)| -p * (1.0 - a));
            let rhs = (kin.iter().zip(&accept).zip(&target)).map(|((p, a), t)| p * a - ka * t);
            let mut row: Vec<f64> = lhs.chain(rhs).collect();
            row[s] += 1.0;
            row
        })
        .collect();
    // Forward elimination, then back substitution on the right half.
    for i in 0..n {
        let (top, rest) = sys.split_at_mut(i + 1);
        let pivot = &top[i];
        for row in rest {
            let f = row[i] / pivot[i];
            if f != 0.0 {
                for (x, y) in row.iter_mut().zip(pivot).skip(i) {
                    *x -= f * y;
                }
            }
        }
    }
    for i in (0..n).rev() {
        let (top, rest) = sys.split_at_mut(i + 1);
        let (lhs, rhs) = top[i].split_at_mut(n);
        for (&f, solved) in lhs.iter().skip(i + 1).zip(rest.iter()) {
            if f != 0.0 {
                for (x, y) in rhs.iter_mut().zip(solved.iter().skip(n)) {
                    *x -= f * y;
                }
            }
        }
        let pivot = lhs[i];
        rhs.iter_mut().for_each(|x| *x /= pivot);
    }
    sys.iter()
        .map(|row| {
            row.iter()
                .skip(n)
                .zip(&target)
                .map(|(d, p)| p + d)
                .collect()
        })
        .collect()
}

/// The `k`-hop non-backtracking law `K` of `g`: row `s`, entry `v` is
/// the probability that `k` hops from `s` end at `v`. The walk's mass
/// sits on directed edges, `mass[u][j]` on `u → rows[u][j]`; a hop
/// moves the mass of `u → v` evenly onto `v`'s other out-edges, so an
/// out-edge `v → w` receives `(in(v) − mass(w → v)) / (deg v − 1)`,
/// `in(v)` the mass on every edge into `v`. With `stays`, each row also
/// holds its own vertex, a loop, and a hop moves `in(v)` evenly onto all
/// of `v`'s out-edges, barring none.
fn hop_laws(g: &Graph, k: usize, stays: bool) -> Vec<Vec<f64>> {
    let n = g.vertex_count();
    let rows: Vec<Vec<usize>> = (0..n)
        .map(|v| g.neighbors(v).chain(stays.then_some(v)).collect())
        .collect();
    // `back[u][j]`: where `u` sits in the row of `rows[u][j]`, so that
    // the edge `u → rows[u][j]` reversed carries `mass[rows[u][j]][back[u][j]]`.
    let back: Vec<Vec<usize>> = (rows.iter().enumerate())
        .map(|(u, row)| {
            // INVARIANT: `g` is undirected, so `u` is in the row of each
            // of its neighbours.
            let at = |&v: &usize| rows[v].iter().position(|&x| x == u).expect("undirected");
            row.iter().map(at).collect()
        })
        .collect();
    let mut mass: Vec<Vec<f64>> = rows.iter().map(|row| vec![0.0; row.len()]).collect();
    let mut next = mass.clone();
    let mut inflow = vec![0.0; n];
    (0..n)
        .map(|s| {
            mass.iter_mut().for_each(|m| m.fill(0.0));
            mass[s].fill(1.0 / rows[s].len() as f64);
            for _ in 1..k {
                edge_inflow(&rows, &mass, &mut inflow);
                for (v, (out, row)) in next.iter_mut().zip(&rows).enumerate() {
                    let others = row.len().saturating_sub(1).max(1) as f64;
                    for ((x, &w), &b) in out.iter_mut().zip(row).zip(&back[v]) {
                        *x = if stays {
                            inflow[v] / row.len() as f64
                        } else if row.len() == 1 {
                            inflow[v]
                        } else {
                            (inflow[v] - mass[w][b]) / others
                        };
                    }
                }
                std::mem::swap(&mut mass, &mut next);
            }
            edge_inflow(&rows, &mass, &mut inflow);
            inflow.clone()
        })
        .collect()
}

/// `inflow[v]`: the mass on the edges into `v`.
fn edge_inflow(rows: &[Vec<usize>], mass: &[Vec<f64>], inflow: &mut [f64]) {
    inflow.fill(0.0);
    for (m, row) in mass.iter().zip(rows) {
        for (&x, &v) in m.iter().zip(row) {
            inflow[v] += x;
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

    /// `K` by enumerating every non-backtracking path: `k` hops from
    /// `s`, each uniform over the edges out of the vertex but the one it
    /// came in on (or over that one at a degree-1 vertex); on a graph of
    /// largest degree 2 or less, over the neighbours and the vertex
    /// itself.
    fn enumerated_hops(g: &Graph, k: usize) -> Vec<Vec<f64>> {
        fn extend(g: &Graph, from: Option<usize>, at: usize, p: f64, left: usize, out: &mut [f64]) {
            if left == 0 {
                out[at] += p;
                return;
            }
            let next: Vec<usize> = if g.max_degree() <= 2 {
                g.neighbors(at).chain([at]).collect()
            } else {
                g.neighbors(at)
                    .filter(|&v| g.degree(at) == 1 || Some(v) != from)
                    .collect()
            };
            for &v in &next {
                extend(g, Some(at), v, p / next.len() as f64, left - 1, out);
            }
        }
        let n = g.vertex_count();
        (0..n)
            .map(|s| {
                let mut out = vec![0.0; n];
                extend(g, None, s, 1.0, k, &mut out);
                out
            })
            .collect()
    }

    /// On a small irregular graph with a degree-1 vertex, and on a
    /// path of largest degree 2, where hops may stay, the law is what
    /// enumerating every path and iterating the restarts gives: each
    /// walk's endpoint `v` accepted with probability `(sizes[v] / max) ·
    /// (d_min / deg v)` (degrees counting the stay where there is one),
    /// the rest walking on from `v`, until less than 10⁻¹⁶ of the mass
    /// is left.
    #[test]
    fn matches_path_enumeration_with_restarts() {
        let mut g = Graph::new(5);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 4)] {
            g.add_edge(u, v);
        }
        for g in [g, gen::path(5)] {
            check_against_enumeration(&g);
        }
    }

    fn check_against_enumeration(g: &Graph) {
        let sizes = [5, 2, 7, 3, 6];
        let max = 8;
        let stays = (g.max_degree() <= 2) as usize;
        let degree = |v| (g.degree(v) + stays) as f64;
        let accept: Vec<f64> = (0..5)
            .map(|v| sizes[v] as f64 / max as f64 * (g.min_degree() + stays) as f64 / degree(v))
            .collect();
        for k in [1, 2, 3, 6] {
            let hops = enumerated_hops(g, k);
            let laws = nbrw_law(g, &sizes, max, k);
            for s in 0..5 {
                let (mut walking, mut out) = (vec![0.0; 5], vec![0.0; 5]);
                walking[s] = 1.0;
                while walking.iter().sum::<f64>() > 1e-16 {
                    let mut next = vec![0.0; 5];
                    for (u, &w) in walking.iter().enumerate() {
                        for v in 0..5 {
                            let p = w * hops[u][v];
                            out[v] += p * accept[v];
                            next[v] += p * (1.0 - accept[v]);
                        }
                    }
                    walking = next;
                }
                for v in 0..5 {
                    assert!(
                        (laws[s][v] - out[v]).abs() < 1e-13,
                        "k = {k}, from {s} to {v}: {} vs {}",
                        laws[s][v],
                        out[v]
                    );
                }
            }
        }
    }

    /// Long walks reach the size-biased law `|v| / Σ|u|` from every
    /// start on an irregular graph with unequal sizes; at any length the
    /// law is a distribution; one hop on `K_n` with every size at the
    /// normaliser (so every endpoint accepts) is uniform over the other
    /// vertices; and on two or three vertices, where a hop may stay, the
    /// law is `|v| / Σ|u|` already at one hop, at any length.
    #[test]
    fn nbrw_laws_reach_the_size_biased_law() {
        let mut g = gen::ring(12);
        for (u, v) in [(0, 6), (0, 3), (2, 9), (0, 8)] {
            g.add_edge(u, v);
        }
        assert!(g.min_degree() < g.max_degree(), "irregular fixture");
        let sizes = [9, 3, 7, 7, 12, 5, 6, 10, 4, 8, 11, 2];
        let total: usize = sizes.iter().sum();
        let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / total as f64).collect();
        // The ring's degree-2 stretches pass a walk straight on, so it
        // mixes only at the chords' ends: 4.8·10⁻⁹ at 80 hops.
        for law in nbrw_law(&g, &sizes, 12, 200) {
            assert!(total_variation(&law, &target) < 1e-15);
        }
        for k in [1, 2, 5] {
            for law in nbrw_law(&g, &sizes, 12, k) {
                assert!((law.iter().sum::<f64>() - 1.0).abs() < 1e-12, "k = {k}");
            }
        }
        let n = 6;
        for (s, law) in nbrw_law(&gen::complete(n), &[4; 6], 4, 1)
            .iter()
            .enumerate()
        {
            for (v, &p) in law.iter().enumerate() {
                let want = if v == s { 0.0 } else { 1.0 / (n - 1) as f64 };
                assert!((p - want).abs() < 1e-15, "{s} → {v}: {p}");
            }
        }
        for (m, sizes) in [(2, &[3, 7][..]), (3, &[5, 10, 15][..])] {
            let total: usize = sizes.iter().sum();
            let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / total as f64).collect();
            for k in 1..=7 {
                for law in nbrw_law(&gen::complete(m), sizes, 20, k) {
                    assert!(total_variation(&law, &target) < 1e-15, "K{m}, k = {k}");
                }
            }
        }
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
