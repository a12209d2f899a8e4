//! Random walks: discrete and continuous-time (CTRW).
//!
//! The paper's `randCl` primitive samples a cluster by a *continuous-time
//! random walk* on the overlay: with every edge firing at rate 1, the
//! walk jumps from `v` after an `Exp(deg(v))` holding time to a uniformly
//! random neighbor. The jump chain favors high-degree vertices, but the
//! shorter holding times there exactly compensate: the stationary
//! distribution over vertices is **uniform**, irrespective of degree
//! irregularity (Aldous & Fill). A discrete-time walk, in contrast,
//! converges to the degree-biased distribution `deg(v)/2m`. The tests at
//! the bottom demonstrate both facts on an irregular graph — this
//! contrast is exactly why NOW uses CTRWs.

use crate::graph::Graph;
use rand::Rng;

/// Result of one CTRW run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtrwHop {
    /// Vertex the walk ended on.
    pub endpoint: usize,
    /// Number of jumps taken (each jump is one inter-cluster message
    /// round in `randCl`'s accounting).
    pub hops: usize,
    /// Total simulated time consumed (≥ the requested duration).
    pub elapsed: f64,
}

/// Runs a discrete-time simple random walk for `steps` jumps and returns
/// the endpoint. A vertex with no neighbors absorbs the walk.
///
/// # Panics
/// Panics if `start` is out of range.
pub fn discrete_walk<R: Rng>(g: &Graph, start: usize, steps: usize, rng: &mut R) -> usize {
    assert!(start < g.vertex_count(), "start vertex out of range");
    let mut v = start;
    for _ in 0..steps {
        let d = g.degree(v);
        if d == 0 {
            break;
        }
        v = g.neighbor_at(v, rng.gen_range(0..d));
    }
    v
}

/// Runs a continuous-time random walk (per-edge rate 1) for `duration`
/// units of time starting at `start`; returns endpoint and hop count.
///
/// The holding time at `v` is `Exp(deg(v))`; the jump goes to a uniform
/// neighbor. An isolated vertex absorbs the walk (its holding time is
/// infinite).
///
/// # Panics
/// Panics if `start` is out of range or `duration` is negative/NaN.
pub fn ctrw_endpoint<R: Rng>(g: &Graph, start: usize, duration: f64, rng: &mut R) -> CtrwHop {
    assert!(start < g.vertex_count(), "start vertex out of range");
    assert!(duration >= 0.0, "duration must be non-negative");
    let mut v = start;
    let mut remaining = duration;
    let mut hops = 0usize;
    let mut elapsed = 0.0;
    loop {
        let d = g.degree(v);
        if d == 0 {
            // Absorbing: waits out the whole duration.
            elapsed += remaining;
            break;
        }
        // Exponential holding time with rate = degree, by inverse
        // transform of a uniform in (0, 1] (`randCl` in now-core draws
        // its holds the same way, at 24-bit resolution via `randNum`).
        let u = (rng.next_u64() as f64 + 1.0) / (u64::MAX as f64 + 1.0);
        let hold = -u.ln() / d as f64;
        if hold >= remaining {
            elapsed += remaining;
            break;
        }
        remaining -= hold;
        elapsed += hold;
        v = g.neighbor_at(v, rng.gen_range(0..d));
        hops += 1;
    }
    CtrwHop {
        endpoint: v,
        hops,
        elapsed,
    }
}

/// Empirical endpoint distribution of `trials` independent CTRWs of the
/// given `duration` from `start`. Returns a probability vector over
/// vertices.
pub fn endpoint_distribution<R: Rng>(
    g: &Graph,
    start: usize,
    duration: f64,
    trials: usize,
    rng: &mut R,
) -> Vec<f64> {
    let mut counts = vec![0u64; g.vertex_count()];
    for _ in 0..trials {
        let hop = ctrw_endpoint(g, start, duration, rng);
        counts[hop.endpoint] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / trials.max(1) as f64)
        .collect()
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

/// Stationary distribution of the *discrete* walk: `deg(v) / 2m`.
/// Returns all-zeros for an edgeless graph.
pub fn discrete_stationary(g: &Graph) -> Vec<f64> {
    let two_m = 2.0 * g.edge_count() as f64;
    if two_m == 0.0 {
        return vec![0.0; g.vertex_count()];
    }
    (0..g.vertex_count())
        .map(|v| g.degree(v) as f64 / two_m)
        .collect()
}

/// Uniform distribution over vertices (the CTRW's stationary law).
pub fn uniform_distribution(n: usize) -> Vec<f64> {
    if n == 0 {
        return Vec::new();
    }
    vec![1.0 / n as f64; n]
}

/// Smallest duration `T` from `durations` whose empirical CTRW endpoint
/// distribution is within `eps` total-variation of uniform, or `None` if
/// none qualifies. Used to calibrate walk lengths in `randCl`.
pub fn calibrate_ctrw_duration<R: Rng>(
    g: &Graph,
    start: usize,
    durations: &[f64],
    trials: usize,
    eps: f64,
    rng: &mut R,
) -> Option<f64> {
    let target = uniform_distribution(g.vertex_count());
    for &t in durations {
        let emp = endpoint_distribution(g, start, t, trials, rng);
        if total_variation(&emp, &target) <= eps {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use now_net::DetRng;

    /// An intentionally irregular connected graph: a star glued to a ring.
    fn irregular() -> Graph {
        let mut g = gen::ring(8);
        // vertex 0 becomes a hub.
        for v in [2usize, 3, 5, 6] {
            g.add_edge(0, v);
        }
        g
    }

    #[test]
    fn discrete_walk_stays_in_graph() {
        let g = irregular();
        let mut rng = DetRng::new(1);
        for _ in 0..50 {
            let end = discrete_walk(&g, 3, 17, &mut rng);
            assert!(end < g.vertex_count());
        }
    }

    #[test]
    fn walk_on_isolated_vertex_is_absorbed() {
        let g = Graph::new(3); // no edges
        let mut rng = DetRng::new(2);
        assert_eq!(discrete_walk(&g, 1, 10, &mut rng), 1);
        let hop = ctrw_endpoint(&g, 1, 5.0, &mut rng);
        assert_eq!(hop.endpoint, 1);
        assert_eq!(hop.hops, 0);
        assert!((hop.elapsed - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ctrw_zero_duration_stays_put() {
        let g = irregular();
        let mut rng = DetRng::new(3);
        let hop = ctrw_endpoint(&g, 4, 0.0, &mut rng);
        assert_eq!(hop.endpoint, 4);
        assert_eq!(hop.hops, 0);
    }

    #[test]
    fn ctrw_hop_count_grows_with_duration() {
        let g = irregular();
        let mut rng = DetRng::new(4);
        let short: usize = (0..200)
            .map(|_| ctrw_endpoint(&g, 0, 1.0, &mut rng).hops)
            .sum();
        let long: usize = (0..200)
            .map(|_| ctrw_endpoint(&g, 0, 10.0, &mut rng).hops)
            .sum();
        assert!(long > short * 5, "short {short}, long {long}");
    }

    /// The headline property: on an irregular graph the CTRW endpoint
    /// distribution converges to uniform, while the discrete walk
    /// converges to the degree-biased law — so only the CTRW gives the
    /// unbiased cluster sampling `randCl` needs.
    #[test]
    fn ctrw_uniform_but_discrete_walk_degree_biased() {
        let g = irregular();
        let n = g.vertex_count();
        let mut rng = DetRng::new(5);
        let trials = 30_000;

        let uniform = uniform_distribution(n);
        let degree_law = discrete_stationary(&g);
        assert!(
            total_variation(&uniform, &degree_law) > 0.1,
            "fixture must be irregular"
        );

        // CTRW: long enough to mix.
        let emp_ctrw = endpoint_distribution(&g, 0, 40.0, trials, &mut rng);
        let tv_ctrw_uniform = total_variation(&emp_ctrw, &uniform);
        assert!(
            tv_ctrw_uniform < 0.02,
            "CTRW should be uniform, TV = {tv_ctrw_uniform}"
        );

        // Discrete walk with many steps: matches degree law, not uniform.
        let mut counts = vec![0u64; n];
        for _ in 0..trials {
            // Odd/even step parity can matter on bipartite-ish graphs;
            // use a random large step count to de-phase.
            let steps = 60 + rng.gen_range(0..2usize);
            counts[discrete_walk(&g, 0, steps, &mut rng)] += 1;
        }
        let emp_disc: Vec<f64> = counts.iter().map(|&c| c as f64 / trials as f64).collect();
        let tv_disc_degree = total_variation(&emp_disc, &degree_law);
        let tv_disc_uniform = total_variation(&emp_disc, &uniform);
        assert!(
            tv_disc_degree < 0.03,
            "discrete walk should match degree law, TV = {tv_disc_degree}"
        );
        assert!(
            tv_disc_uniform > 0.08,
            "discrete walk should NOT be uniform, TV = {tv_disc_uniform}"
        );
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

    #[test]
    fn calibration_finds_mixing_duration() {
        let g = irregular();
        let mut rng = DetRng::new(7);
        let t = calibrate_ctrw_duration(&g, 0, &[0.5, 2.0, 8.0, 32.0], 20_000, 0.05, &mut rng);
        let t = t.expect("some duration should mix");
        assert!(t <= 32.0);
        assert!(t >= 2.0, "0.5 is too short to mix on this graph, got {t}");
    }

    #[test]
    fn endpoint_distribution_sums_to_one() {
        let g = gen::ring(6);
        let mut rng = DetRng::new(8);
        let d = endpoint_distribution(&g, 0, 3.0, 1000, &mut rng);
        let total: f64 = d.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
