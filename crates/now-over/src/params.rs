//! OVER parameterization derived from the system capacity `N`.
//!
//! All quantities are functions of `log N` (base 2 throughout, matching
//! the common convention for "polylog" claims), the pre-chosen small
//! constant `α = 0.1` and the cap factor `c = 4` (`ALPHA` and
//! `CAP_FACTOR`):
//!
//! * target degree per vertex: `⌈log^{1+α} N⌉` — the initial overlay's
//!   mean degree, and what `Add` gives the new vertex;
//! * degree cap: `c · ⌈log^{1+α} N⌉` — Property 2's bound, enforced
//!   structurally (a vertex at the cap refuses further links);
//! * degree floor: repairs trigger when a removal drags a vertex below
//!   half its target.
//!
//! Note on Figure 2: the PODC text annotates `Split` with "2·log²N
//! edges are added using randCl". Taken literally that contradicts
//! Property 2 for small α (a fresh vertex of degree `2log²N` exceeds
//! `c·log^{1+α}N`). We read the figure as the *sampling budget* of the
//! walk-based neighbor search and normalize the actual edge budget to
//! the target degree, which is the only reading consistent with
//! Property 2. Nor do the new vertex's edges come on top of the old
//! ones: `Add` splices it into `target_degree / 2` existing edges, so
//! every other vertex keeps its degree, and `Remove` pairs the departed
//! vertex's neighbours with each other. This is a stated deviation (the
//! long version's `Add` rule is not available offline): adding fresh
//! edges on every split drifts the mean degree toward twice the target,
//! and the walk's length in `now-core` is sized for the target.
//! Experiment X-P12 verifies both properties under this choice, and
//! gates the mean degree at ±10 % of the target.

use now_net::ieee;

/// The expansion exponent constant `α` of Properties 1–2.
const ALPHA: f64 = 0.1;

/// The cap factor `c` of Property 2's degree bound.
const CAP_FACTOR: usize = 4;

/// Static OVER parameters (shared by every overlay of one deployment).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverParams {
    /// `log^{1+α} N`, computed once: [`OverParams::target_degree`] is
    /// read on every overlay edit.
    log_1_alpha: f64,
}

impl OverParams {
    /// Parameters for a system of maximal size `capacity` (= `N`).
    ///
    /// # Panics
    /// Panics if `capacity < 4` (logarithms degenerate below that).
    pub fn for_capacity(capacity: u64) -> Self {
        assert!(capacity >= 4, "capacity must be at least 4, got {capacity}");
        OverParams {
            log_1_alpha: ieee::pow(ieee::log2(capacity as f64), 1.0 + ALPHA),
        }
    }

    /// `log^{1+α} N`, the degree/expansion scale of Properties 1–2.
    pub(crate) fn log_1_alpha(&self) -> f64 {
        self.log_1_alpha
    }

    /// Edges a fresh vertex aims for on `Add`: `⌈log^{1+α} N⌉`.
    pub fn target_degree(&self) -> usize {
        self.log_1_alpha().ceil() as usize
    }

    /// Property 2's bound: `c · ⌈log^{1+α} N⌉`. Enforced structurally.
    pub fn degree_cap(&self) -> usize {
        CAP_FACTOR * self.target_degree()
    }

    /// Repair threshold: a vertex dropping below this after a neighbor's
    /// removal draws replacement edges.
    pub(crate) fn degree_floor(&self) -> usize {
        (self.target_degree() / 2).max(2)
    }

    /// Property 1's claimed lower bound on the isoperimetric constant:
    /// `log^{1+α} N / 2`.
    pub fn expansion_bound(&self) -> f64 {
        self.log_1_alpha() / 2.0
    }

    /// Edge probability for the initial Erdős–Rényi overlay on
    /// `m` vertices, normalized so the expected degree equals the
    /// target degree (clamped to 1 for tiny overlays).
    pub(crate) fn init_edge_probability(&self, m: usize) -> f64 {
        if m <= 1 {
            return 0.0;
        }
        (self.target_degree() as f64 / (m - 1) as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm is the reference the ieee-derived degree is checked against"
    )]
    fn derived_quantities_for_pow2_capacity() {
        let p = OverParams::for_capacity(1 << 16);
        let expect = 16f64.powf(1.1);
        assert!((p.log_1_alpha() - expect).abs() < 1e-9);
        assert_eq!(p.target_degree(), expect.ceil() as usize);
        assert_eq!(p.degree_cap(), 4 * p.target_degree());
        assert!((p.expansion_bound() - expect / 2.0).abs() < 1e-9);
    }

    #[test]
    fn floor_is_half_target_but_at_least_two() {
        let p = OverParams::for_capacity(1 << 16);
        assert_eq!(p.degree_floor(), p.target_degree() / 2);
        let tiny = OverParams::for_capacity(4);
        assert!(tiny.degree_floor() >= 2);
    }

    #[test]
    fn init_probability_normalizes_degree() {
        let p = OverParams::for_capacity(1 << 12);
        let m = 100;
        let prob = p.init_edge_probability(m);
        let expected_degree = prob * (m - 1) as f64;
        assert!((expected_degree - p.target_degree() as f64).abs() < 1e-9);
    }

    #[test]
    fn init_probability_clamps() {
        let p = OverParams::for_capacity(1 << 16);
        assert_eq!(p.init_edge_probability(0), 0.0);
        assert_eq!(p.init_edge_probability(1), 0.0);
        assert_eq!(p.init_edge_probability(2), 1.0, "target ≫ m−1 clamps to 1");
    }

    #[test]
    fn cap_exceeds_target_exceeds_floor() {
        for cap in [16u64, 1 << 10, 1 << 16, 1 << 20] {
            let p = OverParams::for_capacity(cap);
            assert!(p.degree_cap() > p.target_degree());
            assert!(p.target_degree() > p.degree_floor() || p.target_degree() <= 4);
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be at least 4")]
    fn tiny_capacity_rejected() {
        let _ = OverParams::for_capacity(2);
    }
}
