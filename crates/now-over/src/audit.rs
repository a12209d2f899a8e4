//! Measuring the overlay against Properties 1–2.

use crate::overlay::Overlay;
use now_graph::expansion::EXACT_LIMIT;
use now_graph::traversal::is_connected;
use now_graph::{
    algebraic_connectivity, cheeger_lower_bound, exact_isoperimetric, sweep_cut_upper_bound,
    SpectralOptions,
};

/// A snapshot of the overlay's health, phrased in the paper's terms.
///
/// * Property 2 is checked directly (`max_degree` vs the cap).
/// * Property 1 (isoperimetric constant) is exact for overlays of up to
///   [`EXACT_LIMIT`] vertices and bracketed by
///   `[cheeger_lower, sweep_upper]` beyond that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayAudit {
    /// Number of live clusters (overlay vertices).
    pub vertex_count: usize,
    /// Number of overlay edges.
    pub edge_count: usize,
    /// Maximum vertex degree.
    pub max_degree: usize,
    /// Minimum vertex degree.
    pub min_degree: usize,
    /// Mean vertex degree.
    pub mean_degree: f64,
    /// Whether the overlay is connected (expansion zero otherwise).
    pub connected: bool,
    /// Algebraic connectivity λ₂ of the overlay's Laplacian.
    pub lambda2: f64,
    /// `λ₂/2` — certified lower bound on the isoperimetric constant.
    pub cheeger_lower: f64,
    /// Fiedler sweep cut — upper bound on the isoperimetric constant.
    pub sweep_upper: f64,
    /// Exact isoperimetric constant, when the overlay is small enough.
    pub exact_isoperimetric: Option<f64>,
    /// Property 2 verdict: `max_degree ≤ degree_cap`.
    pub degree_bound_holds: bool,
}

impl OverlayAudit {
    /// Measures `overlay` (cost: one λ₂ power iteration plus, for small
    /// overlays, the exact subset enumeration).
    pub(crate) fn measure(overlay: &Overlay) -> Self {
        let (g, _) = overlay.to_dense();
        let n = g.vertex_count();
        let opts = SpectralOptions::default();
        let lambda2 = if n >= 2 {
            algebraic_connectivity(&g, opts)
        } else {
            0.0
        };
        let exact = if (2..=EXACT_LIMIT).contains(&n) {
            Some(exact_isoperimetric(&g))
        } else {
            None
        };
        OverlayAudit {
            vertex_count: n,
            edge_count: g.edge_count(),
            max_degree: g.max_degree(),
            min_degree: g.min_degree(),
            mean_degree: g.mean_degree(),
            connected: is_connected(&g),
            lambda2,
            cheeger_lower: cheeger_lower_bound(lambda2),
            sweep_upper: if n >= 2 {
                sweep_cut_upper_bound(&g, opts)
            } else {
                f64::INFINITY
            },
            exact_isoperimetric: exact,
            degree_bound_holds: g.max_degree() <= overlay.params().degree_cap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::OverParams;
    use now_net::{ClusterId, DetRng};

    fn ids(n: u64) -> Vec<ClusterId> {
        (0..n).map(ClusterId::from_raw).collect()
    }

    #[test]
    fn audit_of_healthy_overlay() {
        let params = OverParams::for_capacity(1 << 12);
        let mut rng = DetRng::new(1);
        let overlay = Overlay::init_random(&ids(80), params, &mut rng);
        let audit = overlay.audit();
        assert_eq!(audit.vertex_count, 80);
        assert!(audit.connected);
        assert!(audit.degree_bound_holds);
        assert!(audit.lambda2 > 0.0);
        assert!(audit.cheeger_lower <= audit.sweep_upper + 1e-9);
        assert!(audit.exact_isoperimetric.is_none(), "80 > exact limit");
    }

    #[test]
    fn audit_small_overlay_has_exact_value() {
        let params = OverParams::for_capacity(1 << 10);
        let mut rng = DetRng::new(2);
        let overlay = Overlay::init_random(&ids(12), params, &mut rng);
        let audit = overlay.audit();
        let exact = audit.exact_isoperimetric.expect("12 ≤ exact limit");
        assert!(audit.cheeger_lower <= exact + 1e-6);
        assert!(audit.sweep_upper >= exact - 1e-9);
    }

    #[test]
    fn audit_detects_degree_violation_absence() {
        // Structurally the cap cannot be violated via link(); audit
        // should always agree.
        let params = OverParams::for_capacity(1 << 12);
        let mut rng = DetRng::new(3);
        let mut overlay = Overlay::init_random(&ids(50), params, &mut rng);
        for i in 100..140u64 {
            overlay.add_uniform(ClusterId::from_raw(i), &mut rng);
        }
        assert!(overlay.audit().degree_bound_holds);
    }

    #[test]
    fn audit_of_empty_and_singleton() {
        let params = OverParams::for_capacity(1 << 10);
        let empty = Overlay::new(params);
        let a = empty.audit();
        assert_eq!(a.vertex_count, 0);
        assert!(a.connected, "vacuously connected");
        assert_eq!(a.lambda2, 0.0);

        let mut one = Overlay::new(params);
        one.insert_vertex(ClusterId::from_raw(0));
        let a1 = one.audit();
        assert_eq!(a1.vertex_count, 1);
        assert!(a1.exact_isoperimetric.is_none());
    }

    #[test]
    fn expansion_survives_heavy_churn() {
        // The substance of Property 1: after many add/remove cycles the
        // overlay still expands (λ₂ bounded away from 0).
        let params = OverParams::for_capacity(1 << 12);
        let mut rng = DetRng::new(4);
        let mut overlay = Overlay::init_random(&ids(60), params, &mut rng);
        let mut next = 1000u64;
        for round in 0..300 {
            if round % 2 == 0 {
                overlay.add_uniform(ClusterId::from_raw(next), &mut rng);
                next += 1;
            } else {
                let live: Vec<ClusterId> = overlay.vertices().collect();
                let victim = live[round % live.len()];
                overlay.remove(victim, &mut rng);
            }
        }
        let audit = overlay.audit();
        assert!(audit.connected, "overlay disconnected after churn");
        assert!(
            audit.lambda2 > 1.0,
            "expansion collapsed after churn: λ₂ = {}",
            audit.lambda2
        );
        assert!(audit.degree_bound_holds);
    }
}
