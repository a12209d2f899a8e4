//! The adversary's corruption budget.

use now_core::NowSystem;

/// Enforces the model's corruption bound: the adversary controls at most
/// a `τ` fraction of the *current* population, and may only corrupt
/// nodes at start or on arrival (never adaptively).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorruptionBudget {
    tau: f64,
}

impl CorruptionBudget {
    /// A budget of fraction `tau`.
    ///
    /// # Panics
    /// Panics if `tau ∉ [0, 1)`.
    pub fn new(tau: f64) -> Self {
        assert!((0.0..1.0).contains(&tau), "tau must lie in [0,1)");
        CorruptionBudget { tau }
    }

    /// Whether corrupting one more arrival keeps the adversary within
    /// budget (evaluated against the population *after* the arrival).
    pub fn can_corrupt_arrival(&self, sys: &NowSystem) -> bool {
        self.can_corrupt_at(sys.population(), sys.byz_population())
    }

    /// The projected-counts variant of [`CorruptionBudget::can_corrupt_arrival`]:
    /// whether one more corrupt arrival fits given `population` /
    /// `byz_population` as they will stand when the arrival lands.
    /// Batch drivers decide a whole batch before the system moves, so
    /// they must project the counts forward per slot instead of
    /// re-reading a stale system (otherwise a width-`w` batch could
    /// overshoot the τ budget by up to `w − 1` corrupt arrivals).
    pub fn can_corrupt_at(&self, population: u64, byz_population: u64) -> bool {
        let pop_after = population as f64 + 1.0;
        let byz_after = byz_population as f64 + 1.0;
        byz_after / pop_after <= self.tau
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::NowParams;

    fn system(n0: usize, tau: f64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, tau, 1)
    }

    #[test]
    fn budget_allows_up_to_tau() {
        let sys = system(100, 0.1); // 10 byz of 100
        let budget = CorruptionBudget::new(0.3);
        assert!(budget.can_corrupt_arrival(&sys));
        // (10 + j)/(100 + j) ≤ 0.3 → j ≤ 20/0.7 ≈ 28.
        assert!(budget.can_corrupt_at(127, 37), "the 28th fits");
        assert!(!budget.can_corrupt_at(128, 38), "a 29th does not");
    }

    #[test]
    fn budget_blocks_at_tau() {
        let sys = system(100, 0.3);
        let budget = CorruptionBudget::new(0.3);
        assert!(!budget.can_corrupt_arrival(&sys), "(31)/(101) > 0.3");
    }

    #[test]
    fn zero_budget_never_corrupts() {
        let sys = system(50, 0.0);
        let budget = CorruptionBudget::new(0.0);
        assert!(!budget.can_corrupt_arrival(&sys));
    }

    #[test]
    #[should_panic(expected = "tau must lie in")]
    fn invalid_tau_rejected() {
        let _ = CorruptionBudget::new(1.0);
    }
}
