//! Environmental churn schedules.
//!
//! The paper's headline is tolerance of **polynomial size variation**:
//! the population may roam anywhere in `[√N, N]`. These drivers produce
//! exactly that motion; they implement [`BatchDriver`] so the step loop
//! treats environmental churn and attacks uniformly (arrivals are still
//! corrupted up to the adversary's budget — churn and corruption
//! coexist in the model).

use crate::batch_run::BatchDriver;
use now_adversary::CorruptionBudget;
use now_core::{JoinSpec, NowSystem};
use now_net::{DetRng, NodeId};
use rand::Rng;

/// Joins until the population reaches `target`, then idles.
#[derive(Debug, Clone, Copy)]
pub struct GrowthPhase {
    /// Population to reach.
    pub target: u64,
    /// Corruption budget for arrivals.
    pub budget: CorruptionBudget,
}

impl GrowthPhase {
    /// Grow to `target` with corruption fraction `tau`.
    pub fn new(target: u64, tau: f64) -> Self {
        GrowthPhase {
            target,
            budget: CorruptionBudget::new(tau),
        }
    }
}

impl BatchDriver for GrowthPhase {
    fn decide_batch(&mut self, sys: &NowSystem, _rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if sys.population() >= self.target {
            (Vec::new(), Vec::new())
        } else {
            let honest = !self.budget.can_corrupt_arrival(sys);
            (vec![JoinSpec::uniform(honest)], Vec::new())
        }
    }

    fn name(&self) -> &'static str {
        "growth-phase"
    }
}

/// Uniformly random nodes leave until the population drops to `target`,
/// then idles.
#[derive(Debug, Clone, Copy)]
pub struct ShrinkPhase {
    /// Population to reach.
    pub target: u64,
}

impl ShrinkPhase {
    /// Shrink to `target`.
    pub fn new(target: u64) -> Self {
        ShrinkPhase { target }
    }
}

impl BatchDriver for ShrinkPhase {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if sys.population() <= self.target {
            (Vec::new(), Vec::new())
        } else {
            let nodes = sys.node_ids();
            // INVARIANT: population floor keeps the id list non-empty;
            // the draw range is its exact length.
            (Vec::new(), vec![nodes[rng.gen_range(0..nodes.len())]])
        }
    }

    fn name(&self) -> &'static str {
        "shrink-phase"
    }
}

/// The polynomial-variation driver: grow to `high`, shrink to `low`,
/// repeat — e.g. `low = √N`, `high` close to `N` — `width` operations
/// per time step (width 1 is the paper's one-operation-per-step
/// model; wider batches exercise the conflict-free wave scheduler of
/// [`now_core::NowSystem::step_batch`]). Every arrival is corrupted
/// while the budget allows, so the adversary's share tracks its bound
/// through both phases.
#[derive(Debug, Clone, Copy)]
pub struct BatchSawtooth {
    /// Lower turning point.
    pub low: u64,
    /// Upper turning point.
    pub high: u64,
    /// Operations per step.
    pub width: usize,
    /// Corruption budget for arrivals.
    pub budget: CorruptionBudget,
    growing: bool,
}

impl BatchSawtooth {
    /// Oscillates in `[low, high]` with `width` operations per batch and
    /// corruption fraction `tau`, starting in the growth phase.
    ///
    /// # Panics
    /// Panics if `low >= high` or `width == 0`.
    pub fn new(low: u64, high: u64, width: usize, tau: f64) -> Self {
        assert!(low < high, "sawtooth needs low < high, got [{low}, {high}]");
        assert!(width > 0, "batch width must be positive");
        BatchSawtooth {
            low,
            high,
            width,
            budget: CorruptionBudget::new(tau),
            growing: true,
        }
    }
}

impl BatchDriver for BatchSawtooth {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let pop = sys.population();
        if self.growing && pop >= self.high {
            self.growing = false;
        } else if !self.growing && pop <= self.low {
            self.growing = true;
        }
        if self.growing {
            // Project counts forward per slot (see BatchRandomChurn):
            // deciding all `width` arrivals against the pre-batch ratio
            // would overshoot τ by up to width − 1 corrupt arrivals.
            let mut population = sys.population();
            let mut byz = sys.byz_population();
            let joins = (0..self.width)
                .map(|_| {
                    let corrupt = self.budget.can_corrupt_at(population, byz);
                    population += 1;
                    if corrupt {
                        byz += 1;
                    }
                    JoinSpec::uniform(!corrupt)
                })
                .collect();
            (joins, Vec::new())
        } else {
            let nodes = sys.node_ids();
            let n_leaves = self.width.min(nodes.len());
            let picks = now_graph::sample::sample_distinct(nodes.len(), n_leaves, rng);
            (Vec::new(), picks.into_iter().map(|i| nodes[i]).collect())
        }
    }

    fn name(&self) -> &'static str {
        "batch-sawtooth"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_run::BatchRun;
    use now_core::NowParams;

    fn system(n0: usize, tau: f64, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, tau, seed)
    }

    #[test]
    fn growth_reaches_target_then_idles() {
        let mut sys = system(60, 0.1, 1);
        let mut adv = GrowthPhase::new(100, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut adv, 60, 0);
        assert_eq!(sys.population(), 100);
        assert_eq!(report.joins, 40);
        assert_eq!(report.steps - report.joins - report.leaves, 20);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn growth_corrupts_within_budget() {
        let mut sys = system(60, 0.0, 2);
        let mut adv = GrowthPhase::new(120, 0.2);
        BatchRun::new().run(&mut sys, &mut adv, 60, 0);
        let frac = sys.byz_population() as f64 / sys.population() as f64;
        assert!(frac > 0.1 && frac <= 0.2, "byz fraction {frac}");
    }

    #[test]
    fn shrink_reaches_target() {
        let mut sys = system(150, 0.1, 3);
        let mut adv = ShrinkPhase::new(100);
        let report = BatchRun::new().run(&mut sys, &mut adv, 80, 0);
        assert_eq!(sys.population(), 100);
        assert_eq!(report.leaves, 50);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn sawtooth_oscillates() {
        let mut sys = system(60, 0.1, 4);
        let mut adv = BatchSawtooth::new(50, 90, 1, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut adv, 300, 5);
        let pops: Vec<f64> = report.audits.iter().map(|a| a.population as f64).collect();
        let max = pops.iter().cloned().fold(0.0f64, f64::max);
        let min = pops.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max >= 90.0, "never reached high: {max}");
        assert!(min <= 52.0, "never came back down: {min}");
        // Must have turned around at least twice.
        let mut turns = 0;
        let mut dir = 0i8;
        for w in pops.windows(2) {
            let d = (w[1] - w[0]).signum() as i8;
            if d != 0 && d != dir {
                if dir != 0 {
                    turns += 1;
                }
                dir = d;
            }
        }
        assert!(turns >= 2, "only {turns} turns");
        sys.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn sawtooth_rejects_bad_band() {
        let _ = BatchSawtooth::new(100, 100, 1, 0.1);
    }

    #[test]
    fn batch_sawtooth_oscillates_in_batches() {
        let mut sys = system(80, 0.1, 6);
        let mut driver = BatchSawtooth::new(60, 140, 5, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut driver, 60, 7);
        assert_eq!(report.steps, 60);
        let pops = report.audits.iter().map(|a| a.population);
        let (min, max) = (pops.clone().min().unwrap(), pops.max().unwrap());
        assert!(max >= 140, "never reached high: {max}");
        assert!(min <= 65, "never came back down: {min}");
        assert!(report.waves > 0, "the scheduler ran");
        sys.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn batch_sawtooth_rejects_zero_width() {
        let _ = BatchSawtooth::new(10, 20, 0, 0.1);
    }
}
