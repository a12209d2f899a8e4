//! Oscillation attack: adversarially timed churn bursts.
//!
//! The paper's adversary "can induce churn … by join-leave attacks or by
//! forcing honest nodes to leave". This strategy stresses the
//! *structural* maintenance rather than one cluster's composition: it
//! alternates bursts of joins and bursts of forced leaves sized to
//! whipsaw clusters across the split/merge thresholds, maximizing the
//! number of split/merge operations (each of which reshapes the overlay
//! and re-randomizes memberships — the adversary pays nothing and makes
//! the system churn internally).

use crate::batch_drivers::BatchDriver;
use crate::budget::CorruptionBudget;
use now_core::{JoinSpec, NowSystem};
use now_net::{DetRng, NodeId};
use rand::Rng;

/// Alternating join/leave bursts sized relative to the cluster-size
/// band, aiming to maximize split/merge churn.
#[derive(Debug, Clone, Copy)]
pub struct Oscillation {
    /// Corruption budget for arrivals.
    pub budget: CorruptionBudget,
    burst_remaining: u64,
    joining: bool,
}

impl Oscillation {
    /// An oscillation attack with corruption fraction `tau`.
    pub fn new(tau: f64) -> Self {
        Oscillation {
            budget: CorruptionBudget::new(tau),
            burst_remaining: 0,
            joining: true,
        }
    }

    fn burst_len(sys: &NowSystem) -> u64 {
        // Slightly more than the band width per cluster, times the
        // cluster count: enough to push many clusters across a
        // threshold within one burst.
        let band = (sys.params().max_cluster_size() - sys.params().min_cluster_size()) as u64;
        (band / 2 + 1) * sys.cluster_count() as u64
    }
}

impl BatchDriver for Oscillation {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if self.burst_remaining == 0 {
            self.joining = !self.joining;
            self.burst_remaining = Self::burst_len(sys);
        }
        self.burst_remaining -= 1;
        if self.joining {
            let honest = !self.budget.can_corrupt_arrival(sys);
            (vec![JoinSpec::uniform(honest)], Vec::new())
        } else {
            let nodes = sys.node_ids();
            // INVARIANT: adversaries only act on populated systems
            // (population floor holds ids in the registry).
            (Vec::new(), vec![nodes[rng.gen_range(0..nodes.len())]])
        }
    }

    fn name(&self) -> &'static str {
        "oscillation"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::{BatchInput, ExecConfig, NowParams};

    #[test]
    fn oscillation_alternates_bursts() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let sys = NowSystem::init_fast(params, 150, 0.1, 1);
        let mut adv = Oscillation::new(0.1);
        let mut rng = DetRng::new(2);
        let mut kinds = Vec::new();
        for _ in 0..200 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            let k = match (joins.len(), leaves.len()) {
                (1, 0) => 'j',
                (0, 1) => 'l',
                _ => 'i',
            };
            kinds.push(k);
        }
        assert!(kinds.contains(&'j'));
        assert!(kinds.contains(&'l'));
        // Bursts are contiguous: count of direction flips is small
        // relative to the step count.
        let flips = kinds.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips < 20, "bursts should be long, saw {flips} flips");
    }

    #[test]
    fn oscillation_provokes_splits_and_merges() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let mut sys = NowSystem::init_fast(params, 200, 0.1, 3);
        let mut adv = Oscillation::new(0.1);
        let mut rng = DetRng::new(4);
        for _ in 0..400 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            sys.step_batch(
                &BatchInput::from_specs(&joins, &leaves),
                &ExecConfig::Canonical,
            );
        }
        let (_, _, splits, merges) = sys.op_counts();
        assert!(
            splits + merges > 4,
            "oscillation should provoke structural churn: {splits} splits, {merges} merges"
        );
        sys.check_consistency().unwrap();
        assert!(sys.audit().size_bounds_ok, "band must survive the whipsaw");
    }
}
