//! Structural-pressure attacks: churn aimed at the split/merge machinery
//! rather than directly at cluster composition.
//!
//! The §3.3 join–leave attack targets *who* is in a cluster; these
//! strategies target the *operations* that reshape clusters. They probe
//! corners the paper's analysis treats implicitly:
//!
//! * [`SplitForcing`] floods one cluster with (corrupt, budget
//!   permitting) arrivals so it keeps splitting — the adversary hopes to
//!   seize one of the halves, since a split partitions the *current*
//!   membership rather than resampling it.
//! * [`MergeForcing`] drains a cluster's members to force merges — each
//!   merge dissolves a `randCl`-chosen victim and re-joins the target's
//!   members, churning two clusters' worth of membership per step.
//! * [`BurstChurn`] alternates bursts of joins and leaves — the high-
//!   rate regime the parallel-batch generalization (the paper's
//!   footnote) is meant for; it doubles as the workload of the batch
//!   experiments.

use crate::batch_drivers::BatchDriver;
use crate::budget::CorruptionBudget;
use now_core::{JoinSpec, NowSystem};
use now_net::{ClusterId, DetRng, NodeId};
use rand::Rng;

/// Flood a target cluster with arrivals so that it oversizes and splits
/// every few steps.
///
/// All arrivals contact the target (NOW's `randCl` re-routes each one to
/// a random host, so against the full protocol the pressure diffuses;
/// against the no-shuffle ablation the target itself inflates). Corrupt
/// while the budget allows, so captured halves stay captured.
#[derive(Debug, Clone, Copy)]
pub struct SplitForcing {
    /// The cluster under pressure.
    pub target: ClusterId,
    /// Corruption budget for the flood's arrivals.
    pub budget: CorruptionBudget,
}

impl SplitForcing {
    /// Floods `target` with arrivals, corrupting a `tau` fraction.
    pub fn new(target: ClusterId, tau: f64) -> Self {
        SplitForcing {
            target,
            budget: CorruptionBudget::new(tau),
        }
    }
}

impl BatchDriver for SplitForcing {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if sys.cluster(self.target).is_none() {
            let ids = sys.cluster_ids();
            // INVARIANT: LastCluster guard keeps `ids` non-empty; the
            // draw range is its exact length.
            self.target = ids[rng.gen_range(0..ids.len())];
        }
        let honest = !self.budget.can_corrupt_arrival(sys);
        (vec![JoinSpec::via(self.target, honest)], Vec::new())
    }

    fn name(&self) -> &'static str {
        "split-forcing"
    }
}

/// Drain a target cluster to force merges.
///
/// Each step forces one member of the target to leave (honest members
/// first — the adversary would rather keep its own nodes in play). When
/// the target dips below `k·logN/l`, the merge machinery dissolves a
/// random victim cluster into it and re-joins the original members:
/// maximal structural churn for one departure per step.
#[derive(Debug, Clone, Copy)]
pub struct MergeForcing {
    /// The cluster being drained.
    pub target: ClusterId,
    /// Corruption budget for interleaved replacement arrivals.
    pub budget: CorruptionBudget,
    rejoin_next: bool,
}

impl MergeForcing {
    /// Drains `target`, replacing departures with arrivals corrupted at
    /// fraction `tau` (so the population — and the model's floor — hold).
    pub fn new(target: ClusterId, tau: f64) -> Self {
        MergeForcing {
            target,
            budget: CorruptionBudget::new(tau),
            rejoin_next: false,
        }
    }
}

impl BatchDriver for MergeForcing {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if sys.cluster(self.target).is_none() {
            let ids = sys.cluster_ids();
            // INVARIANT: LastCluster guard keeps `ids` non-empty; the
            // draw range is its exact length.
            self.target = ids[rng.gen_range(0..ids.len())];
        }
        if self.rejoin_next {
            self.rejoin_next = false;
            let honest = !self.budget.can_corrupt_arrival(sys);
            return (vec![JoinSpec::uniform(honest)], Vec::new());
        }
        // INVARIANT: the retarget branch above just ensured the
        // target names a live cluster.
        let cluster = sys.cluster(self.target).expect("checked live above");
        let victim = cluster
            .members()
            .find(|&m| sys.is_honest(m).unwrap_or(false))
            .or_else(|| cluster.members().next());
        match victim {
            Some(node) => {
                self.rejoin_next = true;
                (Vec::new(), vec![node])
            }
            None => (Vec::new(), Vec::new()),
        }
    }

    fn name(&self) -> &'static str {
        "merge-forcing"
    }
}

/// Alternating bursts: `burst` consecutive joins, then `burst`
/// consecutive leaves of uniformly random nodes, repeated.
///
/// Population is stationary over a full period but the instantaneous
/// churn rate is maximal — the regime in which batching several
/// operations into one time step (the paper's footnote) pays off.
#[derive(Debug, Clone, Copy)]
pub struct BurstChurn {
    /// Operations per burst.
    pub burst: u64,
    /// Corruption budget for the join bursts.
    pub budget: CorruptionBudget,
    position: u64,
}

impl BurstChurn {
    /// Bursts of `burst` operations with corruption fraction `tau`.
    ///
    /// # Panics
    /// Panics if `burst == 0`.
    pub fn new(burst: u64, tau: f64) -> Self {
        assert!(burst > 0, "burst length must be positive");
        BurstChurn {
            burst,
            budget: CorruptionBudget::new(tau),
            position: 0,
        }
    }

    /// Whether the driver is currently in the joining half of its
    /// period.
    pub fn is_joining(&self) -> bool {
        self.position % (2 * self.burst) < self.burst
    }
}

impl BatchDriver for BurstChurn {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let joining = self.is_joining();
        self.position += 1;
        if joining {
            let honest = !self.budget.can_corrupt_arrival(sys);
            (vec![JoinSpec::uniform(honest)], Vec::new())
        } else {
            let nodes = sys.node_ids();
            // INVARIANT: population floor keeps the id list non-empty;
            // the draw range is its exact length.
            (Vec::new(), vec![nodes[rng.gen_range(0..nodes.len())]])
        }
    }

    fn name(&self) -> &'static str {
        "burst-churn"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::{BatchInput, ExecConfig, NowParams};

    fn system(n0: usize, tau: f64, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, tau, seed)
    }

    #[test]
    fn split_forcing_always_joins_at_target() {
        let sys = system(150, 0.2, 1);
        let target = sys.cluster_ids()[0];
        let mut adv = SplitForcing::new(target, 0.3);
        let mut rng = DetRng::new(1);
        for _ in 0..5 {
            match adv.decide_batch(&sys, &mut rng) {
                (joins, leaves) if joins.len() == 1 && leaves.is_empty() => {
                    assert_eq!(joins[0].contact, Some(target))
                }
                other => panic!("expected join, got {other:?}"),
            }
        }
    }

    #[test]
    fn split_forcing_retargets_dead_cluster() {
        let sys = system(150, 0.2, 2);
        let mut adv = SplitForcing::new(ClusterId::from_raw(77_777), 0.3);
        let mut rng = DetRng::new(2);
        let _ = adv.decide_batch(&sys, &mut rng);
        assert!(sys.cluster(adv.target).is_some());
    }

    #[test]
    fn merge_forcing_alternates_leave_and_join() {
        let sys = system(150, 0.2, 3);
        let target = sys.cluster_ids()[0];
        let mut adv = MergeForcing::new(target, 0.2);
        let mut rng = DetRng::new(3);
        match adv.decide_batch(&sys, &mut rng) {
            (joins, leaves) if joins.is_empty() && leaves.len() == 1 => {
                assert_eq!(sys.node_cluster(leaves[0]).unwrap(), target);
                assert!(sys.is_honest(leaves[0]).unwrap(), "honest drained first");
            }
            other => panic!("expected leave, got {other:?}"),
        }
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        assert_eq!((joins.len(), leaves.len()), (1, 0));
    }

    #[test]
    fn burst_churn_has_the_right_period() {
        let sys = system(200, 0.1, 4);
        let mut adv = BurstChurn::new(3, 0.1);
        let mut rng = DetRng::new(4);
        let mut pattern = Vec::new();
        for _ in 0..12 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            assert_eq!(joins.len() + leaves.len(), 1, "one op per step");
            pattern.push(joins.len() == 1);
        }
        assert_eq!(
            pattern,
            vec![true, true, true, false, false, false, true, true, true, false, false, false]
        );
    }

    #[test]
    #[should_panic(expected = "burst length")]
    fn burst_zero_rejected() {
        let _ = BurstChurn::new(0, 0.1);
    }

    /// End-to-end: split-forcing actually causes splits under the real
    /// protocol, and the invariants survive it at low τ.
    #[test]
    fn split_forcing_triggers_splits_against_now() {
        let mut sys = system(150, 0.1, 5);
        let target = sys.cluster_ids()[0];
        let mut adv = SplitForcing::new(target, 0.1);
        let mut rng = DetRng::new(5);
        for _ in 0..80 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            assert!(leaves.is_empty(), "split forcing only joins");
            sys.step_batch(
                &BatchInput::from_specs(&joins, &leaves),
                &ExecConfig::serial(),
            );
        }
        let (_, _, splits, _) = sys.op_counts();
        assert!(splits > 0, "80 arrivals must split something");
        sys.check_consistency().unwrap();
    }

    /// End-to-end: merge-forcing causes merges under the real protocol.
    #[test]
    fn merge_forcing_triggers_merges_against_now() {
        let mut sys = system(200, 0.1, 6);
        let target = sys.cluster_ids()[0];
        let mut adv = MergeForcing::new(target, 0.1);
        let mut rng = DetRng::new(6);
        for _ in 0..120 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            sys.step_batch(
                &BatchInput::from_specs(&joins, &leaves),
                &ExecConfig::serial(),
            );
        }
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "sustained draining must merge something");
        sys.check_consistency().unwrap();
    }
}
