//! Per-step churn strategies: what the adversary (or the environment)
//! does at each time step under the paper's one-join-or-leave-per-step
//! model — a [`BatchDriver`] whose batch holds at most one operation.

use crate::batch_drivers::BatchDriver;
use crate::budget::CorruptionBudget;
use now_core::{JoinSpec, NowSystem};
use now_net::{ClusterId, DetRng, NodeId};
use rand::Rng;

/// The §3.3 cluster-capture strategy: "the adversary chooses a specific
/// cluster and keeps adding and removing the Byzantine nodes until they
/// fall into that cluster."
///
/// Each step: withdraw a Byzantine node that is *not* in the target
/// cluster (members already inside stay put), then re-join it (corrupt,
/// budget permitting), contacting the target so the walk starts there.
/// Against NOW the exchange shuffling makes the capture probability
/// vanish; against the no-shuffle ablation the target cluster is
/// captured quickly (experiment X-JLA).
#[derive(Debug, Clone, Copy)]
pub struct JoinLeaveAttack {
    /// The cluster the adversary wants to capture.
    pub target: ClusterId,
    /// Corruption budget.
    pub budget: CorruptionBudget,
    leave_next: bool,
}

impl JoinLeaveAttack {
    /// Attacks `target` with corruption fraction `tau`.
    pub fn new(target: ClusterId, tau: f64) -> Self {
        JoinLeaveAttack {
            target,
            budget: CorruptionBudget::new(tau),
            leave_next: true,
        }
    }

    /// Retargets the attack (e.g. after the target cluster is merged
    /// away).
    pub fn retarget(&mut self, target: ClusterId) {
        self.target = target;
    }
}

impl BatchDriver for JoinLeaveAttack {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        // If the target vanished (merged), retarget to some live cluster.
        if sys.cluster(self.target).is_none() {
            let ids = sys.cluster_ids();
            // INVARIANT: LastCluster guard keeps `ids` non-empty; the
            // draw range is its exact length.
            self.target = ids[rng.gen_range(0..ids.len())];
        }
        if self.leave_next {
            // Withdraw a Byzantine node outside the target, if any.
            let candidate = sys.byz_node_ids().into_iter().find(|&b| {
                sys.node_cluster(b)
                    .map(|c| c != self.target)
                    .unwrap_or(false)
            });
            if let Some(node) = candidate {
                self.leave_next = false;
                return (Vec::new(), vec![node]);
            }
            // All byzantine nodes already in the target (or none exist):
            // try to add one.
        }
        self.leave_next = true;
        if self.budget.can_corrupt_arrival(sys) {
            (vec![JoinSpec::via(self.target, false)], Vec::new())
        } else {
            (Vec::new(), Vec::new())
        }
    }

    fn name(&self) -> &'static str {
        "join-leave-attack"
    }
}

/// DoS attack: force *honest* members of the target cluster to leave,
/// concentrating the surviving Byzantine share. The paper's model allows
/// the adversary to induce such churn; NOW's leave-triggered exchanges
/// are the designed countermeasure.
#[derive(Debug, Clone, Copy)]
pub struct ForcedLeaveAttack {
    /// Cluster under attack.
    pub target: ClusterId,
    /// Corruption budget for replacement arrivals (interleaved joins
    /// keep the population steady).
    pub budget: CorruptionBudget,
    join_next: bool,
}

impl ForcedLeaveAttack {
    /// Attacks `target` with corruption fraction `tau`.
    pub fn new(target: ClusterId, tau: f64) -> Self {
        ForcedLeaveAttack {
            target,
            budget: CorruptionBudget::new(tau),
            join_next: false,
        }
    }
}

impl BatchDriver for ForcedLeaveAttack {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if sys.cluster(self.target).is_none() {
            let ids = sys.cluster_ids();
            // INVARIANT: LastCluster guard keeps `ids` non-empty; the
            // draw range is its exact length.
            self.target = ids[rng.gen_range(0..ids.len())];
        }
        if self.join_next {
            self.join_next = false;
            let honest = !self.budget.can_corrupt_arrival(sys);
            return (vec![JoinSpec::uniform(honest)], Vec::new());
        }
        let victim = sys
            .cluster(self.target)
            .and_then(|c| c.members().find(|&m| sys.is_honest(m).unwrap_or(false)));
        match victim {
            Some(node) => {
                self.join_next = true; // replace next step to keep n stable
                (Vec::new(), vec![node])
            }
            None => (Vec::new(), Vec::new()),
        }
    }

    fn name(&self) -> &'static str {
        "forced-leave-attack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_core::NowParams;

    fn system(n0: usize, tau: f64, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, tau, seed)
    }

    #[test]
    fn join_leave_attack_alternates_and_targets() {
        let sys = system(150, 0.2, 4);
        let target = sys.cluster_ids()[0];
        let mut adv = JoinLeaveAttack::new(target, 0.3);
        let mut rng = DetRng::new(4);
        // First action: withdraw a byzantine node from outside the target.
        match adv.decide_batch(&sys, &mut rng) {
            (joins, leaves) if joins.is_empty() && leaves.len() == 1 => {
                assert!(!sys.is_honest(leaves[0]).unwrap());
                assert_ne!(sys.node_cluster(leaves[0]).unwrap(), target);
            }
            other => panic!("expected leave, got {other:?}"),
        }
        // Second: corrupt join contacting the target.
        match adv.decide_batch(&sys, &mut rng) {
            (joins, leaves) if joins.len() == 1 && leaves.is_empty() => {
                assert!(!joins[0].honest);
                assert_eq!(joins[0].contact, Some(target));
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn join_leave_attack_retargets_dead_cluster() {
        let sys = system(150, 0.2, 5);
        let ghost = ClusterId::from_raw(99_999);
        let mut adv = JoinLeaveAttack::new(ghost, 0.3);
        let mut rng = DetRng::new(5);
        let _ = adv.decide_batch(&sys, &mut rng);
        assert!(sys.cluster(adv.target).is_some(), "must retarget to live");
    }

    #[test]
    fn forced_leave_attack_evicts_honest_from_target() {
        let sys = system(150, 0.2, 6);
        let target = sys.cluster_ids()[1];
        let mut adv = ForcedLeaveAttack::new(target, 0.2);
        let mut rng = DetRng::new(6);
        match adv.decide_batch(&sys, &mut rng) {
            (joins, leaves) if joins.is_empty() && leaves.len() == 1 => {
                assert!(sys.is_honest(leaves[0]).unwrap(), "DoS hits honest nodes");
                assert_eq!(sys.node_cluster(leaves[0]).unwrap(), target);
            }
            other => panic!("expected leave, got {other:?}"),
        }
        // Next step replaces the departed node.
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        assert_eq!((joins.len(), leaves.len()), (1, 0));
    }

    #[test]
    fn per_step_strategies_are_object_safe_batch_drivers() {
        let sys = system(100, 0.1, 7);
        let mut rng = DetRng::new(7);
        let mut advs: Vec<Box<dyn BatchDriver>> = vec![
            Box::new(crate::QuietBatches),
            Box::new(JoinLeaveAttack::new(sys.cluster_ids()[0], 0.2)),
        ];
        for a in advs.iter_mut() {
            let (joins, leaves) = a.decide_batch(&sys, &mut rng);
            assert!(joins.len() + leaves.len() <= 1);
        }
    }
}
