//! The churn-driver trait, the attack styles, and the paper's
//! one-operation-per-step model over them.
//!
//! [`BatchDriver`] is the workspace's one churn-driver interface: each
//! time step a driver emits the arrivals and departures of that step,
//! and one [`now_core::NowSystem::step_batch`] executes them. Each
//! attack style has one driver, which emits whole batches (the §2
//! footnote's "several parallel join and leave operations"):
//!
//! * [`BatchJoinLeave`] — the §3.3 cluster-capture strategy: withdraw
//!   Byzantine nodes parked outside the target and re-join them
//!   (corrupt, budget permitting) steered at the target.
//! * [`BatchForcedLeave`] — the DoS attack: evict the target's honest
//!   members, replacing them with arrivals so the population (and the
//!   model floor) hold.
//! * [`BatchSplitForcing`] / [`BatchMergeForcing`] — structural
//!   pressure: flood the target so it splits every few steps, or drain
//!   it so it merges.
//! * [`BatchBurstChurn`] — alternating whole-batch join and leave
//!   bursts.
//!
//! The paper's model — at most one join or leave per time step — is
//! [`OnePerStep`] over any of them: it replays the inner driver's batch
//! one operation per step. At width 1 with [`ClusterPick::First`] the
//! targeted drivers are the §3.3 attacker and its structural cousins
//! one operation at a time.
//!
//! The targeted ones resolve their target through a [`ClusterPick`]
//! policy (largest cluster by default — the natural flood target) and
//! re-resolve whenever the current target merges away. Corruption
//! decisions project the population forward across the batch (the
//! pattern established by `BatchRandomChurn`), so a wide batch cannot
//! overshoot τ by deciding every slot against the stale pre-batch
//! ratio.

use crate::budget::CorruptionBudget;
use now_core::{JoinSpec, NowSystem};
use now_net::{ClusterId, DetRng, NodeId};
use std::collections::VecDeque;

/// A churn driver — adversarial strategy or environmental churn alike.
/// Each time step it emits one batch of operations: join specs
/// (corruption decision plus optional steered contact) and departing
/// nodes. An empty batch is a step in which time passes and nothing
/// churns; [`OnePerStep`] turns any driver into one that emits at most
/// one operation per step.
///
/// Implementations must be deterministic functions of `(sys, rng)` —
/// the runners rely on it for their bit-reproducibility guarantees.
pub trait BatchDriver {
    /// Decides this step's batch from the full system state (the
    /// paper's adversary has full information): the arrivals (with
    /// corruption flags and contact steering) and the departing nodes.
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>);

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// No churn at all: every step is an empty batch (time passes,
/// nothing churns) — control runs and quiesce phases.
#[derive(Debug, Clone, Copy, Default)]
pub struct QuietBatches;

impl BatchDriver for QuietBatches {
    fn decide_batch(
        &mut self,
        _sys: &NowSystem,
        _rng: &mut DetRng,
    ) -> (Vec<JoinSpec>, Vec<NodeId>) {
        (Vec::new(), Vec::new())
    }

    fn name(&self) -> &'static str {
        "quiet-batches"
    }
}

/// How a targeted batch driver (re)selects its victim cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterPick {
    /// The first live cluster in id order (what the one-op-per-step
    /// attacks aim at).
    First,
    /// The largest live cluster (ties broken by id) — the natural
    /// flood target.
    Largest,
    /// The smallest live cluster (ties broken by id) — the natural
    /// drain target.
    Smallest,
}

impl ClusterPick {
    /// Resolves the policy against the current system state.
    /// Deterministic: ties break toward the smaller cluster id.
    pub fn resolve(self, sys: &NowSystem) -> ClusterId {
        let ids = sys.cluster_ids();
        match self {
            // INVARIANT: the registry never drops its last cluster
            // (LastCluster guard), so the id list is non-empty.
            ClusterPick::First => ids[0],
            ClusterPick::Largest => ids
                .iter()
                .copied()
                .max_by_key(|&c| {
                    (
                        sys.cluster(c).map(|cl| cl.size()).unwrap_or(0),
                        std::cmp::Reverse(c),
                    )
                })
                // INVARIANT: LastCluster guard — at least one id exists.
                .expect("a live system has clusters"),
            ClusterPick::Smallest => ids
                .iter()
                .copied()
                .min_by_key(|&c| (sys.cluster(c).map(|cl| cl.size()).unwrap_or(usize::MAX), c))
                // INVARIANT: LastCluster guard — at least one id exists.
                .expect("a live system has clusters"),
        }
    }
}

/// Keeps a sticky target alive: re-resolves `pick` whenever the current
/// target is gone (merged away).
fn live_target(target: &mut Option<ClusterId>, pick: ClusterPick, sys: &NowSystem) -> ClusterId {
    match *target {
        Some(c) if sys.cluster(c).is_some() => c,
        _ => {
            let c = pick.resolve(sys);
            *target = Some(c);
            c
        }
    }
}

/// The §3.3 join–leave attack at batch rate: each step withdraws up to
/// `width / 2` Byzantine nodes that sit *outside* the target cluster
/// and re-joins the same number of corrupt arrivals (budget permitting)
/// steered at the target. When no Byzantine node is parked outside the
/// target, the driver falls back to pure corrupt insertion up to the
/// projected budget.
#[derive(Debug, Clone, Copy)]
pub struct BatchJoinLeave {
    /// Step size: a step holds at most `half = max(1, width / 2)`
    /// leaves and as many joins — up to `width` operations at
    /// even widths, `width − 1` at odd widths ≥ 3, and 2 at width 1.
    pub width: usize,
    /// Corruption budget for the re-joining arrivals.
    pub budget: CorruptionBudget,
    /// Target (re)selection policy.
    pub pick: ClusterPick,
    target: Option<ClusterId>,
}

impl BatchJoinLeave {
    /// Attacks the [`ClusterPick::Largest`] cluster with batches of
    /// `width` operations at corruption fraction `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchJoinLeave {
            width,
            budget: CorruptionBudget::new(tau),
            pick: ClusterPick::Largest,
            target: None,
        }
    }

    /// Overrides the target-selection policy.
    pub fn with_pick(mut self, pick: ClusterPick) -> Self {
        self.pick = pick;
        self.target = None;
        self
    }

    /// The current sticky target, if one has been resolved.
    pub fn target(&self) -> Option<ClusterId> {
        self.target
    }
}

impl BatchDriver for BatchJoinLeave {
    fn decide_batch(&mut self, sys: &NowSystem, _rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let target = live_target(&mut self.target, self.pick, sys);
        let half = (self.width / 2).max(1);

        // Withdraw Byzantine nodes parked outside the target (members
        // already inside stay put), in deterministic id order.
        let leaves: Vec<NodeId> = sys
            .byz_node_ids()
            .into_iter()
            .filter(|&b| sys.node_cluster(b).map(|c| c != target).unwrap_or(false))
            .take(half)
            .collect();

        // Re-join the withdrawn mass as corrupt arrivals steered at the
        // target; project the withdrawals so the budget check sees the
        // post-leave ratio. Slots the budget refuses are dropped — the
        // §3.3 adversary only ever inserts its own nodes.
        let mut pop = sys.population().saturating_sub(leaves.len() as u64);
        let mut byz = sys.byz_population().saturating_sub(leaves.len() as u64);
        let slots = if leaves.is_empty() {
            half
        } else {
            leaves.len()
        };
        let mut joins = Vec::with_capacity(slots);
        for _ in 0..slots {
            if self.budget.can_corrupt_at(pop, byz) {
                joins.push(JoinSpec::via(target, false));
                pop += 1;
                byz += 1;
            }
        }
        (joins, leaves)
    }

    fn name(&self) -> &'static str {
        "batch-join-leave"
    }
}

/// The forced-leave (DoS) attack at batch rate: each step evicts up to
/// `width / 2` *honest* members of the target cluster and interleaves
/// the same number of uniform replacement arrivals (corrupted up to the
/// projected budget), so the population — and the model's floor — hold
/// while the target's Byzantine share is pressured upward.
#[derive(Debug, Clone, Copy)]
pub struct BatchForcedLeave {
    /// Step size: a step holds at most `half = max(1, width / 2)`
    /// evictions and as many replacements — up to `width` operations at
    /// even widths, `width − 1` at odd widths ≥ 3, and 2 at width 1.
    pub width: usize,
    /// Corruption budget for the replacement arrivals.
    pub budget: CorruptionBudget,
    /// Target (re)selection policy.
    pub pick: ClusterPick,
    target: Option<ClusterId>,
}

impl BatchForcedLeave {
    /// Attacks the [`ClusterPick::Largest`] cluster with batches of
    /// `width` operations at corruption fraction `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchForcedLeave {
            width,
            budget: CorruptionBudget::new(tau),
            pick: ClusterPick::Largest,
            target: None,
        }
    }

    /// Overrides the target-selection policy.
    pub fn with_pick(mut self, pick: ClusterPick) -> Self {
        self.pick = pick;
        self.target = None;
        self
    }

    /// Aims at `target` first; `pick` takes over once it merges away.
    /// Call after [`Self::with_pick`], which clears the target.
    pub fn with_target(mut self, target: ClusterId) -> Self {
        self.target = Some(target);
        self
    }

    /// The current sticky target, if one has been resolved.
    pub fn target(&self) -> Option<ClusterId> {
        self.target
    }
}

impl BatchDriver for BatchForcedLeave {
    fn decide_batch(&mut self, sys: &NowSystem, _rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let target = live_target(&mut self.target, self.pick, sys);
        let half = (self.width / 2).max(1);

        let leaves: Vec<NodeId> = sys
            .cluster(target)
            .map(|c| {
                c.members()
                    .filter(|&m| sys.is_honest(m).unwrap_or(false))
                    .take(half)
                    .collect()
            })
            .unwrap_or_default();

        // Replacements keep n stable; the evictions removed honest
        // nodes, so project the population down but not the Byzantine
        // count before the budget check.
        let mut pop = sys.population().saturating_sub(leaves.len() as u64);
        let mut byz = sys.byz_population();
        let joins = (0..leaves.len())
            .map(|_| {
                let corrupt = self.budget.can_corrupt_at(pop, byz);
                pop += 1;
                if corrupt {
                    byz += 1;
                }
                JoinSpec::uniform(!corrupt)
            })
            .collect();
        (joins, leaves)
    }

    fn name(&self) -> &'static str {
        "batch-forced-leave"
    }
}

/// Split-forcing pressure at batch rate: every step floods the target
/// with `width` arrivals steered at it (corrupted up to the projected
/// budget), so the target repeatedly oversizes and splits. Against the
/// full protocol `randCl` re-routes each arrival to a walk-chosen host
/// and the pressure diffuses; against the no-shuffle ablation the
/// target itself inflates.
#[derive(Debug, Clone, Copy)]
pub struct BatchSplitForcing {
    /// Arrivals per step.
    pub width: usize,
    /// Corruption budget for the flood's arrivals.
    pub budget: CorruptionBudget,
    /// Target (re)selection policy.
    pub pick: ClusterPick,
    target: Option<ClusterId>,
}

impl BatchSplitForcing {
    /// Floods the [`ClusterPick::Largest`] cluster with batches of
    /// `width` arrivals at corruption fraction `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchSplitForcing {
            width,
            budget: CorruptionBudget::new(tau),
            pick: ClusterPick::Largest,
            target: None,
        }
    }

    /// Overrides the target-selection policy.
    pub fn with_pick(mut self, pick: ClusterPick) -> Self {
        self.pick = pick;
        self.target = None;
        self
    }

    /// The current sticky target, if one has been resolved.
    pub fn target(&self) -> Option<ClusterId> {
        self.target
    }
}

impl BatchDriver for BatchSplitForcing {
    fn decide_batch(&mut self, sys: &NowSystem, _rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let target = live_target(&mut self.target, self.pick, sys);
        let mut pop = sys.population();
        let mut byz = sys.byz_population();
        let joins = (0..self.width)
            .map(|_| {
                let corrupt = self.budget.can_corrupt_at(pop, byz);
                pop += 1;
                if corrupt {
                    byz += 1;
                }
                JoinSpec::via(target, !corrupt)
            })
            .collect();
        (joins, Vec::new())
    }

    fn name(&self) -> &'static str {
        "batch-split-forcing"
    }
}

/// The merge-forcing drain at batch rate: each step evicts up to
/// `width / 2` members of the target cluster (honest first — the
/// adversary keeps its own nodes in play) and interleaves the same number
/// of *uniform* replacement arrivals corrupted up to the projected
/// budget. The replacements keep the population and model floor
/// intact, but they land on walk-chosen hosts — so the target
/// net-shrinks below `k·logN/l` within a few steps and the merge
/// machinery dissolves a victim cluster into it: two clusters' worth of
/// structural churn per batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchMergeForcing {
    /// Step size: a step holds at most `half = max(1, width / 2)`
    /// evictions and as many replacements — up to `width` operations at
    /// even widths, `width − 1` at odd widths ≥ 3, and 2 at width 1.
    pub width: usize,
    /// Corruption budget for the replacement arrivals.
    pub budget: CorruptionBudget,
    /// Target (re)selection policy.
    pub pick: ClusterPick,
    target: Option<ClusterId>,
}

impl BatchMergeForcing {
    /// Drains the [`ClusterPick::Largest`] cluster with batches of
    /// `width` operations at corruption fraction `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchMergeForcing {
            width,
            budget: CorruptionBudget::new(tau),
            pick: ClusterPick::Largest,
            target: None,
        }
    }

    /// Overrides the target-selection policy.
    pub fn with_pick(mut self, pick: ClusterPick) -> Self {
        self.pick = pick;
        self.target = None;
        self
    }

    /// The current sticky target, if one has been resolved.
    pub fn target(&self) -> Option<ClusterId> {
        self.target
    }
}

impl BatchDriver for BatchMergeForcing {
    fn decide_batch(&mut self, sys: &NowSystem, _rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let target = live_target(&mut self.target, self.pick, sys);
        let half = (self.width / 2).max(1);

        // Drain honest members first, then (if the target runs out of
        // honest mass) the adversary's own — both in id order, so the
        // batch is a pure function of the system state.
        let (leaves, honest_leaves) = match sys.cluster(target) {
            Some(c) => {
                let mut honest: Vec<NodeId> = Vec::new();
                let mut byz: Vec<NodeId> = Vec::new();
                for m in c.members() {
                    if sys.is_honest(m).unwrap_or(false) {
                        honest.push(m);
                    } else {
                        byz.push(m);
                    }
                }
                let honest_taken = honest.len().min(half);
                honest.truncate(half);
                honest.extend(byz.into_iter().take(half - honest.len()));
                (honest, honest_taken)
            }
            None => (Vec::new(), 0),
        };

        // Uniform replacements hold n stable; project the departures
        // before the budget check (honest evictions lower only the
        // population, Byzantine ones lower both counts).
        let mut pop = sys.population().saturating_sub(leaves.len() as u64);
        let mut byz = sys
            .byz_population()
            .saturating_sub((leaves.len() - honest_leaves) as u64);
        let joins = (0..leaves.len())
            .map(|_| {
                let corrupt = self.budget.can_corrupt_at(pop, byz);
                pop += 1;
                if corrupt {
                    byz += 1;
                }
                JoinSpec::uniform(!corrupt)
            })
            .collect();
        (joins, leaves)
    }

    fn name(&self) -> &'static str {
        "batch-merge-forcing"
    }
}

/// Alternating join/leave bursts at batch rate: each *step* is one
/// whole burst — `width` arrivals on even steps, `width` departures of
/// distinct uniformly random nodes on odd steps — the regime the
/// paper's parallel-batch footnote is for. Under [`OnePerStep`] a burst
/// spreads over `width` consecutive one-op steps.
#[derive(Debug, Clone, Copy)]
pub struct BatchBurstChurn {
    /// Operations per burst (= per step).
    pub width: usize,
    /// Corruption budget for the join bursts.
    pub budget: CorruptionBudget,
    /// Steers the join bursts at a sticky [`ClusterPick`] target
    /// (`None` = uniform contacts).
    pub pick: Option<ClusterPick>,
    target: Option<ClusterId>,
    position: u64,
}

impl BatchBurstChurn {
    /// Uniform bursts of `width` operations at corruption fraction
    /// `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn new(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchBurstChurn {
            width,
            budget: CorruptionBudget::new(tau),
            pick: None,
            target: None,
            position: 0,
        }
    }

    /// Steers the join bursts at a sticky target chosen by `pick`.
    pub fn with_pick(mut self, pick: ClusterPick) -> Self {
        self.pick = Some(pick);
        self.target = None;
        self
    }

    /// Whether the next batch is a join burst.
    pub fn is_joining(&self) -> bool {
        self.position.is_multiple_of(2)
    }

    /// The current sticky target, if steered and resolved.
    pub fn target(&self) -> Option<ClusterId> {
        self.target
    }
}

impl BatchDriver for BatchBurstChurn {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let joining = self.is_joining();
        self.position += 1;
        if joining {
            let contact = self
                .pick
                .map(|pick| live_target(&mut self.target, pick, sys));
            let mut pop = sys.population();
            let mut byz = sys.byz_population();
            let joins = (0..self.width)
                .map(|_| {
                    let corrupt = self.budget.can_corrupt_at(pop, byz);
                    pop += 1;
                    if corrupt {
                        byz += 1;
                    }
                    match contact {
                        Some(c) => JoinSpec::via(c, !corrupt),
                        None => JoinSpec::uniform(!corrupt),
                    }
                })
                .collect();
            (joins, Vec::new())
        } else {
            let nodes = sys.node_ids();
            let want = self.width.min(nodes.len());
            let picks = now_graph::sample::sample_distinct(nodes.len(), want, rng);
            (Vec::new(), picks.into_iter().map(|i| nodes[i]).collect())
        }
    }

    fn name(&self) -> &'static str {
        "batch-burst-churn"
    }
}

/// The paper's one-operation-per-step model over a batch driver: asks
/// the inner driver for a batch, then emits it one operation per step —
/// its leaves first, then its joins (the order `step_batch` runs a batch
/// in) — and asks again only once all of it is out. An empty inner
/// batch is an empty step.
///
/// A buffered operation runs against the state of a later step: a
/// leave whose node has gone meanwhile is refused by `step_batch` (it
/// lands in the report's `rejected`), and a join steered at a cluster
/// that merged away contacts a uniform one.
#[derive(Debug, Clone)]
pub struct OnePerStep<D> {
    inner: D,
    leaves: VecDeque<NodeId>,
    joins: VecDeque<JoinSpec>,
}

impl<D: BatchDriver> OnePerStep<D> {
    /// Emits `inner`'s batches one operation per step.
    pub fn new(inner: D) -> Self {
        OnePerStep {
            inner,
            leaves: VecDeque::new(),
            joins: VecDeque::new(),
        }
    }

    /// The inner driver (its current target, say).
    pub fn inner(&self) -> &D {
        &self.inner
    }
}

impl<D: BatchDriver> BatchDriver for OnePerStep<D> {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        if self.leaves.is_empty() && self.joins.is_empty() {
            let (joins, leaves) = self.inner.decide_batch(sys, rng);
            self.joins = joins.into();
            self.leaves = leaves.into();
        }
        match self.leaves.pop_front() {
            Some(node) => (Vec::new(), vec![node]),
            None => (self.joins.pop_front().into_iter().collect(), Vec::new()),
        }
    }

    fn name(&self) -> &'static str {
        self.inner.name()
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
    fn quiet_never_acts() {
        let sys = system(100, 0.1, 1);
        let mut rng = DetRng::new(1);
        assert_eq!(
            QuietBatches.decide_batch(&sys, &mut rng),
            (Vec::new(), Vec::new())
        );
        assert_eq!(QuietBatches.name(), "quiet-batches");
    }

    #[test]
    fn cluster_pick_policies_resolve_deterministically() {
        let mut sys = system(150, 0.1, 1);
        // Random churn makes sizes unequal.
        for i in 0..20 {
            sys.join(i % 7 == 0);
        }
        let largest = ClusterPick::Largest.resolve(&sys);
        let smallest = ClusterPick::Smallest.resolve(&sys);
        assert_eq!(ClusterPick::First.resolve(&sys), sys.cluster_ids()[0]);
        assert!(
            sys.cluster(largest).unwrap().size() >= sys.cluster(smallest).unwrap().size(),
            "largest must not be smaller than smallest"
        );
        assert_eq!(largest, ClusterPick::Largest.resolve(&sys), "deterministic");
        assert_eq!(smallest, ClusterPick::Smallest.resolve(&sys));
    }

    #[test]
    fn join_leave_batches_withdraw_and_reinsert_at_target() {
        let sys = system(200, 0.2, 2);
        let mut adv = BatchJoinLeave::new(6, 0.3);
        let mut rng = DetRng::new(2);
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        let target = adv.target().unwrap();
        assert!(!leaves.is_empty(), "byz nodes exist outside the target");
        for &n in &leaves {
            assert!(!sys.is_honest(n).unwrap(), "withdraws its own nodes");
            assert_ne!(sys.node_cluster(n).unwrap(), target);
        }
        assert_eq!(joins.len(), leaves.len(), "re-joins the withdrawn mass");
        for j in &joins {
            assert!(!j.honest, "§3.3 inserts corrupt nodes");
            assert_eq!(j.contact, Some(target), "steered at the target");
        }
    }

    #[test]
    fn join_leave_respects_projected_budget() {
        // At τ exactly at the system rate, withdrawing j byz nodes buys
        // exactly j corrupt re-insertions — never more.
        let sys = system(100, 0.10, 3);
        let mut adv = BatchJoinLeave::new(8, 0.10);
        let mut rng = DetRng::new(3);
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        assert!(!leaves.is_empty());
        assert!(joins.len() <= leaves.len(), "at most the withdrawn mass");
        let frac = (sys.byz_population() - leaves.len() as u64 + joins.len() as u64) as f64
            / sys.population() as f64;
        assert!(frac <= 0.10 + 1e-9, "batch overshot τ: {frac}");
    }

    #[test]
    fn forced_leave_batches_evict_honest_and_replace() {
        let sys = system(200, 0.2, 4);
        let mut adv = BatchForcedLeave::new(6, 0.2).with_pick(ClusterPick::First);
        let mut rng = DetRng::new(4);
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        let target = adv.target().unwrap();
        assert_eq!(leaves.len(), 3, "width/2 evictions");
        for &n in &leaves {
            assert!(sys.is_honest(n).unwrap(), "DoS hits honest nodes");
            assert_eq!(sys.node_cluster(n).unwrap(), target);
        }
        assert_eq!(joins.len(), leaves.len(), "population held stable");
        assert!(joins.iter().all(|j| j.contact.is_none()), "uniform rejoins");
    }

    #[test]
    fn split_forcing_batches_flood_the_target() {
        let sys = system(200, 0.1, 5);
        let mut adv = BatchSplitForcing::new(5, 0.1).with_pick(ClusterPick::Smallest);
        let mut rng = DetRng::new(5);
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        let target = adv.target().unwrap();
        assert!(leaves.is_empty());
        assert_eq!(joins.len(), 5);
        assert!(joins.iter().all(|j| j.contact == Some(target)));
        // Projected budget: at τ = 0.1 with the system already at 10%,
        // at most a rounding-slack arrival can be corrupt.
        let corrupt = joins.iter().filter(|j| !j.honest).count();
        assert!(corrupt <= 1, "flood overshot the projected budget");
    }

    #[test]
    fn dead_targets_are_reresolved() {
        let sys = system(150, 0.1, 6);
        for mut adv in [
            BatchSplitForcing::new(2, 0.1).with_pick(ClusterPick::First),
            BatchSplitForcing::new(2, 0.1).with_pick(ClusterPick::Largest),
        ] {
            let mut rng = DetRng::new(6);
            let _ = adv.decide_batch(&sys, &mut rng);
            assert!(sys.cluster(adv.target().unwrap()).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn zero_width_rejected() {
        let _ = BatchJoinLeave::new(0, 0.1);
    }

    #[test]
    fn merge_forcing_batches_drain_honest_first_and_replace_uniform() {
        let sys = system(200, 0.2, 7);
        let mut adv = BatchMergeForcing::new(6, 0.2).with_pick(ClusterPick::First);
        let mut rng = DetRng::new(7);
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        let target = adv.target().unwrap();
        assert_eq!(target, sys.cluster_ids()[0]);
        assert_eq!(leaves.len(), 3, "width/2 evictions");
        for &n in &leaves {
            assert_eq!(sys.node_cluster(n).unwrap(), target, "drains the target");
            assert!(sys.is_honest(n).unwrap(), "honest drained first");
        }
        assert_eq!(joins.len(), leaves.len(), "population held stable");
        assert!(joins.iter().all(|j| j.contact.is_none()), "uniform rejoins");
        // Projected budget: evicting honest nodes cannot fund more
        // corruption than τ allows post-batch.
        let corrupt = joins.iter().filter(|j| !j.honest).count() as u64;
        let frac = (sys.byz_population() + corrupt) as f64 / sys.population() as f64;
        assert!(frac <= 0.2 + 0.02, "batch overshot τ: {frac}");
    }

    #[test]
    fn merge_forcing_batches_fall_back_to_byz_members() {
        // Drain wider than the target's honest mass: the tail of the
        // eviction list must be the adversary's own nodes, id-ordered.
        let sys = system(60, 0.3, 8);
        let target = sys.cluster_ids()[0];
        let honest_count = sys.cluster(target).unwrap().honest_count();
        let size = sys.cluster(target).unwrap().size();
        let mut adv = BatchMergeForcing::new(2 * size, 0.3).with_pick(ClusterPick::First);
        let mut rng = DetRng::new(8);
        let (_, leaves) = adv.decide_batch(&sys, &mut rng);
        assert_eq!(leaves.len(), size, "whole cluster drained");
        let honest_evicted = leaves
            .iter()
            .filter(|&&n| sys.is_honest(n).unwrap())
            .count();
        assert_eq!(honest_evicted, honest_count, "honest first, then byz");
    }

    #[test]
    fn burst_batches_alternate_whole_bursts() {
        let sys = system(200, 0.1, 9);
        let mut adv = BatchBurstChurn::new(5, 0.1);
        let mut rng = DetRng::new(9);
        for step in 0..6 {
            let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
            if step % 2 == 0 {
                assert_eq!((joins.len(), leaves.len()), (5, 0), "join burst");
                assert!(joins.iter().all(|j| j.contact.is_none()), "uniform joins");
            } else {
                assert_eq!((joins.len(), leaves.len()), (0, 5), "leave burst");
                let mut distinct = leaves.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), 5, "distinct departures");
            }
        }
    }

    #[test]
    fn burst_batches_steer_when_picked() {
        let sys = system(200, 0.1, 10);
        let mut adv = BatchBurstChurn::new(4, 0.1).with_pick(ClusterPick::Largest);
        let mut rng = DetRng::new(10);
        let (joins, _) = adv.decide_batch(&sys, &mut rng);
        let target = adv.target().unwrap();
        assert_eq!(target, ClusterPick::Largest.resolve(&sys));
        assert!(joins.iter().all(|j| j.contact == Some(target)));
    }

    /// One step of a one-op driver, as the adapter table expects it;
    /// "target" is the first cluster, which every targeted row aims at.
    #[derive(Debug, Clone, Copy)]
    enum Expect {
        /// A Byzantine node outside the target leaves.
        ByzLeaveOutside,
        /// An honest member of the target leaves.
        HonestEviction,
        /// Some node leaves.
        AnyLeave,
        /// A corrupt arrival steered at the target.
        CorruptJoinAtTarget,
        /// An arrival steered at the target.
        JoinAtTarget,
        /// An arrival contacting a uniform cluster.
        UniformJoin,
        /// Nothing churns.
        Idle,
    }

    impl Expect {
        fn holds(self, sys: &NowSystem, joins: &[JoinSpec], leaves: &[NodeId]) -> bool {
            let target = sys.cluster_ids()[0];
            let honest = |n: NodeId| sys.is_honest(n).unwrap();
            let home = |n: NodeId| sys.node_cluster(n).unwrap();
            match (self, joins, leaves) {
                (Expect::ByzLeaveOutside, [], &[n]) => !honest(n) && home(n) != target,
                (Expect::HonestEviction, [], &[n]) => honest(n) && home(n) == target,
                (Expect::AnyLeave, [], [_]) => true,
                (Expect::CorruptJoinAtTarget, [j], []) => !j.honest && j.contact == Some(target),
                (Expect::JoinAtTarget, [j], []) => j.contact == Some(target),
                (Expect::UniformJoin, [j], []) => j.contact.is_none(),
                (Expect::Idle, [], []) => true,
                _ => false,
            }
        }
    }

    /// The paper's per-step attacks are [`OnePerStep`] over the batch
    /// drivers at width 1 aimed at the first cluster: each row runs its
    /// driver on the serial engine and checks every step's one
    /// operation, leaves of a batch before its joins.
    #[test]
    fn one_per_step_replays_each_style_one_op_at_a_time() {
        use Expect::*;
        fn one<D: BatchDriver + 'static>(inner: D) -> Box<dyn BatchDriver> {
            Box::new(OnePerStep::new(inner))
        }
        let first = ClusterPick::First;
        let rows: Vec<(&str, Box<dyn BatchDriver>, Vec<Expect>)> = vec![
            (
                "join-leave",
                one(BatchJoinLeave::new(1, 0.3).with_pick(first)),
                vec![
                    ByzLeaveOutside,
                    CorruptJoinAtTarget,
                    ByzLeaveOutside,
                    CorruptJoinAtTarget,
                ],
            ),
            (
                "forced-leave",
                one(BatchForcedLeave::new(1, 0.2).with_pick(first)),
                vec![HonestEviction, UniformJoin, HonestEviction, UniformJoin],
            ),
            (
                // The second eviction was decided before the first
                // one's exchange, which may have moved its node.
                "forced-leave, width 4",
                one(BatchForcedLeave::new(4, 0.2).with_pick(first)),
                vec![HonestEviction, AnyLeave, UniformJoin, UniformJoin],
            ),
            (
                "merge-forcing",
                one(BatchMergeForcing::new(1, 0.2).with_pick(first)),
                vec![HonestEviction, UniformJoin, HonestEviction, UniformJoin],
            ),
            (
                "split-forcing",
                one(BatchSplitForcing::new(1, 0.3).with_pick(first)),
                vec![JoinAtTarget; 5],
            ),
            (
                "burst(3)",
                one(BatchBurstChurn::new(3, 0.1)),
                [[UniformJoin; 3], [AnyLeave; 3]].concat(),
            ),
            ("quiet", one(QuietBatches), vec![Idle; 3]),
        ];
        for (name, mut adv, expected) in rows {
            let mut sys = system(200, 0.2, 11);
            let mut rng = DetRng::new(11);
            let mut leavers: Vec<NodeId> = Vec::new();
            for (step, expect) in expected.into_iter().enumerate() {
                let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
                assert!(
                    expect.holds(&sys, &joins, &leaves),
                    "{name}, step {step}: expected {expect:?}, got {joins:?} {leaves:?}"
                );
                leavers.extend(&leaves);
                let input = BatchInput::from_specs(&joins, &leaves);
                let report = sys.step_batch(&input, &ExecConfig::serial());
                assert!(report.rejected.is_empty(), "{name}, step {step}");
            }
            let all = leavers.len();
            leavers.sort_unstable();
            leavers.dedup();
            assert_eq!(leavers.len(), all, "{name}: distinct leavers");
            sys.check_consistency().unwrap();
        }

        // A buffered leave runs a step late: if its node left meanwhile,
        // `step_batch` refuses it instead of panicking.
        let mut sys = system(200, 0.2, 12);
        let mut rng = DetRng::new(12);
        let mut adv = OnePerStep::new(BatchForcedLeave::new(4, 0.2).with_pick(first));
        let (_, due) = adv.decide_batch(&sys, &mut rng);
        let (_, buffered) = adv.clone().decide_batch(&sys, &mut rng);
        sys.leave(buffered[0]).unwrap();
        sys.step_batch(&BatchInput::from_specs(&[], &due), &ExecConfig::serial());

        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        assert_eq!((joins.len(), &leaves), (0, &buffered));
        let population = sys.population();
        let report = sys.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::serial(),
        );
        assert_eq!(report.rejected.len(), 1, "the departed node is refused");
        assert_eq!(sys.population(), population);
        sys.check_consistency().unwrap();
    }
}
