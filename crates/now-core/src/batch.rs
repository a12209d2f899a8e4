//! Parallel join/leave batches: the step's arrivals, its report, and
//! the cluster footprints its conflict-free waves are cut by.
//!
//! The paper's model processes one join or leave per time step "for
//! simplicity of presentation", with the footnote (§2): *"However, the
//! analysis can be generalized to several parallel join and leave
//! operations."* This module implements that generalization: a batch of
//! arrivals and departures executed within a **single** time step,
//! scheduled into **conflict-free waves**.
//!
//! # Footprints and waves
//!
//! Each operation is assigned a *cluster footprint* before it runs: the
//! cluster it coordinates through (the joiner's contact cluster, the
//! leaver's home cluster) plus that cluster's overlay neighborhood —
//! the clusters that receive view updates and are the candidate
//! split/merge/exchange counterparties of the operation's first
//! coordination round. Two operations with intersecting footprints
//! contend for the same clusters' quorums and must be serialized; two
//! operations with disjoint footprints can run concurrently.
//!
//! The wave engine ([`crate::wave_exec`]) partitions the batch into
//! waves by scanning it in canonical order (departures before arrivals
//! — failure detection of the step's leavers precedes the admission of
//! its joiners — each in input order) and opening a new wave whenever
//! an operation's footprint intersects the current wave's. Waves
//! therefore form contiguous segments of the canonical order and every
//! wave's operations are pairwise footprint-disjoint. The operations
//! themselves run one at a time in that order, each live on the
//! registry; the waves price the step. The batch is deterministic:
//! same seed and engine ⇒ same admitted ids, same ledger totals.
//!
//! The round complexity of the batched step is read off the waves
//! executed: each wave costs the *maximum* round count over its
//! operations (they proceed in lockstep; the slowest determines the
//! wave's duration), and the step costs the sum over waves —
//! [`BatchReport::rounds_parallel`]. The serial baseline is the plain
//! sum, [`BatchReport::cost`]`.rounds`.
//!
//! # Model choice and limitation
//!
//! The footprint is the operation's *admission-time coordination
//! domain*, not a superset of every cluster the full operation can
//! touch: a join's `randCl` walk relays across the whole overlay and
//! lands on a host anywhere, and an exchange relocates members into
//! walk-chosen clusters. The paper's footnote gives no construction for
//! the parallel case, so this module models walk relays and exchange
//! traffic as quorum-layer message passing that composes across waves
//! (their rounds are already accounted per operation), and reserves
//! *conflict* for contention on the entry cluster's quorum
//! neighborhood. The engine does not run a wave's operations side by
//! side: it runs them one after another and prices them as if they had
//! run together, so a wave's trajectory is the serial one and no two
//! operations of a wave can collide. What genuinely concurrent
//! operations would do differently — two cascades of one wave
//! shuffling the same nodes — is outside this model.

use crate::error::NowError;
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, EventRecord, NodeId};

/// One arrival of a batched step: the adversary's corruption decision
/// plus an optional steered contact cluster.
///
/// The paper's adversary controls its own nodes' contact choice (the
/// §3.3 join–leave attack depends on it), so batched attack drivers
/// need the same lever the serial [`NowSystem::join_via`] provides. A
/// `contact` of `None` draws a uniformly random live cluster, exactly
/// like [`NowSystem::join`]; a stale contact (the cluster merged away
/// between decision and execution) degrades to the uniform draw rather
/// than aborting the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinSpec {
    /// Whether the arrival is honest (the corruption decision).
    pub honest: bool,
    /// Contact cluster, if the adversary steers it.
    pub contact: Option<ClusterId>,
}

impl JoinSpec {
    /// An arrival contacting a uniformly random cluster.
    pub fn uniform(honest: bool) -> Self {
        JoinSpec {
            honest,
            contact: None,
        }
    }

    /// An arrival steered at a specific contact cluster.
    pub fn via(contact: ClusterId, honest: bool) -> Self {
        JoinSpec {
            honest,
            contact: Some(contact),
        }
    }
}

/// Aggregate of one conflict-free wave of a batched step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaveStats {
    /// Operations executed in this wave (pairwise footprint-disjoint).
    pub ops: usize,
    /// Round count of the wave: the maximum over its operations.
    pub rounds_max: u64,
    /// Serial round sum over the wave's operations.
    pub rounds_total: u64,
    /// Message units spent by the wave's operations.
    pub messages: u64,
}

/// Outcome of one batched time step ([`NowSystem::step_batch`]).
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Ids assigned to the batch's admitted joiners, in input order.
    pub joined: Vec<NodeId>,
    /// Departures that completed.
    pub left: Vec<NodeId>,
    /// Departures that were refused, with the reason (unknown node,
    /// population floor). Rejected operations cost nothing and occupy
    /// no wave slot.
    pub rejected: Vec<(NodeId, NowError)>,
    /// Inclusive batch cost; `rounds` is the *serial* sum.
    pub cost: Cost,
    /// Round complexity of the step priced in parallel waves: the sum
    /// over waves of each wave's maximum operation round count.
    pub rounds_parallel: u64,
    /// The conflict-free waves the step is priced in, in run order.
    pub waves: Vec<WaveStats>,
    /// Steered contacts ([`JoinSpec::via`]) that had been dissolved —
    /// before the batch, or by an earlier op's merge — and degraded to
    /// the uniform redraw. Deterministic per
    /// engine; every engine applies the same uniform-over-all-clusters
    /// rule the serial [`NowSystem::join`] path uses.
    pub contact_redraws: u64,
    /// Operations whose triggering message the event network dropped
    /// (loss or partition). Always zero outside
    /// [`crate::ExecConfig::Event`]; a dropped operation is admitted
    /// but not executed this step.
    pub dropped: u64,
    /// The delivery trace of the event engine, in delivery order (drops
    /// first, stamped at send time). Empty outside
    /// [`crate::ExecConfig::Event`]. Part of the deterministic replay
    /// surface: same `(seed, config)` ⇒ byte-identical trace.
    pub events: Vec<EventRecord>,
    /// Wall-clock nanoseconds the batch took to execute on this host.
    /// The only field that legitimately varies between bit-identical
    /// runs — determinism tests and report diffs must ignore it.
    pub wall_nanos: u64,
}

impl BatchReport {
    /// Number of conflict-free waves the batch was scheduled into.
    pub fn wave_count(&self) -> usize {
        self.waves.len()
    }

    /// Width of the widest wave: 1 means the batch fully serialized
    /// (every scheduled operation ran in its own wave), ≥ 2 means some
    /// operations ran concurrently, and 0 means the schedule is empty —
    /// nothing was scheduled, so no degree of serialization exists to
    /// report.
    pub fn max_wave_width(&self) -> usize {
        self.waves.iter().map(|w| w.ops).max().unwrap_or(0)
    }

    /// Total round *slack* in the schedule: the sum over waves of
    /// `rounds_total − rounds_max`, i.e. the serial rounds the wave
    /// structure saves. Zero iff the batch fully serialized (or was
    /// empty); equal to `cost.rounds − rounds_parallel` whenever all
    /// batch rounds were accounted through scheduled operations.
    pub fn wave_slack_rounds(&self) -> u64 {
        self.waves
            .iter()
            .map(|w| w.rounds_total - w.rounds_max)
            .sum()
    }
}

impl NowSystem {
    /// The cluster footprint of a maintenance operation coordinating
    /// through `center`: the cluster itself plus its current overlay
    /// neighborhood (view updates, split/merge/exchange candidates of
    /// the first coordination round).
    pub fn op_footprint(&self, center: ClusterId) -> Vec<ClusterId> {
        let nbrs = self.overlay().neighbors(center);
        let mut fp = Vec::with_capacity(nbrs.len() + 1);
        fp.extend_from_slice(nbrs);
        fp.push(center);
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{BatchInput, ExecConfig};
    use crate::params::NowParams;
    use now_net::{CostKind, NodeId};

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    /// A system whose overlay is sparse relative to its cluster count,
    /// so pairwise-disjoint footprints exist (capacity 16 ⇒ overlay
    /// target degree 5, but 64 clusters).
    fn sparse_system(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(16).unwrap();
        let n0 = 64 * params.target_cluster_size();
        NowSystem::init_fast(params, n0, 0.1, seed)
    }

    /// Greedily collects clusters with pairwise-disjoint footprints.
    fn disjoint_footprint_clusters(sys: &NowSystem, want: usize) -> Vec<now_net::ClusterId> {
        let mut picked = Vec::new();
        let mut covered: std::collections::BTreeSet<now_net::ClusterId> =
            std::collections::BTreeSet::new();
        for c in sys.cluster_ids() {
            let fp = sys.op_footprint(c);
            if fp.iter().any(|x| covered.contains(x)) {
                continue;
            }
            covered.extend(fp);
            picked.push(c);
            if picked.len() == want {
                break;
            }
        }
        picked
    }

    #[test]
    fn batch_of_joins_is_one_time_step() {
        let mut sys = system(120, 1);
        let before = sys.population();
        let t0 = sys.time_step();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, true, false, true], &[]),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.joined.len(), 4);
        assert!(report.left.is_empty());
        assert!(report.rejected.is_empty());
        assert_eq!(sys.population(), before + 4);
        assert_eq!(sys.time_step(), t0 + 1, "one step for the whole batch");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn mixed_batch_nets_out() {
        let mut sys = system(150, 2);
        let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(3).collect();
        let before = sys.population();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, true], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left.len(), 3);
        assert_eq!(report.joined.len(), 2);
        assert_eq!(sys.population(), before - 1);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn duplicate_leave_is_rejected_not_fatal() {
        let mut sys = system(150, 3);
        let victim = sys.node_ids()[0];
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &[victim, victim]),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left, vec![victim]);
        assert_eq!(report.rejected.len(), 1);
        assert!(matches!(report.rejected[0].1, NowError::UnknownNode { .. }));
        sys.check_consistency().unwrap();
    }

    #[test]
    fn floor_rejections_are_reported() {
        let params = NowParams::for_capacity(1 << 10).unwrap(); // floor 32
        let mut sys = NowSystem::init_fast(params, 33, 0.0, 4);
        let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(3).collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left.len(), 1, "only one leave fits above the floor");
        assert_eq!(report.rejected.len(), 2);
        assert!(report
            .rejected
            .iter()
            .all(|(_, e)| matches!(e, NowError::PopulationFloor { .. })));
        // Rejected operations never enter the schedule.
        assert_eq!(report.waves.iter().map(|w| w.ops).sum::<usize>(), 1);
    }

    /// Acceptance headline: operations with pairwise-disjoint footprints
    /// complete in a single wave whose round count is the max over the
    /// operations; forcing a conflict splits the schedule.
    #[test]
    fn disjoint_footprints_complete_in_one_wave() {
        let mut sys = sparse_system(5);
        let homes = disjoint_footprint_clusters(&sys, 3);
        assert!(
            homes.len() == 3,
            "sparse overlay should admit 3 disjoint footprints, found {}",
            homes.len()
        );
        let leavers: Vec<NodeId> = homes
            .iter()
            .map(|&c| sys.cluster(c).unwrap().member_at(0))
            .collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left.len(), 3);
        assert_eq!(report.wave_count(), 1, "disjoint batch must not serialize");
        assert_eq!(report.max_wave_width(), 3);
        let wave = &report.waves[0];
        assert_eq!(
            report.rounds_parallel, wave.rounds_max,
            "one wave ⇒ parallel rounds = max over its ops"
        );
        assert!(report.rounds_parallel < report.cost.rounds);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn conflicting_footprints_take_extra_waves() {
        // A capacity-2¹⁰ system with 10 clusters has overlay degree ≥ 9
        // (target degree 13 saturates): every footprint covers the whole
        // overlay, so any two operations conflict.
        let mut sys = system(200, 6);
        let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left.len(), 2);
        assert_eq!(report.wave_count(), 2, "overlapping ops must serialize");
        assert_eq!(
            report.rounds_parallel,
            report.waves.iter().map(|w| w.rounds_max).sum::<u64>()
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn wave_stats_cover_the_whole_batch() {
        let mut sys = system(200, 5);
        let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, true, true], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.waves.iter().map(|w| w.ops).sum::<usize>(), 5);
        assert_eq!(
            report.waves.iter().map(|w| w.rounds_total).sum::<u64>(),
            report.cost.rounds,
            "wave serial sums partition the batch's serial rounds"
        );
        assert_eq!(
            report.waves.iter().map(|w| w.messages).sum::<u64>(),
            report.cost.messages
        );
        assert!(report.rounds_parallel <= report.cost.rounds);
        assert!(report.rounds_parallel >= report.waves.iter().map(|w| w.rounds_max).max().unwrap());
    }

    #[test]
    fn empty_batch_still_advances_time() {
        // "At each time step … or nothing occurs."
        let mut sys = system(100, 6);
        let t0 = sys.time_step();
        let report = sys.step_batch(&BatchInput::from_flags(&[], &[]), &ExecConfig::Canonical);
        assert_eq!(sys.time_step(), t0 + 1);
        assert_eq!(report.cost, Cost::ZERO);
        assert_eq!(report.rounds_parallel, 0);
        assert_eq!(report.wave_count(), 0);
        assert_eq!(report.max_wave_width(), 0);
    }

    /// Regression for the `max_wave_width` doc/value mismatch: an empty
    /// schedule reports width 0 ("nothing scheduled"), distinct from
    /// width 1 ("fully serialized").
    #[test]
    fn max_wave_width_distinguishes_empty_from_serialized() {
        let mut empty = system(100, 20);
        let report = empty.step_batch(&BatchInput::from_flags(&[], &[]), &ExecConfig::Canonical);
        assert_eq!(report.max_wave_width(), 0, "empty schedule");
        assert_eq!(report.wave_slack_rounds(), 0);

        // A fully serialized batch on a dense overlay reports width 1.
        let mut dense = system(200, 21);
        let leavers: Vec<NodeId> = dense.node_ids().into_iter().take(2).collect();
        let serialized = dense.step_batch(
            &BatchInput::from_flags(&[], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(serialized.max_wave_width(), 1, "fully serialized");
        assert_eq!(
            serialized.wave_slack_rounds(),
            0,
            "width-1 waves have no serial-vs-max slack"
        );
    }

    #[test]
    fn wave_slack_accounts_saved_rounds() {
        let mut sys = sparse_system(22);
        let homes = disjoint_footprint_clusters(&sys, 3);
        let leavers: Vec<NodeId> = homes
            .iter()
            .map(|&c| sys.cluster(c).unwrap().member_at(0))
            .collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leavers),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.wave_count(), 1);
        assert_eq!(
            report.wave_slack_rounds(),
            report.cost.rounds - report.rounds_parallel,
            "all rounds flow through scheduled ops, so slack = serial − parallel"
        );
        assert!(report.wave_slack_rounds() > 0);
    }

    #[test]
    fn batch_lands_under_batch_cost_kind() {
        let mut sys = system(150, 7);
        sys.step_batch(
            &BatchInput::from_flags(&[true], &[]),
            &ExecConfig::Canonical,
        );
        let s = sys.ledger().stats(CostKind::Batch);
        assert_eq!(s.count, 1);
        assert!(s.total_messages > 0);
        // The nested join is still individually accounted.
        assert!(sys.ledger().stats(CostKind::Join).count >= 1);
    }

    #[test]
    fn sustained_batches_keep_invariants() {
        let mut sys = system(200, 9);
        for round in 0..30 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
            let joins = [round % 3 != 0, true];
            sys.step_batch(
                &BatchInput::from_flags(&joins, &leavers),
                &ExecConfig::Canonical,
            );
        }
        sys.check_consistency().unwrap();
        let audit = sys.audit();
        assert!(audit.size_bounds_ok);
    }
}
