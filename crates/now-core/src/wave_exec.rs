//! The wave engine: runs a batch's admitted operations one at a time,
//! in run order, each live on the registry, and prices the batch in
//! conflict-free waves.
//!
//! # Execution
//!
//! Every operation runs the op kernel ([`crate::kernel`]) live on the
//! registry — the same join/leave/exchange/walk code the direct API
//! runs — on its own [`DetRng::for_op`] substream, keyed by `(master,
//! time_step, canonical op index)`, where `master` is the batch's one
//! draw from the system stream. Its split/merge check follows at once,
//! after the op's span has closed: a split or merge books a span of its
//! own, a sibling of the ops' spans under the batch. The next operation
//! sees everything the ones before it did. So every engine runs one
//! trajectory for a run order: [`crate::ExecConfig::Canonical`] runs the
//! canonical order (departures before arrivals, each in input order);
//! [`crate::ExecConfig::Event`] runs the network's delivery order.
//!
//! # Pricing
//!
//! The paper prices a batch with one footnote (§2: "the analysis can be
//! generalized to several parallel join and leave operations"). The
//! engine cuts the run order into **waves** — contiguous runs of ops
//! whose pre-batch cluster footprints are pairwise disjoint
//! ([`partition_waves`]) — and reads the step's parallel round cost off
//! them: a wave costs the largest round count of its ops, the step the
//! sum over its waves ([`crate::BatchReport::rounds_parallel`]). The
//! waves are a price, not a schedule: ops of one wave run one after
//! another like any others, so a wave of width w is the serial
//! trajectory of its w ops, priced as if they had run side by side.
//! The paper's one join or leave at a time is the same report's serial
//! sum, `cost.rounds`.
//!
//! The direct one-op API ([`NowSystem::join`] / [`NowSystem::leave`])
//! draws from the system's shared stream instead and is not part of
//! either contract.

use crate::batch::WaveStats;
use crate::error::NowError;
use crate::kernel::Kernel;
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, DetRng, NodeId};
use now_trace::TraceData;
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::Range;

/// One batched operation, with the footprint the wave partition is
/// computed from.
pub(crate) struct OpSpec {
    pub(crate) op: BatchOp,
    pub(crate) footprint: Vec<ClusterId>,
    /// The operation's **canonical index** in the batch (departures
    /// before arrivals, each in input order): the key of its
    /// [`DetRng::for_op`] substream. Stored on the spec so executors
    /// that *reorder* operations (the event engine executes in network
    /// delivery order) still hand every op the stream its canonical
    /// position owns.
    pub(crate) canon: u64,
    /// The cluster the operation coordinates through (the leaver's
    /// home, the joiner's contact): the event engine's delivery port.
    pub(crate) center: ClusterId,
    /// Whether a join's steered contact was already dead at batch
    /// admission and degraded to the uniform draw (always `false` for
    /// leaves). Folded with the run-time redraw into at most **one**
    /// counted redraw per operation.
    pub(crate) contact_redrawn: bool,
}

/// An admitted operation: what it does, independent of when it runs.
pub(crate) enum BatchOp {
    Leave {
        node: NodeId,
    },
    Join {
        node: NodeId,
        honest: bool,
        contact: ClusterId,
    },
}

/// Size-triggered maintenance, checked right after the op.
#[derive(Debug)]
enum Maintenance {
    /// Check the join's host for an oversize split.
    Split(ClusterId),
    /// Check the leave's home for an undersize merge.
    Merge(ClusterId),
}

/// What the rest of a wave needs from each of its ops.
#[derive(Debug)]
struct OpOutcome {
    /// Inclusive cost of the operation's top-level span.
    cost: Cost,
    maintenance: Maintenance,
    /// Whether a steered contact had been dissolved by an earlier op's
    /// merge and was re-drawn uniformly when the op ran.
    contact_redrawn: bool,
}

impl Kernel<'_> {
    /// Runs one operation — the leaver's home, the contact redraw, the
    /// join or the leave — and closes its span; the size check is the
    /// caller's.
    fn run_op(&mut self, op: &BatchOp) -> OpOutcome {
        let mut contact_redrawn = false;
        let maintenance = match *op {
            BatchOp::Leave { node } => {
                // The leaver's home before the op, not `spec.center`: an
                // earlier op's exchange can have moved it since
                // admission.
                // INVARIANT: admission validated the leaver and claimed
                // it for this op alone, and no other op removes a node
                // (a merge re-attaches every member it detaches).
                let home = self.registry.get(node).expect("admitted leaver").cluster;
                self.leave(node, home);
                Maintenance::Merge(home)
            }
            BatchOp::Join {
                node,
                honest,
                contact,
            } => {
                // The contact drawn at batch admission can have been
                // dissolved by an earlier op's merge; re-draw uniformly
                // over all live clusters from the op's own substream —
                // the same rule admission applies to a contact already
                // dead before the batch.
                let contact = if self.registry.contains_cluster(contact) {
                    contact
                } else {
                    contact_redrawn = true;
                    let idx = self.rng.gen_range(0..self.registry.cluster_count());
                    self.registry.cluster_id_at(idx)
                };
                Maintenance::Split(self.join(node, honest, contact))
            }
        };
        OpOutcome {
            cost: self.ledger.end(),
            maintenance,
            contact_redrawn,
        }
    }
}

/// Order-preserving greedy wave partition over pre-batch footprints,
/// the batch's price: a new wave opens whenever an operation's
/// footprint intersects the union of the open wave's, so every wave's
/// operations are pairwise footprint-disjoint. The event engine feeds
/// this the batch in *network delivery order*;
/// [`crate::ExecConfig::Canonical`] feeds it the canonical order.
pub(crate) fn partition_waves(specs: &[OpSpec]) -> Vec<Range<usize>> {
    let mut waves = Vec::new();
    let mut start = 0usize;
    let mut open: BTreeSet<ClusterId> = BTreeSet::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.footprint.iter().any(|c| open.contains(c)) {
            waves.push(start..i);
            start = i;
            open.clear();
        }
        open.extend(spec.footprint.iter().copied());
    }
    if start < specs.len() {
        waves.push(start..specs.len());
    }
    waves
}

/// The admitted half of a batch: up-front rejection decisions applied,
/// node ids assigned, canonical substream indices fixed. Every engine
/// (canonical order, delivery order) starts from this.
pub(crate) struct AdmittedBatch {
    /// Ids assigned to the batch's joiners, in input order.
    pub(crate) joined: Vec<NodeId>,
    /// Departures that passed validation, in input order.
    pub(crate) left: Vec<NodeId>,
    /// Departures refused with the reason.
    pub(crate) rejected: Vec<(NodeId, NowError)>,
    /// The admitted operations in canonical order.
    pub(crate) specs: Vec<OpSpec>,
}

impl NowSystem {
    /// Validates a batch up front and fixes the canonical order:
    /// departures before arrivals, each in input order, with the
    /// per-operation substream index ([`OpSpec::canon`]) equal to the
    /// operation's canonical position. Shared by every engine, so
    /// admission semantics cannot drift between them.
    pub(crate) fn admit_batch(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
    ) -> AdmittedBatch {
        let step = self.time_step;
        let mut joined = Vec::with_capacity(joins.len());
        let mut left = Vec::new();
        let mut rejected = Vec::new();
        let mut specs: Vec<OpSpec> = Vec::new();
        let floor = self.params.min_population();
        let mut projected = self.population();
        let mut claimed: BTreeSet<NodeId> = BTreeSet::new();
        for &node in leaves {
            if projected <= floor {
                self.hub
                    .event(step, TraceData::OpRejected { node: node.raw() });
                rejected.push((
                    node,
                    NowError::PopulationFloor {
                        population: projected,
                        floor,
                    },
                ));
                continue;
            }
            if claimed.contains(&node) {
                self.hub
                    .event(step, TraceData::OpRejected { node: node.raw() });
                rejected.push((node, NowError::UnknownNode { node }));
                continue;
            }
            match self.node_cluster(node) {
                Ok(home) => {
                    claimed.insert(node);
                    projected -= 1;
                    left.push(node);
                    let canon = specs.len() as u64;
                    self.hub.event(
                        step,
                        TraceData::OpPlanned {
                            canon,
                            join: false,
                            node: node.raw(),
                        },
                    );
                    specs.push(OpSpec {
                        op: BatchOp::Leave { node },
                        footprint: self.op_footprint(home),
                        canon,
                        center: home,
                        contact_redrawn: false,
                    });
                }
                Err(e) => {
                    self.hub
                        .event(step, TraceData::OpRejected { node: node.raw() });
                    rejected.push((node, e));
                }
            }
        }
        for &spec in joins {
            // Admission-time resolution against the pre-batch state: a
            // live steered contact is honored, a dissolved one degrades
            // to the uniform draw `NowSystem::join` makes. Contacts
            // dissolved later, by an earlier op's merge, get the
            // run-time redraw in `run_op`. Either way the op counts as
            // at most one redraw, when it runs (see `OpSpec`).
            let (contact, redrawn) = match spec.contact {
                Some(c) if self.cluster(c).is_some() => (c, false),
                Some(_) => (self.contact_cluster(), true),
                None => (self.contact_cluster(), false),
            };
            let node = self.ids.node();
            joined.push(node);
            let canon = specs.len() as u64;
            self.hub.event(
                step,
                TraceData::OpPlanned {
                    canon,
                    join: true,
                    node: node.raw(),
                },
            );
            specs.push(OpSpec {
                op: BatchOp::Join {
                    node,
                    honest: spec.honest,
                    contact,
                },
                footprint: self.op_footprint(contact),
                canon,
                center: contact,
                contact_redrawn: redrawn,
            });
        }
        AdmittedBatch {
            joined,
            left,
            rejected,
            specs,
        }
    }

    /// Executes one wave: each op live on the registry, in order, with
    /// its split/merge check right after it; then the wave's price.
    /// Shared by the canonical engines and the event engine (delivery
    /// order).
    pub(crate) fn execute_wave(
        &mut self,
        wave_specs: &[OpSpec],
        master: u64,
        contact_redraws: &mut u64,
    ) -> WaveStats {
        let time_step = self.time_step;
        let mut stats = WaveStats::default();
        for spec in wave_specs {
            let outcome = self.run_op_live(spec, master);
            stats.ops += 1;
            stats.rounds_max = stats.rounds_max.max(outcome.cost.rounds);
            stats.rounds_total += outcome.cost.rounds;
            stats.messages += outcome.cost.messages;
            if spec.contact_redrawn || outcome.contact_redrawn {
                *contact_redraws += 1;
            }
            let (join, node) = match spec.op {
                BatchOp::Join { node, .. } => (true, node),
                BatchOp::Leave { node } => (false, node),
            };
            self.hub.event(
                time_step,
                TraceData::OpApplied {
                    canon: spec.canon,
                    join,
                    node: node.raw(),
                },
            );
            self.check_size(outcome.maintenance);
        }
        self.hub.event(
            time_step,
            TraceData::Wave {
                ops: stats.ops as u64,
                rounds: stats.rounds_max,
                messages: stats.messages,
            },
        );
        stats
    }

    /// Runs one op on the live registry: the kernel on the op's own
    /// substream, booking into the system ledger at the current depth.
    fn run_op_live(&mut self, spec: &OpSpec, master: u64) -> OpOutcome {
        let mut rng = DetRng::for_op(master, self.time_step, spec.canon);
        Kernel {
            registry: &mut self.registry,
            walks: &self.walks,
            params: self.params,
            ledger: &mut self.ledger,
            lockstep: &mut self.lockstep,
            rng: &mut rng,
            malice: self.malice.as_mut(),
        }
        .run_op(&spec.op)
    }

    /// An op's size check: the join's host splits above the band, the
    /// leave's home merges below it (unless it is the last cluster). A
    /// merge an earlier op ran can have dissolved the cluster already.
    fn check_size(&mut self, maintenance: Maintenance) {
        match maintenance {
            Maintenance::Split(c) => {
                if self.registry.contains_cluster(c)
                    && self.cluster_ref(c).size() > self.params.max_cluster_size()
                {
                    self.split(c);
                }
            }
            Maintenance::Merge(c) => {
                if self.registry.contains_cluster(c)
                    && self.cluster_ref(c).size() < self.params.min_cluster_size()
                    && self.cluster_count() > 1
                {
                    self.merge(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchReport, JoinSpec};
    use crate::exec::{BatchInput, ExecConfig};
    use crate::params::NowParams;
    use now_net::CostKind;
    use rand::RngCore;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    /// Sparse overlay (capacity 16 ⇒ target degree 5) over 64 clusters:
    /// wide waves exist.
    fn sparse_system(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(16).unwrap();
        let n0 = 64 * params.target_cluster_size();
        NowSystem::init_fast(params, n0, 0.1, seed)
    }

    /// The observable end state of a run and what the batch admitted
    /// and spent.
    fn trajectory(sys: &mut NowSystem, report: &BatchReport) -> impl PartialEq + std::fmt::Debug {
        let homes: Vec<ClusterId> = (sys.node_ids().iter())
            .map(|&n| sys.node_cluster(n).unwrap())
            .collect();
        (
            (
                sys.population(),
                sys.byz_population(),
                sys.node_ids(),
                homes,
                sys.op_counts(),
                sys.rng.next_u64(),
            ),
            (
                report.joined.clone(),
                report.left.clone(),
                report
                    .rejected
                    .iter()
                    .map(|(n, e)| (*n, format!("{e:?}")))
                    .collect::<Vec<_>>(),
                report.cost,
                report.contact_redraws,
            ),
            (
                sys.ledger().total(),
                CostKind::ALL
                    .iter()
                    .map(|&k| sys.ledger().stats(k))
                    .collect::<Vec<_>>(),
            ),
        )
    }

    fn run_sparse(
        seed: u64,
        joins: &[bool],
        n_leaves: usize,
        exec: &ExecConfig<'_>,
    ) -> (NowSystem, BatchReport) {
        let mut sys = sparse_system(seed);
        let leaves: Vec<NodeId> = sys
            .node_ids()
            .into_iter()
            .step_by(17)
            .take(n_leaves)
            .collect();
        let report = sys.step_batch(&BatchInput::from_flags(joins, &leaves), exec);
        (sys, report)
    }

    /// Steered contacts that are already dead at batch admission
    /// degrade to the uniform redraw, and the report counts it.
    #[test]
    fn stale_contact_at_admission_redraws() {
        let ghost = ClusterId::from_raw(999_999);
        let joins = [JoinSpec::via(ghost, true), JoinSpec::uniform(true)];
        let mut sys = system(150, 31);
        assert!(sys.cluster(ghost).is_none());
        let r = sys.step_batch(&BatchInput::from_specs(&joins, &[]), &ExecConfig::Canonical);
        assert_eq!(r.contact_redraws, 1, "the redraw is counted");
        assert_eq!(r.joined.len(), 2);
        sys.check_consistency().unwrap();
    }

    /// Regression for the run-time redraw: a batch in which an earlier
    /// op's merge dissolves a later join's steered contact must redraw
    /// uniformly from the op's substream rather than panic or silently
    /// attach to a dead cluster.
    #[test]
    fn merge_dissolving_steered_contact_mid_batch_redraws() {
        // Shuffle is disabled so the targeted members stay in their home
        // cluster (exchanges would relocate them and defuse the merge).
        let build = |seed: u64| {
            let params = NowParams::for_capacity(1 << 10)
                .unwrap()
                .with_shuffle(false);
            NowSystem::init_fast(params, 200, 0.2, seed)
        };
        let mut exercised = false;
        for seed in 0..20u64 {
            let sys = build(seed);
            let min = sys.params().min_cluster_size();
            let smallest = sys
                .clusters()
                .min_by_key(|c| (c.size(), c.id()))
                .expect("live system");
            let need = smallest.size() - min + 1;
            let leaves: Vec<NodeId> = smallest.member_slice().iter().copied().take(need).collect();
            let ids_before = sys.cluster_ids();

            // Probe: which cluster does the batch's merge dissolve?
            let mut probe = build(seed);
            probe.step_batch(
                &BatchInput::from_flags(&[], &leaves),
                &ExecConfig::Canonical,
            );
            let dissolved: Vec<ClusterId> = ids_before
                .iter()
                .copied()
                .filter(|&c| probe.cluster(c).is_none())
                .collect();

            for &victim in &dissolved {
                let input = BatchInput::from_specs(&[JoinSpec::via(victim, true)], &leaves);
                let mut sys = build(seed);
                let report = sys.step_batch(&input, &ExecConfig::Canonical);
                if report.contact_redraws == 0 {
                    continue;
                }
                exercised = true;
                assert_eq!(report.joined.len(), 1, "redrawn join still admitted");
                assert!(
                    sys.cluster(victim).is_none(),
                    "contact was dissolved mid-batch"
                );
                sys.check_consistency().unwrap();
            }
            if exercised {
                break;
            }
        }
        assert!(
            exercised,
            "no probed seed dissolved a later op's steered contact — construction rotted"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let (mut s1, r1) = run_sparse(5, &[true, true], 3, &ExecConfig::Canonical);
        let (mut s2, r2) = run_sparse(6, &[true, true], 3, &ExecConfig::Canonical);
        assert_ne!(
            format!("{:?}", trajectory(&mut s1, &r1)),
            format!("{:?}", trajectory(&mut s2, &r2))
        );
    }

    #[test]
    fn wide_disjoint_batches_schedule_wide_waves() {
        let (sys, report) = run_sparse(9, &[true; 8], 8, &ExecConfig::Canonical);
        assert_eq!(report.joined.len(), 8);
        assert_eq!(report.left.len(), 8);
        assert!(
            report.max_wave_width() >= 2,
            "sparse overlay should admit concurrent ops: {:?}",
            report.waves
        );
        assert!(report.rounds_parallel < report.cost.rounds);
        // Split/merge maintenance is accounted in the batch span but
        // outside the ops, so the wave serial sums bound the batch
        // rounds from below.
        assert!(
            report.waves.iter().map(|w| w.rounds_total).sum::<u64>() <= report.cost.rounds,
            "wave serial sums cannot exceed the batch rounds"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn rejection_rules_match_serial_semantics() {
        let params = NowParams::for_capacity(1 << 10).unwrap(); // floor 32
        let mut sys = NowSystem::init_fast(params, 33, 0.0, 4);
        let nodes = sys.node_ids();
        // One fits above the floor, the duplicate and the rest reject.
        let leaves = [nodes[0], nodes[0], nodes[1]];
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leaves),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.left, vec![nodes[0]]);
        assert_eq!(report.rejected.len(), 2);
        assert!(matches!(
            report.rejected[0].1,
            NowError::PopulationFloor { .. } | NowError::UnknownNode { .. }
        ));
        assert_eq!(
            report.waves.iter().map(|w| w.ops).sum::<usize>(),
            1,
            "rejected ops occupy no wave slot"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn sustained_wide_batches_keep_invariants() {
        let mut sys = system(220, 7);
        let (lo, hi) = (
            sys.params().min_cluster_size(),
            sys.params().max_cluster_size(),
        );
        for round in 0..25u64 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
            let joins = [round % 3 != 0, true];
            let report = sys.step_batch(
                &BatchInput::from_flags(&joins, &leavers),
                &ExecConfig::Canonical,
            );
            assert_eq!(report.joined.len(), 2);
            sys.check_consistency().unwrap();
            // The size band must hold after *every* batch.
            for c in sys.clusters() {
                assert!(c.size() <= hi, "cluster {} over band: {}", c.id(), c.size());
                if sys.cluster_count() > 1 {
                    assert!(
                        c.size() >= lo,
                        "cluster {} under band: {}",
                        c.id(),
                        c.size()
                    );
                }
            }
        }
        let audit = sys.audit();
        assert!(audit.size_bounds_ok);
        let (joins, leaves, _, _) = sys.op_counts();
        assert!(joins >= 50 && leaves >= 50);
    }

    #[test]
    fn maintenance_triggers_in_batches() {
        // Dense capacity-2¹⁰ system: sustained shrinkage must merge,
        // sustained growth must split — through the per-op check.
        let mut sys = system(220, 8);
        for _ in 0..30 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(3).collect();
            sys.step_batch(
                &BatchInput::from_flags(&[], &leavers),
                &ExecConfig::Canonical,
            );
            sys.check_consistency().unwrap();
        }
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "shrinkage must merge through the wave engine");

        let mut grow = system(100, 9);
        for _ in 0..30 {
            grow.step_batch(
                &BatchInput::from_flags(&[true, true, true, true], &[]),
                &ExecConfig::Canonical,
            );
            grow.check_consistency().unwrap();
        }
        let (_, _, splits, _) = grow.op_counts();
        assert!(splits > 0, "growth must split through the wave engine");
    }

    #[test]
    fn batch_lands_under_batch_cost_kind_with_nested_ops() {
        let mut sys = system(150, 10);
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, false], &[]),
            &ExecConfig::Canonical,
        );
        assert_eq!(report.joined.len(), 2);
        let batch = sys.ledger().stats(CostKind::Batch);
        assert_eq!(batch.count, 1);
        assert_eq!(batch.total_messages, report.cost.messages);
        assert_eq!(sys.ledger().stats(CostKind::Join).count, 2);
        assert!(sys.ledger().stats(CostKind::RandCl).count > 0);
        assert!(sys.ledger().is_balanced());
    }

    #[test]
    fn empty_batch_advances_time_only() {
        let mut sys = system(100, 11);
        let t0 = sys.time_step();
        let total = sys.ledger().total();
        let report = sys.step_batch(&BatchInput::from_flags(&[], &[]), &ExecConfig::Canonical);
        assert_eq!(sys.time_step(), t0 + 1);
        assert_eq!(report.cost, Cost::ZERO);
        assert_eq!(sys.ledger().total(), total);
        assert_eq!(report.wave_count(), 0);
    }
}
