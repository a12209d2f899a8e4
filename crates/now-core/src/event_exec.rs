//! The event engine's stage of the batch step
//! ([`crate::ExecConfig::Event`]).
//!
//! The paper's model is synchronous — §6 names removing that assumption
//! as the open problem. This engine takes the step: instead of a round
//! barrier admitting the whole batch at once, every admitted operation
//! becomes a **message** on a seeded discrete-event network
//! ([`EventNet`]) whose per-link latency/jitter/loss/partition models
//! decide *when* — and *whether* — the protocol reacts to it.
//!
//! The engine is not a second step function. [`NowSystem::step_batch`]
//! runs one batch skeleton for both engines — admission, the master
//! draw, the waves, the report — and the event engine contributes one
//! stage to it, [`NowSystem::deliver`]: it maps the admitted operations
//! to the order the network delivers them in, and the skeleton runs
//! that order, and prices it in waves, exactly as it runs and prices
//! the canonical order of [`crate::ExecConfig::Canonical`].
//!
//! # Execution model
//!
//! Clusters are the network's ports, one per live cluster in ascending
//! id order. A departure is the home cluster's own failure detection —
//! a self-message, delivered after its local detection latency and
//! exempt from loss and partition (a cluster cannot be partitioned from
//! itself). An arrival is the joiner's contact message, sent from a
//! uniformly drawn port to the contact cluster's port across the
//! modeled network: it can be lost, or severed by a partition that has
//! not healed within the step.
//!
//! The protocol then runs in **delivery order**: the drained deliveries
//! form the execution sequence, each op live on the registry with its
//! split/merge check right after it — maintenance is *driven by the
//! deliveries* rather than by a barrier — and the sequence is priced
//! in conflict-free waves (contiguous runs of footprint-disjoint
//! deliveries) as the canonical engine prices its own. Per-operation
//! randomness is keyed by the operation's **canonical** index
//! ([`OpSpec::canon`]), not its delivery position, so an operation
//! draws the same stream wherever the network schedules it.
//!
//! A dropped message means the operation simply does not happen this
//! step: the joiner never reached its contact (the id it would have
//! used is still consumed, keeping admission deterministic), and the
//! report counts it in [`crate::BatchReport::dropped`] with a loss
//! record in the trace. Departure self-messages always deliver, so a
//! step never strands a leaver.
//!
//! # Determinism
//!
//! The network is seeded from the batch's master draw (the same one
//! draw per step every engine makes), so the delivery trace and the
//! final state are a pure function of `(seed, EventNetConfig)`, which
//! the workspace determinism tests pin byte-for-byte.

use crate::system::NowSystem;
use crate::wave_exec::{AdmittedBatch, BatchOp, OpSpec};
use now_net::{
    ClusterId, DetRng, DropReason, EventNet, EventNetConfig, EventRecord, NodeId, Partition,
};
use now_trace::TraceData;
use rand::Rng;
use std::collections::BTreeSet;

/// The substream index reserved for the engine's own routing draws
/// (which port a joiner contacts from). Admitted operations use their
/// canonical position `0, 1, …`, so the reserved index can never
/// collide with an operation's.
const ROUTE_STREAM: u64 = u64::MAX;

impl NowSystem {
    /// Puts `batch` in network delivery order on a net with link model
    /// `net`, seeded by the batch's `master` draw: injects one message
    /// per admitted operation, drains the net, and keeps the delivered
    /// operations in delivery order (`batch.specs`) and the joiners
    /// that reached their contact (`batch.joined`). Records the
    /// partition, heal, send, drop and deliver trace events and the
    /// `now_net_*` counters, and returns the number of dropped
    /// operations with the delivery trace.
    pub(crate) fn deliver(
        &mut self,
        batch: &mut AdmittedBatch,
        net: EventNetConfig,
        master: u64,
    ) -> (u64, Vec<EventRecord>) {
        let step = self.time_step;

        // The step's network conditions, as trace events: an in-force
        // partition (and its scheduled heal) governs what follows.
        if let Partition::Split { groups } = net.partition {
            if groups >= 2 {
                self.hub.event(
                    step,
                    TraceData::Partition {
                        groups: groups as u64,
                    },
                );
                if let Some(at) = net.heal_at {
                    self.hub.event(step, TraceData::Heal { at });
                }
            }
        }

        // Ports: the live clusters at step start, ascending id order.
        let ports: Vec<ClusterId> = self.registry.cluster_ids().to_vec();
        let port_of = |c: ClusterId| -> usize {
            ports
                .binary_search(&c)
                // INVARIANT: admission already rejected ops whose center is
                // not a live cluster, and `ports` snapshots that same set.
                .expect("admitted op centers on a live cluster")
        };

        let mut link = EventNet::<u64>::new(ports.len(), net, master);
        let mut route = DetRng::for_op(master, step, ROUTE_STREAM);

        // ---- inject: one message per admitted operation ----
        let specs = std::mem::take(&mut batch.specs);
        let mut events: Vec<EventRecord> = Vec::with_capacity(specs.len());
        let mut dropped = 0u64;
        for spec in &specs {
            let to = port_of(spec.center);
            let from = match spec.op {
                // Failure detection is local to the home cluster.
                BatchOp::Leave { .. } => to,
                // The joiner contacts from "somewhere on the network":
                // a uniformly drawn port, so partitions cut a
                // deterministic, config-governed fraction of arrivals.
                BatchOp::Join { .. } => route.gen_range(0..ports.len()),
            };
            self.hub.event(
                step,
                TraceData::MsgSend {
                    canon: spec.canon,
                    from: ports[from].raw(),
                    to: spec.center.raw(),
                },
            );
            if let Some(reason) = link.send(from, to, spec.canon) {
                let reason = match reason {
                    DropReason::Loss => "loss",
                    DropReason::Partition => "partition",
                };
                self.hub.event(
                    step,
                    TraceData::MsgDrop {
                        time: link.now(),
                        canon: spec.canon,
                        reason,
                    },
                );
                events.push(EventRecord {
                    time: link.now(),
                    op: spec.canon,
                    delivered: false,
                });
                dropped += 1;
            }
        }

        // ---- drain: delivery order is the execution order ----
        let mut order: Vec<u64> = Vec::with_capacity(specs.len());
        while let Some((time, env)) = link.pop() {
            self.hub.event(
                step,
                TraceData::MsgDeliver {
                    time,
                    canon: env.payload,
                },
            );
            events.push(EventRecord {
                time,
                op: env.payload,
                delivered: true,
            });
            order.push(env.payload);
        }
        debug_assert_eq!(link.delivered() + link.dropped(), link.messages_sent());
        self.hub.count("now_net_sent_total", link.messages_sent());
        self.hub.count("now_net_delivered_total", link.delivered());
        self.hub.count("now_net_dropped_total", link.dropped());

        let executed: BTreeSet<u64> = order.iter().copied().collect();
        let join_canons: Vec<u64> = specs
            .iter()
            .filter(|s| matches!(s.op, BatchOp::Join { .. }))
            .map(|s| s.canon)
            .collect();
        let mut slots: Vec<Option<OpSpec>> = specs.into_iter().map(Some).collect();
        batch.specs = order
            .iter()
            .map(|&canon| {
                slots[canon as usize]
                    .take()
                    // INVARIANT: the scheduler delivers each canon exactly once,
                    // so its slot is still occupied on first (and only) take.
                    .expect("each op delivered at most once")
            })
            .collect();

        // The report lists what actually happened: every admitted
        // departure executes (self-messages always deliver), while a
        // joiner whose contact message was dropped never joined — its
        // pre-assigned id is consumed but never attached.
        let joined: Vec<NodeId> = std::mem::take(&mut batch.joined);
        batch.joined = joined
            .into_iter()
            .zip(join_canons)
            .filter_map(|(node, canon)| executed.contains(&canon).then_some(node))
            .collect();
        debug_assert_eq!(
            batch
                .specs
                .iter()
                .filter(|s| matches!(s.op, BatchOp::Leave { .. }))
                .count(),
            batch.left.len(),
            "departure self-messages always deliver"
        );
        (dropped, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchReport;
    use crate::exec::{BatchInput, ExecConfig};
    use crate::params::NowParams;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    fn strip_wall(mut r: BatchReport) -> BatchReport {
        r.wall_nanos = 0;
        r
    }

    #[test]
    fn ideal_network_executes_every_admitted_op() {
        let mut sys = system(280, 11);
        let victims: Vec<_> = sys.node_ids().into_iter().take(3).collect();
        let input = BatchInput::from_flags(&[true, true, false, true], &victims);
        let report = sys.step_batch(&input, &ExecConfig::event(EventNetConfig::ideal()));
        assert_eq!(report.joined.len(), 4);
        assert_eq!(report.left, victims);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.events.len(), 7, "one delivery record per op");
        assert!(report.events.iter().all(|e| e.delivered));
        assert!(sys.check_consistency().is_ok());
    }

    #[test]
    fn certain_loss_drops_joins_but_never_leaves() {
        let mut sys = system(280, 12);
        let victims: Vec<_> = sys.node_ids().into_iter().take(2).collect();
        let pop = sys.population();
        let input = BatchInput::from_flags(&[true; 6], &victims);
        let net = EventNetConfig::ideal().with_drop(1.0);
        let report = sys.step_batch(&input, &ExecConfig::event(net));
        // Self-messages (departures) are exempt from loss; every join's
        // cross-port contact message is lost. (A join routed to its own
        // port is also exempt, but the drawn routes here all cross.)
        assert_eq!(report.left, victims);
        assert_eq!(report.joined.len() + report.dropped as usize, 6);
        assert_eq!(
            sys.population(),
            pop - victims.len() as u64 + report.joined.len() as u64,
            "dropped joiners never attach"
        );
        let losses = report.events.iter().filter(|e| !e.delivered).count();
        assert_eq!(losses as u64, report.dropped);
        assert!(sys.check_consistency().is_ok());
    }

    #[test]
    fn unhealed_partition_cuts_cross_group_arrivals() {
        let mut sys = system(280, 13);
        let net = EventNetConfig::ideal().with_partition(2);
        let report = sys.step_batch(
            &BatchInput::default().joins_uniform(12, true),
            &ExecConfig::event(net),
        );
        assert!(
            report.dropped > 0,
            "with 12 uniform routes some must cross the cut"
        );
        assert!(report.joined.len() < 12);
        // A healed partition severs nothing: latency 1 deliveries all
        // land at t=1 ≥ heal time.
        let mut healed = system(280, 13);
        let report = healed.step_batch(
            &BatchInput::default().joins_uniform(12, true),
            &ExecConfig::event(net.healing_at(1)),
        );
        assert_eq!(report.dropped, 0);
        assert_eq!(report.joined.len(), 12);
    }

    #[test]
    fn event_engine_replays_from_seed_and_net() {
        let victims: Vec<_> = system(300, 21).node_ids().into_iter().take(4).collect();
        let input = BatchInput::from_flags(&[true; 10], &victims);
        let net = EventNetConfig::ideal()
            .with_latency(3)
            .with_jitter(5)
            .with_drop(0.2)
            .with_partition(3)
            .healing_at(6);
        let mut first = system(300, 21);
        let want = strip_wall(first.step_batch(&input, &ExecConfig::event(net)));
        let mut again = system(300, 21);
        let got = strip_wall(again.step_batch(&input, &ExecConfig::event(net)));
        assert_eq!(got.events, want.events);
        assert_eq!(got.joined, want.joined);
        assert_eq!(got.left, want.left);
        assert_eq!(got.dropped, want.dropped);
        assert_eq!(got.cost, want.cost);
        assert_eq!(got.waves, want.waves);
        assert_eq!(again.node_ids(), first.node_ids());
        assert!(again.check_consistency().is_ok());
    }

    #[test]
    fn partition_predicate_matches_port_groups() {
        // The engine's routing is over cluster ports in ascending id
        // order; sanity-check the model's severing rule directly.
        let p = Partition::Split { groups: 2 };
        assert!(p.severs(0, 1));
        assert!(!p.severs(0, 2));
    }
}
