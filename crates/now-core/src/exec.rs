//! The single batched entry point: [`NowSystem::step_batch`]. It takes
//! two values:
//!
//! * [`BatchInput`] — *what* the step does: the arrivals and departures
//!   of one time step, however constructed.
//! * [`ExecConfig`] — *how* it runs: the order its operations run in
//!   and the waves its rounds are priced by.
//!
//! Every engine is one batch skeleton, [`NowSystem::step_batch`]:
//! admission, one master draw per batch, the waves, the report. Every
//! operation runs the same op kernel live on the registry, on its own
//! [`now_net::DetRng::for_op`] substream, with its split/merge check
//! right after it ([`crate::wave_exec`]). The engines differ only in
//! the order the admitted operations run in — canonical, or the
//! delivery order of the event network ([`NowSystem::deliver`]) — and
//! in how that order is cut into the waves that price the step. Every
//! engine is bit-deterministic from `(seed, input, config)`, and
//! [`ExecConfig::Serial`] and [`ExecConfig::Pooled`] end every batch on
//! the same state.
//!
//! ```
//! use now_core::{BatchInput, ExecConfig, NowParams, NowSystem};
//!
//! let params = NowParams::for_capacity(1 << 10).unwrap();
//! let mut sys = NowSystem::init_fast(params, 300, 0.2, 7);
//! let input = BatchInput::new().joins_uniform(4, true);
//! let report = sys.step_batch(&input, &ExecConfig::Pooled);
//! assert_eq!(report.joined.len(), 4);
//! ```

use crate::batch::{BatchReport, JoinSpec, WaveStats};
use crate::system::NowSystem;
use crate::wave_exec::{partition_waves, singleton_waves};
use now_net::{CostKind, EventNetConfig, NodeId};
use now_trace::TraceData;
use rand::RngCore;
use std::convert::Infallible;
use std::marker::PhantomData;

/// The work of one batched time step: departures first, then arrivals,
/// each in input order (the canonical order of the wave scheduler).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchInput {
    /// Arrivals, with the adversary's corruption decision and optional
    /// steered contact per entry.
    pub joins: Vec<JoinSpec>,
    /// Departures, by node id.
    pub leaves: Vec<NodeId>,
}

impl BatchInput {
    /// An empty step (still advances the time step when executed).
    pub fn new() -> Self {
        BatchInput::default()
    }

    /// A step from explicit join specs and leave ids (the shape the
    /// batch drivers produce).
    pub fn from_specs(joins: &[JoinSpec], leaves: &[NodeId]) -> Self {
        BatchInput {
            joins: joins.to_vec(),
            leaves: leaves.to_vec(),
        }
    }

    /// A step from per-arrival honesty flags (each joiner contacts a
    /// uniformly drawn cluster) and leave ids.
    pub fn from_flags(join_honesty: &[bool], leaves: &[NodeId]) -> Self {
        BatchInput {
            joins: join_honesty.iter().map(|&h| JoinSpec::uniform(h)).collect(),
            leaves: leaves.to_vec(),
        }
    }

    /// Appends one arrival.
    pub fn join(mut self, spec: JoinSpec) -> Self {
        self.joins.push(spec);
        self
    }

    /// Appends `n` uniform-contact arrivals of the given honesty.
    pub fn joins_uniform(mut self, n: usize, honest: bool) -> Self {
        self.joins
            .extend(std::iter::repeat_n(JoinSpec::uniform(honest), n));
        self
    }

    /// Appends one departure.
    pub fn leave(mut self, node: NodeId) -> Self {
        self.leaves.push(node);
        self
    }

    /// Appends departures.
    pub fn leaves(mut self, nodes: &[NodeId]) -> Self {
        self.leaves.extend_from_slice(nodes);
        self
    }

    /// True when the step carries no operations.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }
}

/// How [`NowSystem::step_batch`] executes a step.
///
/// Every variant draws its randomness the same way and runs every
/// admitted operation live, one at a time, so a seed has one
/// trajectory per run order: [`ExecConfig::Serial`] and
/// [`ExecConfig::Pooled`] end every batch byte-identical and differ
/// only in the waves they price it by; [`ExecConfig::Event`] runs the
/// order its network delivers in, governed solely by its `(seed, net)`
/// pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecConfig<'p> {
    /// Canonical order, every op priced as a wave of its own: the
    /// paper's one join or leave at a time, folded into one time step.
    Serial,
    /// Canonical order, priced in conflict-free waves over cluster
    /// footprints: the §2 footnote's parallel joins and leaves, whose
    /// step costs the sum over waves of each wave's slowest op.
    Pooled,
    /// The event-driven engine: each admitted operation becomes a
    /// message on a seeded discrete-event network
    /// ([`now_net::EventNet`]) with per-link latency/jitter/loss/
    /// partition models, and operations run in **delivery order**,
    /// priced in conflict-free waves of consecutive deliveries.
    /// Messages the network drops are admitted-but-not-executed
    /// ([`BatchReport::dropped`]); the delivery trace is reported in
    /// [`BatchReport::events`]. Replayable from `(seed, net)` alone.
    Event {
        /// The per-link network model.
        net: EventNetConfig,
    },
    /// Never constructed: it carries the lifetime parameter the
    /// retired worker-pool borrow gave this type (see `compat.rs`).
    #[doc(hidden)]
    Retired(Infallible, PhantomData<&'p ()>),
}

impl ExecConfig<'_> {
    /// [`ExecConfig::Serial`].
    pub fn serial() -> Self {
        ExecConfig::Serial
    }

    /// [`ExecConfig::Event`] on the network model `net`.
    pub fn event(net: EventNetConfig) -> Self {
        ExecConfig::Event { net }
    }
}

impl NowSystem {
    /// Executes one batched time step — **the** batch entry point.
    ///
    /// `input` carries the step's departures and arrivals (canonical
    /// order: departures first, each list in input order); `exec`
    /// selects the execution engine. Rejection rules are identical
    /// across engines: departures are validated up front against the
    /// `N^{1/y}` population floor and the batch's earlier claims, and
    /// rejected operations cost nothing and occupy no wave slot.
    ///
    /// See [`ExecConfig`] for the determinism contract per engine.
    pub fn step_batch(&mut self, input: &BatchInput, exec: &ExecConfig<'_>) -> BatchReport {
        // Wall-clock measurement only: feeds `wall_nanos`, which is
        // excluded from byte-diffed reports.
        let start = now_trace::stopwatch();
        self.ledger.begin(CostKind::Batch);
        let mut batch = self.admit_batch(&input.joins, &input.leaves);
        // The batch's one draw from the system stream, first after
        // admission on every engine.
        let master = self.rng.next_u64();
        let (dropped, events) = match *exec {
            ExecConfig::Event { net } => self.deliver(&mut batch, net, master),
            _ => (0, Vec::new()),
        };
        let waves = match *exec {
            ExecConfig::Serial => singleton_waves(&batch.specs),
            _ => partition_waves(&batch.specs),
        };

        let mut contact_redraws = 0u64;
        let waves: Vec<WaveStats> = waves
            .into_iter()
            // INVARIANT: both partitions return ranges within the slice
            // they were given.
            .map(|wave| self.execute_wave(&batch.specs[wave], master, &mut contact_redraws))
            .collect();
        if contact_redraws > 0 {
            self.hub.event(
                self.time_step,
                TraceData::ContactRedraws {
                    count: contact_redraws,
                },
            );
        }
        let rounds_parallel = waves.iter().map(|w| w.rounds_max).sum();
        let cost = self.ledger.end();
        self.advance_time_step();
        let report = BatchReport {
            joined: batch.joined,
            left: batch.left,
            rejected: batch.rejected,
            cost,
            rounds_parallel,
            waves,
            contact_redraws,
            dropped,
            events,
            wall_nanos: start.elapsed_nanos(),
        };
        self.record_step_metrics(&report);
        report
    }

    /// Folds one step's [`BatchReport`] into the metrics registry
    /// (no-op while metrics are off). Centralized here so every engine
    /// feeds the same metric names from the same report fields —
    /// protocol outcomes only, never the advisory `wall_nanos`.
    fn record_step_metrics(&mut self, report: &BatchReport) {
        if self.hub.metrics.is_none() {
            return;
        }
        self.hub.count("now_steps_total", 1);
        self.hub
            .count("now_ops_joined_total", report.joined.len() as u64);
        self.hub
            .count("now_ops_left_total", report.left.len() as u64);
        self.hub
            .count("now_ops_rejected_total", report.rejected.len() as u64);
        self.hub
            .count("now_contact_redraws_total", report.contact_redraws);
        self.hub.count("now_messages_total", report.cost.messages);
        self.hub
            .count("now_rounds_serial_total", report.cost.rounds);
        self.hub
            .count("now_rounds_parallel_total", report.rounds_parallel);
        self.hub.count("now_waves_total", report.waves.len() as u64);
        for wave in &report.waves {
            self.hub.observe(
                "now_wave_width",
                crate::hub::WAVE_WIDTH_BOUNDS,
                wave.ops as u64,
            );
            self.hub.observe(
                "now_wave_rounds",
                crate::hub::WAVE_ROUNDS_BOUNDS,
                wave.rounds_max,
            );
        }
        let population = self.registry.population() as i64;
        let clusters = self.registry.cluster_count() as i64;
        self.hub.gauge("now_population", population);
        self.hub.gauge("now_clusters", clusters);
        self.hub.gauge("now_step", self.time_step as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NowParams;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    #[test]
    fn batch_input_builders_agree() {
        let a = BatchInput::from_flags(&[true, false], &[]);
        let b = BatchInput::new()
            .join(JoinSpec::uniform(true))
            .join(JoinSpec::uniform(false));
        assert_eq!(a, b);
        assert!(BatchInput::new().is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn serial_and_pooled_agree() {
        let input = BatchInput::new().joins_uniform(12, true);
        let mut reference = system(260, 33);
        let want = reference.step_batch(&input, &ExecConfig::serial());
        let mut sys = system(260, 33);
        let got = sys.step_batch(&input, &ExecConfig::Pooled);
        assert_eq!(got.joined, want.joined);
        assert_eq!(got.cost, want.cost);
        assert_eq!(sys.node_ids(), reference.node_ids());
        assert_eq!(sys.ledger().total(), reference.ledger().total());
    }

    #[test]
    fn serial_engine_reports_no_events() {
        let mut sys = system(240, 5);
        let report = sys.step_batch(
            &BatchInput::new().joins_uniform(3, true),
            &ExecConfig::serial(),
        );
        assert_eq!(report.dropped, 0);
        assert!(report.events.is_empty());
        assert_eq!(report.joined.len(), 3);
    }

    #[test]
    fn empty_step_still_advances_time() {
        let mut sys = system(240, 6);
        let t0 = sys.time_step();
        let report = sys.step_batch(&BatchInput::new(), &ExecConfig::Pooled);
        assert_eq!(report.joined.len() + report.left.len(), 0);
        assert_eq!(sys.time_step(), t0 + 1);
    }

    #[test]
    fn exec_config_debug_is_compact() {
        assert_eq!(format!("{:?}", ExecConfig::serial()), "Serial");
        assert_eq!(format!("{:?}", ExecConfig::Pooled), "Pooled");
        assert!(
            format!("{:?}", ExecConfig::event(now_net::EventNetConfig::ideal())).contains("Event")
        );
    }
}
