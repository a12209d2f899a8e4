//! The single batched entry point: [`NowSystem::step_batch`]. It takes
//! two values:
//!
//! * [`BatchInput`] — *what* the step does: the arrivals and departures
//!   of one time step, however constructed.
//! * [`ExecConfig`] — *how* it runs: the execution engine and its
//!   resources (a caller-held [`WavePool`], an event network model).
//!
//! Every engine is bit-deterministic from `(seed, input, config)`, and
//! every engine is one batch skeleton, [`NowSystem::step_batch`]:
//! admission, one master draw per batch, the waves, the report. Each
//! wave runs the same op kernel in the same wave machinery
//! ([`crate::wave_exec`]): one [`now_net::DetRng::for_op`] substream per
//! operation, the kernel on per-operation views, planned and applied,
//! in a wave of two or more ops, and live on the registry in a wave of
//! one. The engines differ only in the order the admitted operations
//! run in — canonical, or the delivery order of the event network
//! ([`NowSystem::deliver`]) — how that order is cut into waves, and
//! where waves are planned; the outcome is independent of thread count.
//!
//! ```
//! use now_core::{BatchInput, ExecConfig, NowParams, NowSystem, WavePool};
//!
//! let params = NowParams::for_capacity(1 << 10).unwrap();
//! let mut sys = NowSystem::init_fast(params, 300, 0.2, 7);
//! let input = BatchInput::new().joins_uniform(4, true);
//! let pool = WavePool::new(2);
//! let report = sys.step_batch(&input, &ExecConfig::pooled(&pool));
//! assert_eq!(report.joined.len(), 4);
//! ```

use crate::batch::{BatchReport, JoinSpec, WaveStats};
use crate::system::NowSystem;
use crate::wave_exec::{partition_waves, singleton_waves, WavePool};
use now_net::{CostKind, EventNetConfig, NodeId};
use now_trace::TraceData;
use rand::RngCore;

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
/// Every variant is the wave engine and draws its randomness the same
/// way, so a seed has one trajectory: a batch whose footprint partition
/// is all singletons ends byte-identical on every variant and thread
/// count. [`ExecConfig::Pooled`] is bit-identical with and without a
/// pool, at every thread count. The variants differ in how wide a wave
/// may be (and the event engine in *which* admitted operations execute,
/// governed solely by its `(seed, net)` pair).
#[derive(Clone, Copy)]
pub enum ExecConfig<'p> {
    /// The wave engine capped at width 1: every admitted operation is
    /// its own wave, run live on the registry — the paper's one join or
    /// leave at a time, folded into one time step.
    Serial,
    /// The wave engine on conflict-free waves over cluster footprints,
    /// planned on a caller-held [`WavePool`] (successive batches reuse
    /// its workers, so a run spawns O(threads) threads total), or on
    /// the driving thread without one.
    Pooled {
        /// The pool whose workers plan the waves; `None` plans on the
        /// driving thread.
        pool: Option<&'p WavePool>,
    },
    /// The event-driven engine: each admitted operation becomes a
    /// message on a seeded discrete-event network
    /// ([`now_net::EventNet`]) with per-link latency/jitter/loss/
    /// partition models, and operations execute in **delivery order**
    /// (conflict-free runs of deliveries still drain through the wave
    /// workers). Messages the network drops are admitted-but-not-
    /// executed ([`BatchReport::dropped`]); the delivery trace is
    /// reported in [`BatchReport::events`]. Replayable from
    /// `(seed, net)` alone — thread count never changes the outcome.
    Event {
        /// The per-link network model.
        net: EventNetConfig,
        /// Optional caller-held pool for planning delivery waves; the
        /// driving thread plans alone when absent.
        pool: Option<&'p WavePool>,
    },
}

impl<'p> ExecConfig<'p> {
    /// [`ExecConfig::Serial`].
    pub fn serial() -> Self {
        ExecConfig::Serial
    }

    /// [`ExecConfig::Pooled`] planning on the driving thread.
    pub fn scheduled() -> Self {
        ExecConfig::Pooled { pool: None }
    }

    /// [`ExecConfig::Pooled`] on a caller-held pool.
    pub fn pooled(pool: &'p WavePool) -> Self {
        ExecConfig::Pooled { pool: Some(pool) }
    }

    /// [`ExecConfig::Event`] planning on the driving thread.
    pub fn event(net: EventNetConfig) -> Self {
        ExecConfig::Event { net, pool: None }
    }

    /// [`ExecConfig::Event`] planning on a caller-held pool.
    pub fn event_in(net: EventNetConfig, pool: &'p WavePool) -> Self {
        ExecConfig::Event {
            net,
            pool: Some(pool),
        }
    }
}

impl std::fmt::Debug for ExecConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExecConfig::Serial => f.write_str("Serial"),
            ExecConfig::Pooled { pool } => f
                .debug_struct("Pooled")
                .field("threads", &pool.map(WavePool::threads))
                .finish(),
            ExecConfig::Event { net, pool } => f
                .debug_struct("Event")
                .field("net", &net)
                .field("pooled", &pool.is_some())
                .finish(),
        }
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
            ExecConfig::Event { net, .. } => self.deliver(&mut batch, net, master),
            _ => (0, Vec::new()),
        };
        let (waves, pool) = match *exec {
            ExecConfig::Serial => (singleton_waves(&batch.specs), None),
            ExecConfig::Pooled { pool } | ExecConfig::Event { pool, .. } => {
                (partition_waves(&batch.specs), pool)
            }
        };

        let mut contact_redraws = 0u64;
        let waves: Vec<WaveStats> = waves
            .into_iter()
            // INVARIANT: both partitions return ranges within the slice
            // they were given.
            .map(|wave| self.execute_wave(&batch.specs[wave], pool, master, &mut contact_redraws))
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
    fn scheduled_and_pooled_agree() {
        let input = BatchInput::new().joins_uniform(12, true);
        let mut reference = system(260, 33);
        let want = reference.step_batch(&input, &ExecConfig::scheduled());
        let pool = WavePool::new(3);
        let mut sys = system(260, 33);
        let got = sys.step_batch(&input, &ExecConfig::pooled(&pool));
        assert_eq!(got.joined, want.joined);
        assert_eq!(got.cost, want.cost);
        assert_eq!(got.waves, want.waves);
        assert_eq!(sys.population(), reference.population());
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
        let report = sys.step_batch(&BatchInput::new(), &ExecConfig::scheduled());
        assert_eq!(report.joined.len() + report.left.len(), 0);
        assert_eq!(sys.time_step(), t0 + 1);
    }

    #[test]
    fn exec_config_debug_is_compact() {
        let pool = WavePool::new(2);
        assert_eq!(format!("{:?}", ExecConfig::serial()), "Serial");
        assert!(format!("{:?}", ExecConfig::pooled(&pool)).contains("Pooled"));
        assert!(
            format!("{:?}", ExecConfig::event(now_net::EventNetConfig::ideal())).contains("Event")
        );
    }
}
