//! Batched churn: several parallel joins/leaves per time step.
//!
//! The paper's footnote generalizes the one-operation-per-step model to
//! "several parallel join and leave operations". This module drives
//! [`now_core::NowSystem::step_batch`] — which schedules each batch
//! into conflict-free waves by cluster-footprint disjointness — with
//! batch-producing churn schedules, and reports the round-complexity
//! advantage of the scheduled execution (messages are identical; rounds
//! shrink from the batch sum to the per-wave maxima) together with the
//! wave-level metrics of the schedule. The [`BatchRun`] builder is the
//! single entry point; the engine — including the event-driven network
//! runtime of [`BatchExec::Event`] — is one knob on it.

use crate::metrics::TimeSeries;
use crate::runner::{record_violations, Violation};
use now_adversary::CorruptionBudget;
use now_core::{
    normalize_threads, BatchInput, EventNetConfig, ExecConfig, JoinSpec, NowSystem, SystemAudit,
    WavePool,
};
use now_net::{DetRng, NodeId};
use rand::Rng;

// The batch-driver trait lives in `now-adversary`, next to the serial
// `Adversary` trait it generalizes, so the attack drivers can implement
// it without a dependency cycle; re-exported here for continuity.
pub use now_adversary::BatchDriver;

/// Random batched churn: each step performs `Binomial(width, p_join)`
/// joins and the remainder as leaves of distinct uniformly random nodes.
#[derive(Debug, Clone, Copy)]
pub struct BatchRandomChurn {
    /// Operations per step.
    pub width: usize,
    /// Probability each of the `width` slots is a join.
    pub p_join: f64,
    /// Corruption budget for arrivals.
    pub budget: CorruptionBudget,
}

impl BatchRandomChurn {
    /// Balanced batched churn of the given width at corruption fraction
    /// `tau`.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn balanced(width: usize, tau: f64) -> Self {
        assert!(width > 0, "batch width must be positive");
        BatchRandomChurn {
            width,
            p_join: 0.5,
            budget: CorruptionBudget::new(tau),
        }
    }
}

impl BatchDriver for BatchRandomChurn {
    fn decide_batch(&mut self, sys: &NowSystem, rng: &mut DetRng) -> (Vec<JoinSpec>, Vec<NodeId>) {
        let mut joins = Vec::new();
        let mut n_leaves = 0usize;
        // Project the counts forward per slot: the whole batch is
        // decided before the system moves, so re-reading `sys` would let
        // every slot see the pre-batch ratio and overshoot τ.
        let mut pop = sys.population();
        let mut byz = sys.byz_population();
        for _ in 0..self.width {
            if rng.gen_bool(self.p_join.clamp(0.0, 1.0)) {
                let corrupt = self.budget.can_corrupt_at(pop, byz);
                joins.push(JoinSpec::uniform(!corrupt));
                pop += 1;
                if corrupt {
                    byz += 1;
                }
            } else {
                n_leaves += 1;
            }
        }
        let nodes = sys.node_ids();
        let n_leaves = n_leaves.min(nodes.len());
        let picks = now_graph::sample::sample_distinct(nodes.len(), n_leaves, rng);
        let leaves = picks.into_iter().map(|i| nodes[i]).collect();
        (joins, leaves)
    }

    fn name(&self) -> &'static str {
        "batch-random-churn"
    }
}

/// How a batched run executes each step's wave schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchExec {
    /// The serial engine: operations execute one after another off the
    /// shared stream and the wave schedule is derived from their
    /// measured costs ([`now_core::ExecConfig::Serial`]).
    Scheduled,
    /// The threaded wave executor on a **run-scoped persistent
    /// [`WavePool`]** with this many worker threads: workers spawn once
    /// per run and every step's waves reuse them
    /// ([`now_core::ExecConfig::Pooled`]). Outcomes are bit-identical
    /// across thread counts; only the wall-clock changes.
    Threaded(usize),
    /// The event-driven engine ([`now_core::ExecConfig::Event`]): each
    /// step's operations travel a seeded discrete-event network with
    /// the given per-link latency/jitter/loss/partition model and
    /// execute in delivery order; dropped messages become operations
    /// that never happened ([`BatchRunReport::dropped`]).
    Event(EventNetConfig),
}

impl BatchExec {
    /// The normalized worker-thread count of the execution mode
    /// (`None` for the serial scheduled path and for the event engine,
    /// which plans on the driving thread unless a pool is supplied);
    /// [`normalize_threads`]' `0 → 1` rule applies.
    pub fn threads(&self) -> Option<usize> {
        match *self {
            BatchExec::Scheduled | BatchExec::Event(_) => None,
            BatchExec::Threaded(t) => Some(normalize_threads(t)),
        }
    }
}

/// Report of one batched run ([`BatchRun`]).
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Driver name.
    pub driver: String,
    /// Worker threads used by the wave executor, `None` for the
    /// serial scheduled path.
    pub threads: Option<usize>,
    /// Time steps executed (each may contain many operations).
    pub steps: u64,
    /// Total joins admitted.
    pub joins: u64,
    /// Total leaves completed.
    pub leaves: u64,
    /// Departures rejected (floor / unknown).
    pub rejected: u64,
    /// Sum over steps of the serial round cost.
    pub rounds_serial: u64,
    /// Sum over steps of the scheduled parallel round cost (per-step
    /// sum of per-wave round maxima).
    pub rounds_parallel: u64,
    /// Total conflict-free waves scheduled across all steps.
    pub waves: u64,
    /// Width of the widest wave observed (number of operations running
    /// concurrently).
    pub max_wave_width: usize,
    /// Total round slack of the schedules: Σ over waves of
    /// `rounds_total − rounds_max`, the serial rounds the wave
    /// structure saved (surfaces [`now_core::WaveStats::rounds_total`]
    /// as an aggregate).
    pub wave_slack_rounds: u64,
    /// Operations whose triggering message the event network dropped
    /// across all steps (always zero outside [`BatchExec::Event`]).
    pub dropped: u64,
    /// Messages injected into the event network across all steps
    /// (always zero outside [`BatchExec::Event`]). Conservation holds
    /// per step and in aggregate: `sent == delivered + dropped`.
    pub sent: u64,
    /// Messages the event network delivered across all steps (always
    /// zero outside [`BatchExec::Event`]).
    pub delivered: u64,
    /// Wall-clock nanoseconds spent inside batch execution across all
    /// steps (host-dependent; excluded from determinism comparisons).
    pub wall_nanos: u64,
    /// Waves per step over time (1 point per step; lower = more
    /// parallelism for a fixed batch width).
    pub waves_per_step: TimeSeries,
    /// Population over time.
    pub population: TimeSeries,
    /// Worst per-cluster Byzantine fraction over time.
    pub worst_byz_fraction: TimeSeries,
    /// All invariant violations observed.
    pub violations: Vec<Violation>,
    /// Audit at the final step.
    pub final_audit: SystemAudit,
}

impl BatchRunReport {
    /// Round-complexity speedup of the scheduled parallel execution
    /// over serial execution. Degenerate runs are reported honestly: a
    /// run with serial rounds but no scheduled parallel rounds (e.g.
    /// every operation rejected) reports the serial count rather than
    /// pretending parity; 1.0 only when both sides are zero.
    pub fn parallel_speedup(&self) -> f64 {
        match (self.rounds_serial, self.rounds_parallel) {
            (0, 0) => 1.0,
            (serial, 0) => serial as f64,
            (serial, parallel) => serial as f64 / parallel as f64,
        }
    }

    /// Mean number of conflict-free waves a step's batch was scheduled
    /// into (0 for an empty run).
    pub fn mean_waves_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.waves as f64 / self.steps as f64
        }
    }

    /// True if no invariant violation was observed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Violations binding for the given mode (see
    /// [`ViolationKind::binds_in`]).
    pub fn binding_violations(&self, mode: now_core::SecurityMode) -> usize {
        self.violations
            .iter()
            .filter(|v| v.kind.binds_in(mode))
            .count()
    }
}

/// Boxed stop predicate of a [`BatchRun`]: observes the system and the
/// report-so-far after each step, returning `true` to end the run.
type StopFn<'p> = Box<dyn FnMut(&NowSystem, &BatchRunReport) -> bool + 'p>;

/// The batched runner, as a builder — **the** way to run batched churn.
///
/// A `BatchRun` describes *how* a batched run executes: the batch width
/// (consumed by [`crate::Scenario::run_batch`] when it builds the
/// driver), the execution engine, an optional caller-held [`WavePool`],
/// and an optional stop predicate. The *what* — system, driver, length,
/// seed — is supplied at [`BatchRun::run`] time (or by the scenario).
///
/// # Example
/// ```
/// use now_sim::{BatchExec, BatchRandomChurn, BatchRun};
/// use now_core::{NowParams, NowSystem};
///
/// let params = NowParams::for_capacity(1 << 10).unwrap();
/// let mut sys = NowSystem::init_fast(params, 200, 0.1, 1);
/// let mut driver = BatchRandomChurn::balanced(6, 0.1);
/// let report = BatchRun::new()
///     .exec(BatchExec::Threaded(2))
///     .until(|_, r| r.steps >= 5)
///     .run(&mut sys, &mut driver, 20, 2);
/// assert_eq!(report.steps, 5);
/// ```
pub struct BatchRun<'p> {
    width: usize,
    exec: BatchExec,
    pool: Option<&'p WavePool>,
    stop: Option<StopFn<'p>>,
    trace: Option<usize>,
    metrics: bool,
}

impl Default for BatchRun<'_> {
    fn default() -> Self {
        BatchRun::new()
    }
}

impl<'p> BatchRun<'p> {
    /// A run with the defaults: width 4, [`BatchExec::Scheduled`], no
    /// caller-held pool, no stop predicate.
    pub fn new() -> Self {
        BatchRun {
            width: 4,
            exec: BatchExec::Scheduled,
            pool: None,
            stop: None,
            trace: None,
            metrics: false,
        }
    }

    /// Sets the batch width (operations per step). Consumed by
    /// [`crate::Scenario::run_batch`] when it builds the churn driver;
    /// a driver passed directly to [`BatchRun::run`] carries its own
    /// width and ignores this knob.
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// The configured batch width.
    pub fn batch_width(&self) -> usize {
        self.width
    }

    /// The configured execution engine.
    pub fn exec_mode(&self) -> BatchExec {
        self.exec
    }

    /// Sets the execution engine.
    pub fn exec(mut self, exec: BatchExec) -> Self {
        self.exec = exec;
        self
    }

    /// Runs on a **caller-held** [`WavePool`]: the primitive for
    /// drivers of multiple runs (the campaign engine holds one pool for
    /// all of a campaign's phases, so successive phases reuse the same
    /// workers). Consulted by [`BatchExec::Threaded`] (instead of the
    /// run-scoped pool) and [`BatchExec::Event`] (wave planning moves
    /// onto the pool's workers).
    pub fn in_pool(mut self, pool: &'p WavePool) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Enables the system's flight recorder before the run starts,
    /// with a ring buffer of `capacity` events (see
    /// [`now_core::NowSystem::enable_tracing`]). Violations the run's
    /// audits observe are forwarded to the recorder, so the first one
    /// captures a causal-neighborhood dump. A recorder already enabled
    /// on the system is left as is.
    pub fn trace(mut self, capacity: usize) -> Self {
        self.trace = Some(capacity);
        self
    }

    /// Enables the system's metrics registry before the run starts
    /// (see [`now_core::NowSystem::enable_metrics`]). A registry
    /// already enabled on the system is left as is.
    pub fn metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Stops the run early: `stop` is checked before the first step and
    /// after every audited step — the primitive the campaign engine's
    /// population and first-violation triggers are built on. A
    /// condition already satisfied at entry yields a zero-step run; the
    /// `max_steps` given to [`BatchRun::run`] caps the run regardless.
    pub fn until(mut self, stop: impl FnMut(&NowSystem, &BatchRunReport) -> bool + 'p) -> Self {
        self.stop = Some(Box::new(stop));
        self
    }

    /// Runs at most `max_steps` batched time steps of `driver`-produced
    /// churn on `sys`, auditing after every step.
    pub fn run(
        self,
        sys: &mut NowSystem,
        driver: &mut dyn BatchDriver,
        max_steps: u64,
        seed: u64,
    ) -> BatchRunReport {
        let BatchRun {
            width: _,
            exec,
            pool,
            stop,
            trace,
            metrics,
        } = self;
        let mut stop = stop.unwrap_or_else(|| Box::new(|_: &NowSystem, _: &BatchRunReport| false));
        if let Some(capacity) = trace {
            if sys.flight_recorder().is_none() {
                sys.enable_tracing(capacity);
            }
        }
        if metrics && sys.metrics().is_none() {
            sys.enable_metrics();
        }

        // One `ExecConfig` for the whole run. A threaded run without a
        // caller-held pool gets a run-scoped one: one worker-spawn set
        // for the whole run, whatever the step count or wave structure.
        let run_pool;
        let exec_cfg = match (exec, pool) {
            (BatchExec::Scheduled, _) => ExecConfig::serial(),
            (BatchExec::Threaded(_), Some(p)) => ExecConfig::pooled(p),
            (BatchExec::Threaded(t), None) => {
                run_pool = WavePool::new(t);
                ExecConfig::pooled(&run_pool)
            }
            (BatchExec::Event(net), Some(p)) => ExecConfig::event_in(net, p),
            (BatchExec::Event(net), None) => ExecConfig::event(net),
        };

        let mut rng = DetRng::new(seed);
        let mut report = BatchRunReport {
            driver: driver.name().to_string(),
            // The pool is what actually executes Threaded steps, so a
            // caller-held pool's width is the honest record even if the
            // exec knob says otherwise (outcomes are identical either
            // way).
            threads: match exec_cfg {
                ExecConfig::Pooled { pool } => Some(pool.threads()),
                _ => None,
            },
            steps: 0,
            joins: 0,
            leaves: 0,
            rejected: 0,
            rounds_serial: 0,
            rounds_parallel: 0,
            waves: 0,
            max_wave_width: 0,
            wave_slack_rounds: 0,
            dropped: 0,
            sent: 0,
            delivered: 0,
            wall_nanos: 0,
            waves_per_step: TimeSeries::new("waves_per_step"),
            population: TimeSeries::new("population"),
            worst_byz_fraction: TimeSeries::new("worst_byz_fraction"),
            violations: Vec::new(),
            final_audit: sys.audit(),
        };
        if stop(sys, &report) {
            return report;
        }
        for _ in 0..max_steps {
            let (joins, leaves) = driver.decide_batch(sys, &mut rng);
            let batch = sys.step_batch(&BatchInput::from_specs(&joins, &leaves), &exec_cfg);
            report.steps += 1;
            report.joins += batch.joined.len() as u64;
            report.leaves += batch.left.len() as u64;
            report.rejected += batch.rejected.len() as u64;
            report.rounds_serial += batch.cost.rounds;
            report.rounds_parallel += batch.rounds_parallel;
            report.waves += batch.wave_count() as u64;
            report.max_wave_width = report.max_wave_width.max(batch.max_wave_width());
            report.wave_slack_rounds += batch.wave_slack_rounds();
            report.dropped += batch.dropped;
            let step_delivered = batch.events.iter().filter(|e| e.delivered).count() as u64;
            report.delivered += step_delivered;
            report.sent += step_delivered + batch.dropped;
            report.wall_nanos += batch.wall_nanos;

            let audit = sys.audit();
            report
                .waves_per_step
                .push(audit.time_step, batch.wave_count() as f64);
            report
                .population
                .push(audit.time_step, audit.population as f64);
            report
                .worst_byz_fraction
                .push(audit.time_step, audit.worst_byz_fraction);
            let seen = report.violations.len();
            record_violations(&audit, &mut report.violations);
            // INVARIANT: `seen` is the pre-append length of this same
            // vec, so the tail slice is in bounds.
            for v in &report.violations[seen..] {
                sys.record_violation(v.kind.name(), v.cluster);
            }
            if stop(sys, &report) {
                break;
            }
        }
        report.final_audit = sys.audit();
        report
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
    fn batched_run_executes_many_ops_per_step() {
        let mut sys = system(200, 0.1, 1);
        let mut driver = BatchRandomChurn::balanced(6, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut driver, 20, 2);
        assert_eq!(report.steps, 20);
        assert!(report.joins + report.leaves > 60, "width 6 × 20 steps");
        assert_eq!(sys.time_step(), 20, "one time step per batch");
        sys.check_consistency().unwrap();
    }

    /// A system whose overlay is sparse relative to its cluster count
    /// (capacity 16 ⇒ overlay target degree 5, 64 clusters), so batches
    /// of random operations contain genuinely disjoint footprints.
    fn sparse_system(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(16).unwrap();
        NowSystem::init_fast(params, 64 * params.target_cluster_size(), 0.1, seed)
    }

    #[test]
    fn parallel_rounds_beat_serial_on_sparse_overlays() {
        let mut sys = sparse_system(3);
        let mut driver = BatchRandomChurn::balanced(8, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut driver, 10, 4);
        assert!(
            report.parallel_speedup() > 1.2,
            "8-wide batches on a 64-cluster sparse overlay should save \
             rounds: ×{:.2} ({} waves over {} steps)",
            report.parallel_speedup(),
            report.waves,
            report.steps
        );
        assert!(report.rounds_parallel < report.rounds_serial);
        // The schedule found real concurrency: strictly fewer waves than
        // operations, and some wave ran ≥ 2 ops side by side.
        assert!(report.waves < report.joins + report.leaves);
        assert!(report.max_wave_width >= 2);
        assert!(report.mean_waves_per_step() >= 1.0);
        assert_eq!(report.waves_per_step.len() as u64, report.steps);
    }

    #[test]
    fn batched_churn_keeps_invariants_at_low_tau() {
        let params = NowParams::new(1 << 10, 4, 1.5, 0.30, 0.05).unwrap();
        let mut sys = NowSystem::init_fast(params, 240, 0.1, 5);
        let mut driver = BatchRandomChurn::balanced(4, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut driver, 40, 6);
        assert!(
            report.clean(),
            "violations under batching: {:?}",
            report.violations
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn batch_corruption_respects_projected_budget() {
        // Regression: a pure-join batch decided against a stale system
        // must not overshoot τ by width − 1 corrupt arrivals.
        let params = now_core::NowParams::for_capacity(1 << 10).unwrap();
        let sys = NowSystem::init_fast(params, 100, 0.10, 11); // 10 byz
        let tau = 0.11;
        let mut driver = BatchRandomChurn {
            width: 8,
            p_join: 1.0,
            budget: CorruptionBudget::new(tau),
        };
        let mut rng = DetRng::new(1);
        let (joins, leaves) = driver.decide_batch(&sys, &mut rng);
        assert!(leaves.is_empty());
        assert_eq!(joins.len(), 8);
        let corrupted = joins.iter().filter(|j| !j.honest).count() as u64;
        // Largest j with (10 + j) / (100 + j) ≤ 0.11 is j = 1.
        assert_eq!(corrupted, 1, "projected budget admits exactly one");
        let frac = (sys.byz_population() + corrupted) as f64 / (sys.population() + 8) as f64;
        assert!(frac <= tau, "batch overshot τ: {frac}");
    }

    #[test]
    fn threaded_runs_are_thread_count_invariant() {
        let go = |threads: usize| {
            let mut sys = sparse_system(13);
            let mut driver = BatchRandomChurn::balanced(6, 0.1);
            let r = BatchRun::new().exec(BatchExec::Threaded(threads)).run(
                &mut sys,
                &mut driver,
                12,
                14,
            );
            sys.check_consistency().unwrap();
            (
                r.joins,
                r.leaves,
                r.rejected,
                r.rounds_serial,
                r.rounds_parallel,
                r.waves,
                r.max_wave_width,
                r.wave_slack_rounds,
                sys.population(),
                sys.node_ids(),
            )
        };
        let serial = go(1);
        assert_eq!(serial, go(2));
        assert_eq!(serial, go(8));
    }

    #[test]
    fn threaded_report_carries_thread_and_timing_metadata() {
        let mut sys = sparse_system(15);
        let mut driver = BatchRandomChurn::balanced(6, 0.1);
        let report = BatchRun::new()
            .exec(BatchExec::Threaded(4))
            .run(&mut sys, &mut driver, 8, 16);
        assert_eq!(report.threads, Some(4));
        assert!(report.wall_nanos > 0, "executed batches take time");
        assert!(
            report.wave_slack_rounds > 0,
            "sparse batches should schedule real concurrency"
        );
        // Slack is consistent with the serial-vs-parallel gap whenever
        // maintenance rounds are charged outside the schedule.
        assert!(report.wave_slack_rounds <= report.rounds_serial - report.rounds_parallel);

        let mut legacy_sys = sparse_system(15);
        let mut legacy_driver = BatchRandomChurn::balanced(6, 0.1);
        let legacy = BatchRun::new().run(&mut legacy_sys, &mut legacy_driver, 8, 16);
        assert_eq!(legacy.threads, None);
    }

    #[test]
    fn zero_threads_normalizes_like_one_across_exec_modes() {
        // Regression for the shared `normalize_threads` rule: the sim
        // layer must treat `Threaded(0)` exactly like `Threaded(1)` —
        // in the report metadata *and* in the outcomes.
        assert_eq!(BatchExec::Threaded(0).threads(), Some(1));
        assert_eq!(BatchExec::Scheduled.threads(), None);
        let go = |exec: BatchExec| {
            let mut sys = sparse_system(19);
            let mut driver = BatchRandomChurn::balanced(5, 0.1);
            let r = BatchRun::new().exec(exec).run(&mut sys, &mut driver, 6, 20);
            (
                r.threads,
                r.joins,
                r.leaves,
                r.rounds_parallel,
                sys.node_ids(),
            )
        };
        assert_eq!(go(BatchExec::Threaded(0)), go(BatchExec::Threaded(1)));
    }

    #[test]
    fn pooled_exec_agrees_bitwise_across_worker_counts() {
        let go = |exec: BatchExec| {
            let mut sys = sparse_system(23);
            let mut driver = BatchRandomChurn::balanced(7, 0.1);
            let r = BatchRun::new()
                .exec(exec)
                .run(&mut sys, &mut driver, 10, 24);
            sys.check_consistency().unwrap();
            (
                r.joins,
                r.leaves,
                r.rejected,
                r.rounds_serial,
                r.rounds_parallel,
                r.waves,
                r.max_wave_width,
                r.wave_slack_rounds,
                sys.population(),
                sys.node_ids(),
            )
        };
        let pooled = go(BatchExec::Threaded(4));
        assert_eq!(pooled, go(BatchExec::Threaded(1)), "pooled vs inline");
    }

    #[test]
    fn caller_held_pool_matches_run_scoped_pool() {
        let go = |pool: Option<&now_core::WavePool>| {
            let mut sys = sparse_system(27);
            let mut driver = BatchRandomChurn::balanced(6, 0.1);
            let mut run = BatchRun::new().exec(BatchExec::Threaded(4));
            if let Some(pool) = pool {
                run = run.in_pool(pool);
            }
            let r = run.run(&mut sys, &mut driver, 8, 28);
            (r.joins, r.leaves, r.rounds_parallel, sys.node_ids())
        };
        let shared = now_core::WavePool::new(4);
        let with_shared = go(Some(&shared));
        // The same shared pool again (reuse across runs)...
        assert_eq!(with_shared, go(Some(&shared)));
        // ...and the per-batch fallback.
        assert_eq!(with_shared, go(None));
    }

    #[test]
    fn batched_runs_are_deterministic() {
        let go = || {
            let mut sys = system(200, 0.1, 7);
            let mut driver = BatchRandomChurn::balanced(5, 0.1);
            let r = BatchRun::new().run(&mut sys, &mut driver, 25, 8);
            (r.joins, r.leaves, r.rounds_parallel, sys.population())
        };
        assert_eq!(go(), go());
    }

    #[test]
    #[should_panic(expected = "batch width")]
    fn zero_width_rejected() {
        let _ = BatchRandomChurn::balanced(0, 0.1);
    }

    #[test]
    fn event_exec_runs_and_counts_drops() {
        let net = EventNetConfig::ideal()
            .with_latency(2)
            .with_jitter(3)
            .with_drop(0.3);
        let mut sys = system(200, 0.1, 31);
        let mut driver = BatchRandomChurn::balanced(6, 0.1);
        let report = BatchRun::new()
            .exec(BatchExec::Event(net))
            .run(&mut sys, &mut driver, 15, 32);
        assert_eq!(report.steps, 15);
        assert_eq!(report.threads, None, "event runs carry no thread count");
        assert!(report.dropped > 0, "30% loss over 15 steps must drop joins");
        sys.check_consistency().unwrap();

        // Same run on a caller-held pool: identical outcomes, pool width
        // recorded nowhere (planning threads never change results).
        let pool = WavePool::new(4);
        let mut pooled_sys = system(200, 0.1, 31);
        let mut pooled_driver = BatchRandomChurn::balanced(6, 0.1);
        let pooled = BatchRun::new()
            .exec(BatchExec::Event(net))
            .in_pool(&pool)
            .run(&mut pooled_sys, &mut pooled_driver, 15, 32);
        assert_eq!(pooled.dropped, report.dropped);
        assert_eq!(pooled.joins, report.joins);
        assert_eq!(pooled.leaves, report.leaves);
        assert_eq!(pooled_sys.node_ids(), sys.node_ids());
    }

    #[test]
    fn non_event_runs_report_zero_dropped() {
        let mut sys = system(200, 0.1, 35);
        let mut driver = BatchRandomChurn::balanced(5, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut driver, 10, 36);
        assert_eq!(report.dropped, 0);
    }
}
