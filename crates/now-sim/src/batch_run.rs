//! The step loop: drive churn, execute each step's batch, audit the
//! paper's invariants.
//!
//! The paper states its model as one join or leave per time step and
//! notes (§2, footnote) that the analysis generalizes to "several
//! parallel join and leave operations" — so the per-step model is the
//! batched one at width ≤ 1, and one loop serves both. [`BatchRun`]
//! asks a [`BatchDriver`] for each step's operations, hands them to
//! [`now_core::NowSystem::step_batch`] on the [`ExecConfig`] the caller
//! names — which schedules a batch into conflict-free waves by
//! cluster-footprint disjointness — and reports the outcome: violation
//! tracking and time series, plus the round-complexity advantage of the
//! scheduled execution (messages are identical; rounds shrink from the
//! batch sum to the per-wave maxima) and the wave-level metrics of the
//! schedule.

use crate::metrics::TimeSeries;
use crate::violation::{record_violations, Violation, ViolationKind};
use now_adversary::CorruptionBudget;
use now_core::{BatchInput, ExecConfig, JoinSpec, NowSystem, SystemAudit};
use now_net::{DetRng, NodeId};
use rand::Rng;

// The driver trait lives in `now-adversary`, next to the strategies
// that implement it; re-exported here for continuity.
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

/// Report of one run ([`BatchRun`]).
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Driver name.
    pub driver: String,
    /// Worker threads that planned the run's waves, read off its
    /// [`ExecConfig`]: the pool's width for [`ExecConfig::Pooled`] and
    /// for [`ExecConfig::Event`] on a pool, `None` for engines that run
    /// on the driving thread. Advisory (outcomes never depend on it) and
    /// in no byte-diffed artifact.
    pub threads: Option<usize>,
    /// Time steps executed (each may contain many operations).
    pub steps: u64,
    /// Total joins admitted.
    pub joins: u64,
    /// Total leaves completed.
    pub leaves: u64,
    /// Departures refused (population floor / unknown node). A step
    /// whose only operation is refused still advances time.
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
    /// across all steps (always zero outside [`ExecConfig::Event`]).
    pub dropped: u64,
    /// Messages injected into the event network across all steps
    /// (always zero outside [`ExecConfig::Event`]). Conservation holds
    /// per step and in aggregate: `sent == delivered + dropped`.
    pub sent: u64,
    /// Messages the event network delivered across all steps (always
    /// zero outside [`ExecConfig::Event`]).
    pub delivered: u64,
    /// Wall-clock nanoseconds spent inside batch execution across all
    /// steps (host-dependent; excluded from determinism comparisons).
    pub wall_nanos: u64,
    /// Waves per step over time (1 point per step; lower = more
    /// parallelism for a fixed batch width).
    pub waves_per_step: TimeSeries,
    /// Population over time (1 point per audited step).
    pub population: TimeSeries,
    /// Cluster count over time (1 point per audited step).
    pub cluster_count: TimeSeries,
    /// Worst per-cluster Byzantine fraction over time (1 point per
    /// audited step).
    pub worst_byz_fraction: TimeSeries,
    /// All invariant violations the audits observed.
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

    /// Number of violations of a given kind.
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.violations.iter().filter(|v| v.kind == kind).count()
    }

    /// Highest worst-cluster Byzantine fraction any audit of the run
    /// observed (0 for a run without audited steps).
    pub fn peak_byz_fraction(&self) -> f64 {
        self.worst_byz_fraction.summary().max
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

/// The step loop, as a builder — **the** way to run churn.
///
/// A `BatchRun` describes *how* a run executes: the engine (an
/// [`ExecConfig`], default [`ExecConfig::Serial`]; a caller who wants
/// workers holds the [`now_core::WavePool`], as `step_batch` itself
/// requires), an optional stop predicate, and the audit cadence. The
/// *what* — system, driver, length, seed — is supplied at
/// [`BatchRun::run`] time.
///
/// Every step is one [`now_core::NowSystem::step_batch`] of whatever
/// the driver decided, so **time advances once per step** — also when
/// the batch is empty (a quiet step) or its only operation is refused
/// (counted in [`BatchRunReport::rejected`]) — and the x values of
/// every series are strictly increasing.
///
/// # Example
/// ```
/// use now_sim::{BatchRandomChurn, BatchRun};
/// use now_core::{ExecConfig, NowParams, NowSystem, WavePool};
///
/// let params = NowParams::for_capacity(1 << 10).unwrap();
/// let mut sys = NowSystem::init_fast(params, 200, 0.1, 1);
/// let mut driver = BatchRandomChurn::balanced(6, 0.1);
/// let pool = WavePool::new(2);
/// let report = BatchRun::new()
///     .exec(ExecConfig::pooled(&pool))
///     .until(|_, r| r.steps >= 5)
///     .run(&mut sys, &mut driver, 20, 2);
/// assert_eq!(report.steps, 5);
/// assert_eq!(report.threads, Some(2));
/// ```
pub struct BatchRun<'p> {
    exec: ExecConfig<'p>,
    stop: StopFn<'p>,
    audit_every: u64,
}

impl Default for BatchRun<'_> {
    fn default() -> Self {
        BatchRun::new()
    }
}

impl<'p> BatchRun<'p> {
    /// A run with the defaults: [`ExecConfig::Serial`], no stop
    /// predicate, audited every step.
    pub fn new() -> Self {
        BatchRun {
            exec: ExecConfig::Serial,
            stop: Box::new(|_, _| false),
            audit_every: 1,
        }
    }

    /// Sets the execution engine.
    pub fn exec(mut self, exec: ExecConfig<'p>) -> Self {
        self.exec = exec;
        self
    }

    /// Stops the run early: `stop` is checked before the first step and
    /// after every step — the primitive the campaign engine's
    /// population and first-violation triggers are built on. A
    /// condition already satisfied at entry yields a zero-step run; the
    /// `max_steps` given to [`BatchRun::run`] caps the run regardless.
    pub fn until(mut self, stop: impl FnMut(&NowSystem, &BatchRunReport) -> bool + 'p) -> Self {
        self.stop = Box::new(stop);
        self
    }

    /// Sets the audit cadence: the first step and every `every`-th
    /// after it are audited (1, the default, audits every step; 0 is
    /// read as 1). Larger values trade coverage for speed on very long
    /// runs: only audited steps check the invariants and add a point to
    /// the audit-derived series.
    pub fn audit_every(mut self, every: u64) -> Self {
        self.audit_every = every.max(1);
        self
    }

    /// Runs at most `max_steps` time steps of `driver`-produced churn
    /// on `sys`; `seed` seeds the driver's randomness.
    pub fn run(
        self,
        sys: &mut NowSystem,
        driver: &mut dyn BatchDriver,
        max_steps: u64,
        seed: u64,
    ) -> BatchRunReport {
        let BatchRun {
            exec,
            mut stop,
            audit_every,
        } = self;

        let mut rng = DetRng::new(seed);
        let mut report = BatchRunReport {
            driver: driver.name().to_string(),
            threads: match exec {
                ExecConfig::Pooled { pool: Some(pool) }
                | ExecConfig::Event {
                    pool: Some(pool), ..
                } => Some(pool.threads()),
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
            cluster_count: TimeSeries::new("cluster_count"),
            worst_byz_fraction: TimeSeries::new("worst_byz_fraction"),
            violations: Vec::new(),
            final_audit: sys.audit(),
        };
        if stop(sys, &report) {
            return report;
        }
        for step in 0..max_steps {
            let (joins, leaves) = driver.decide_batch(sys, &mut rng);
            let batch = sys.step_batch(&BatchInput::from_specs(&joins, &leaves), &exec);
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
            report
                .waves_per_step
                .push(sys.time_step(), batch.wave_count() as f64);

            if step % audit_every == 0 {
                let audit = sys.audit();
                report
                    .population
                    .push(audit.time_step, audit.population as f64);
                report
                    .cluster_count
                    .push(audit.time_step, audit.cluster_count as f64);
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
    use now_adversary::{
        BatchBurstChurn, BatchMergeForcing, BatchSplitForcing, ClusterPick, OnePerStep,
        QuietBatches,
    };
    use now_core::{EventNetConfig, NowParams, WavePool};

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

        // Time passes on a quiet step too: 20 empty batches advance the
        // clock by 20 and change nothing else.
        let before = sys.population();
        let quiet = BatchRun::new().run(&mut sys, &mut QuietBatches, 20, 0);
        assert_eq!(quiet.steps, 20);
        assert_eq!(quiet.joins + quiet.leaves, 0);
        assert_eq!(sys.time_step(), 40, "time_step + 20");
        assert_eq!(sys.population(), before);
        assert!(quiet.clean());
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
        let report =
            BatchRun::new()
                .exec(ExecConfig::scheduled())
                .run(&mut sys, &mut driver, 10, 4);
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
            let pool = WavePool::new(threads);
            let mut sys = sparse_system(13);
            let mut driver = BatchRandomChurn::balanced(6, 0.1);
            let r =
                BatchRun::new()
                    .exec(ExecConfig::pooled(&pool))
                    .run(&mut sys, &mut driver, 12, 14);
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
        let pool = WavePool::new(4);
        let mut sys = sparse_system(15);
        let mut driver = BatchRandomChurn::balanced(6, 0.1);
        let report =
            BatchRun::new()
                .exec(ExecConfig::pooled(&pool))
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

        let mut serial_sys = sparse_system(15);
        let mut serial_driver = BatchRandomChurn::balanced(6, 0.1);
        let serial = BatchRun::new().run(&mut serial_sys, &mut serial_driver, 8, 16);
        assert_eq!(serial.threads, None);
    }

    #[test]
    fn zero_threads_normalizes_like_one() {
        // Regression for the shared `normalize_threads` rule: a pool of
        // 0 is a pool of 1 — in the report metadata *and* in the
        // outcomes.
        let go = |threads: usize| {
            let pool = WavePool::new(threads);
            let mut sys = sparse_system(19);
            let mut driver = BatchRandomChurn::balanced(5, 0.1);
            let r =
                BatchRun::new()
                    .exec(ExecConfig::pooled(&pool))
                    .run(&mut sys, &mut driver, 6, 20);
            (
                r.threads,
                r.joins,
                r.leaves,
                r.rounds_parallel,
                sys.node_ids(),
            )
        };
        assert_eq!(go(0).0, Some(1));
        assert_eq!(go(0), go(1));
    }

    #[test]
    fn pooled_exec_agrees_bitwise_with_the_driving_thread() {
        let go = |exec: ExecConfig<'_>| {
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
        let pool = WavePool::new(4);
        let pooled = go(ExecConfig::pooled(&pool));
        // The same pool again (reuse across runs)...
        assert_eq!(pooled, go(ExecConfig::pooled(&pool)));
        // ...and the wave engine without workers.
        assert_eq!(pooled, go(ExecConfig::scheduled()), "pooled vs inline");
    }

    #[test]
    fn runs_are_deterministic() {
        let batched = || {
            let mut sys = system(200, 0.1, 7);
            let mut driver = BatchRandomChurn::balanced(5, 0.1);
            let r = BatchRun::new().run(&mut sys, &mut driver, 25, 8);
            (r.joins, r.leaves, r.rounds_parallel, sys.population())
        };
        assert_eq!(batched(), batched());
        let per_step = || {
            let mut sys = system(150, 0.1, 5);
            let mut adv = BatchRandomChurn::balanced(1, 0.1);
            let r = BatchRun::new().run(&mut sys, &mut adv, 60, 10);
            (
                r.joins,
                r.leaves,
                sys.population(),
                r.peak_byz_fraction().to_bits(),
            )
        };
        assert_eq!(per_step(), per_step());
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
        let report =
            BatchRun::new()
                .exec(ExecConfig::event(net))
                .run(&mut sys, &mut driver, 15, 32);
        assert_eq!(report.steps, 15);
        assert_eq!(report.threads, None, "planned on the driving thread");
        assert!(report.dropped > 0, "30% loss over 15 steps must drop joins");
        sys.check_consistency().unwrap();

        // Same run planning on a caller-held pool: identical outcomes
        // (planning threads never change results), the pool's width in
        // the report.
        let pool = WavePool::new(4);
        let mut pooled_sys = system(200, 0.1, 31);
        let mut pooled_driver = BatchRandomChurn::balanced(6, 0.1);
        let pooled = BatchRun::new().exec(ExecConfig::event_in(net, &pool)).run(
            &mut pooled_sys,
            &mut pooled_driver,
            15,
            32,
        );
        assert_eq!(pooled.threads, Some(4));
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

    #[test]
    fn per_step_random_churn_is_clean_at_low_tau() {
        // k = 4 (clusters of ~40): the Chernoff tail to the 1/3
        // threshold at τ = 0.1 is negligible — the k-dependence of
        // Lemma 1. (At k = 2 occasional threshold crossings are
        // *expected*; experiment X-T3 measures that trade-off.)
        let params = NowParams::new(1 << 10, 4, 1.5, 0.30, 0.05).unwrap();
        let mut sys = NowSystem::init_fast(params, 240, 0.1, 2);
        let mut adv = BatchRandomChurn::balanced(1, 0.1);
        let report = BatchRun::new().run(&mut sys, &mut adv, 150, 7);
        assert_eq!(report.steps, 150);
        assert!(report.joins > 30);
        assert!(report.leaves > 30);
        assert_eq!(report.max_wave_width, 1, "one op per step");
        assert!(
            report.clean(),
            "violations at τ=0.1: {:?}",
            report.violations
        );
        assert!(report.peak_byz_fraction() < 1.0 / 3.0);
        sys.check_consistency().unwrap();
    }

    /// A serial run of `driver` at τ = 0.10.
    fn attack_run(
        driver: &mut dyn BatchDriver,
        n0: usize,
        steps: u64,
        seed: u64,
    ) -> (BatchRunReport, NowSystem) {
        let params = NowParams::new(1 << 10, 2, 1.5, 0.10, 0.05).unwrap();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, seed);
        let report = BatchRun::new().run(&mut sys, driver, steps, seed + 1);
        (report, sys)
    }

    #[test]
    fn per_step_pressure_attacks_run() {
        let first = ClusterPick::First;
        let attacks: [Box<dyn BatchDriver>; 3] = [
            Box::new(OnePerStep::new(
                BatchSplitForcing::new(1, 0.10).with_pick(first),
            )),
            Box::new(OnePerStep::new(
                BatchMergeForcing::new(1, 0.10).with_pick(first),
            )),
            Box::new(OnePerStep::new(BatchBurstChurn::new(5, 0.10))),
        ];
        for mut driver in attacks {
            let (report, sys) = attack_run(driver.as_mut(), 200, 60, 3);
            assert_eq!(report.steps, 60, "{}", report.driver);
            assert_eq!(
                report.max_wave_width, 1,
                "{}: one op per step",
                report.driver
            );
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn split_forcing_batches_cause_splits() {
        let mut flood = BatchSplitForcing::new(6, 0.10).with_pick(ClusterPick::First);
        let (_, sys) = attack_run(&mut flood, 160, 30, 9);
        let (_, _, splits, _) = sys.op_counts();
        assert!(splits > 0, "180 steered arrivals must split something");
    }

    #[test]
    fn merge_forcing_batches_cause_merges() {
        let mut drain = BatchMergeForcing::new(6, 0.10).with_pick(ClusterPick::First);
        let (_, sys) = attack_run(&mut drain, 200, 30, 12);
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "sustained batched draining must merge");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn burst_batches_hold_population_over_a_period() {
        let (report, sys) = attack_run(&mut BatchBurstChurn::new(4, 0.10), 160, 20, 13);
        assert_eq!(report.steps, 20);
        assert!(report.joins > 0 && report.leaves > 0);
        // Stationary over full periods: joins and leaves roughly cancel.
        assert!(
            sys.population() >= 150 && sys.population() <= 170,
            "population drifted to {}",
            sys.population()
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn audit_cadence_thins_series() {
        let go = |every: u64| {
            let mut sys = system(150, 0.1, 4);
            let mut adv = BatchRandomChurn::balanced(1, 0.1);
            BatchRun::new()
                .audit_every(every)
                .run(&mut sys, &mut adv, 50, 9)
        };
        let every_step = go(1);
        for series in [
            &every_step.worst_byz_fraction,
            &every_step.population,
            &every_step.cluster_count,
            &every_step.waves_per_step,
        ] {
            assert_eq!(series.len(), 50, "{}", series.name);
            assert!(
                series.points().windows(2).all(|w| w[0].0 < w[1].0),
                "{}: time advances once per step",
                series.name
            );
        }
        let thinned = go(10);
        assert_eq!(thinned.worst_byz_fraction.len(), 5);
        assert_eq!(thinned.population.len(), 5);
        assert_eq!(thinned.steps, 50, "cadence thins audits, not steps");
        assert_eq!(
            (thinned.joins, thinned.leaves),
            (every_step.joins, every_step.leaves)
        );
    }

    #[test]
    fn violation_counting_api() {
        let mut sys = system(50, 0.0, 6);
        let mut report = BatchRun::new().run(&mut sys, &mut QuietBatches, 0, 0);
        assert!(report.clean());
        for step in [1, 2] {
            report.violations.push(Violation {
                step,
                kind: ViolationKind::SizeBounds,
                cluster: None,
            });
        }
        assert!(!report.clean());
        assert_eq!(report.count(ViolationKind::SizeBounds), 2);
        assert_eq!(report.count(ViolationKind::Forgeable), 0);
    }
}
