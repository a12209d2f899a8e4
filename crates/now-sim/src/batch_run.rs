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
//! cluster-footprint disjointness — and reports the outcome: one
//! [`SystemAudit`] per audited step, read for violations and peaks,
//! plus the round-complexity advantage of the scheduled execution
//! (messages are identical; rounds shrink from the batch sum to the
//! per-wave maxima) and the wave-level metrics of the schedule.

use crate::violation::ViolationKind;
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
    /// One audit per audited step (see [`BatchRun::audit_every`]), in
    /// step order: the run's record of the paper's invariants, which
    /// the violation counts and the peak read.
    pub audits: Vec<SystemAudit>,
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

    /// True if no audit observed an invariant violation.
    pub fn clean(&self) -> bool {
        ViolationKind::ALL.iter().all(|&kind| self.count(kind) == 0)
    }

    /// Number of audited steps that observed a violation of `kind`.
    pub fn count(&self, kind: ViolationKind) -> usize {
        self.audits.iter().filter(|a| kind.fails(a)).count()
    }

    /// Highest worst-cluster Byzantine fraction any audit of the run
    /// observed (0 for a run without audited steps).
    pub fn peak_byz_fraction(&self) -> f64 {
        self.audits
            .iter()
            .map(|a| a.worst_byz_fraction)
            .fold(0.0, f64::max)
    }

    /// Violations binding for each audit's security mode (see
    /// [`ViolationKind::binds_in`]), summed over kinds and audits.
    pub fn binding_violations(&self) -> usize {
        ViolationKind::ALL
            .iter()
            .map(|&kind| {
                self.audits
                    .iter()
                    .filter(|a| kind.binds_in(a.security) && kind.fails(a))
                    .count()
            })
            .sum()
    }
}

/// Boxed stop predicate of a [`BatchRun`]: observes the system and the
/// report-so-far after each step, returning `true` to end the run.
type StopFn<'p> = Box<dyn FnMut(&NowSystem, &BatchRunReport) -> bool + 'p>;

/// The step loop, as a builder — **the** way to run churn.
///
/// A `BatchRun` describes *how* a run executes: the engine (an
/// [`ExecConfig`], default [`ExecConfig::Serial`]), an optional stop
/// predicate, and the audit cadence. The
/// *what* — system, driver, length, seed — is supplied at
/// [`BatchRun::run`] time.
///
/// Every step is one [`now_core::NowSystem::step_batch`] of whatever
/// the driver decided, so **time advances once per step** — also when
/// the batch is empty (a quiet step) or its only operation is refused
/// (counted in [`BatchRunReport::rejected`]) — and the time steps of
/// [`BatchRunReport::audits`] are strictly increasing.
///
/// # Example
/// ```
/// use now_sim::{BatchRandomChurn, BatchRun};
/// use now_core::{ExecConfig, NowParams, NowSystem};
///
/// let params = NowParams::for_capacity(1 << 10).unwrap();
/// let mut sys = NowSystem::init_fast(params, 200, 0.1, 1);
/// let mut driver = BatchRandomChurn::balanced(6, 0.1);
/// let report = BatchRun::new()
///     .exec(ExecConfig::Pooled)
///     .until(|_, r| r.steps >= 5)
///     .run(&mut sys, &mut driver, 20, 2);
/// assert_eq!(report.steps, 5);
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
    /// runs: only audited steps check the invariants and add an entry
    /// to [`BatchRunReport::audits`].
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
            audits: Vec::new(),
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

            if step % audit_every == 0 {
                let audit = sys.audit();
                for kind in ViolationKind::ALL {
                    if kind.fails(&audit) {
                        // A size-band breach has no one cluster to blame.
                        let cluster = match kind {
                            ViolationKind::SizeBounds => None,
                            _ => audit.worst_cluster,
                        };
                        sys.record_violation(kind.name(), cluster);
                    }
                }
                report.audits.push(audit);
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
    use now_core::{EventNetConfig, NowParams};

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
        let report = BatchRun::new()
            .exec(ExecConfig::Pooled)
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
            report
                .audits
                .iter()
                .find(|a| ViolationKind::ALL.iter().any(|k| k.fails(a)))
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

    /// `Pooled` runs the serial trajectory and prices it in fewer
    /// rounds: identical outcomes and state, a wider schedule.
    #[test]
    fn pooled_runs_the_serial_trajectory_in_fewer_rounds() {
        let go = |exec: ExecConfig<'_>| {
            let mut sys = sparse_system(23);
            let mut driver = BatchRandomChurn::balanced(7, 0.1);
            let r = BatchRun::new()
                .exec(exec)
                .run(&mut sys, &mut driver, 10, 24);
            sys.check_consistency().unwrap();
            let outcome = (
                r.joins,
                r.leaves,
                r.rejected,
                r.rounds_serial,
                sys.population(),
                sys.node_ids(),
            );
            (outcome, r)
        };
        let (serial, rs) = go(ExecConfig::Serial);
        let (pooled, rp) = go(ExecConfig::Pooled);
        assert_eq!(serial, pooled);
        assert_eq!(rs.max_wave_width, 1);
        assert!(rp.max_wave_width >= 2);
        assert!(rp.rounds_parallel < rs.rounds_parallel);
        assert!(rp.wall_nanos > 0, "executed batches take time");
        assert!(
            rp.wave_slack_rounds > 0,
            "sparse batches should price real concurrency"
        );
        // Slack is consistent with the serial-vs-parallel gap whenever
        // maintenance rounds are charged outside the waves.
        assert!(rp.wave_slack_rounds <= rp.rounds_serial - rp.rounds_parallel);
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
        assert!(report.dropped > 0, "30% loss over 15 steps must drop joins");
        sys.check_consistency().unwrap();

        // The same run again: identical outcomes.
        let mut again_sys = system(200, 0.1, 31);
        let mut again_driver = BatchRandomChurn::balanced(6, 0.1);
        let again = BatchRun::new().exec(ExecConfig::event(net)).run(
            &mut again_sys,
            &mut again_driver,
            15,
            32,
        );
        assert_eq!(again.dropped, report.dropped);
        assert_eq!(again.joins, report.joins);
        assert_eq!(again.leaves, report.leaves);
        assert_eq!(again_sys.node_ids(), sys.node_ids());
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
            report
                .audits
                .iter()
                .find(|a| ViolationKind::ALL.iter().any(|k| k.fails(a)))
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
    fn audit_cadence_thins_audits() {
        let go = |every: u64| {
            let mut sys = system(150, 0.1, 4);
            let mut adv = BatchRandomChurn::balanced(1, 0.1);
            BatchRun::new()
                .audit_every(every)
                .run(&mut sys, &mut adv, 50, 9)
        };
        let every_step = go(1);
        assert_eq!(every_step.audits.len(), 50);
        assert!(
            every_step
                .audits
                .windows(2)
                .all(|w| w[0].time_step < w[1].time_step),
            "time advances once per step"
        );
        let thinned = go(10);
        assert_eq!(thinned.audits.len(), 5);
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
        for time_step in [1, 2] {
            report.audits.push(SystemAudit {
                time_step,
                size_bounds_ok: false,
                ..report.final_audit
            });
        }
        assert!(!report.clean());
        assert_eq!(report.count(ViolationKind::SizeBounds), 2);
        assert_eq!(report.count(ViolationKind::Forgeable), 0);
    }
}
