//! One-call scenario builder: the ergonomic front door for experiments.
//!
//! A [`Scenario`] bundles everything a run needs — capacity, security
//! parameter, corruption rate, churn style, length, seed — builds the
//! system, runs it through the step loop ([`BatchRun`]), and returns
//! the [`BatchRunReport`] together with the final system for
//! inspection. Every experiment binary and several integration tests
//! are expressible as one `Scenario` call.

use crate::batch_run::{BatchDriver, BatchRandomChurn, BatchRun, BatchRunReport};
use crate::churn::BatchSawtooth;
use now_adversary::{
    BatchBurstChurn, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing, BatchSplitForcing,
    BurstChurn, ClusterPick, ForcedLeaveAttack, JoinLeaveAttack, MergeForcing, QuietBatches,
    SplitForcing,
};
use now_core::{ExecConfig, NowError, NowParams, NowSystem};

/// Which churn driver a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnStyle {
    /// No churn (control runs).
    Quiet,
    /// Balanced random joins/leaves.
    Balanced,
    /// Population sawtooth between the two bounds.
    Sawtooth {
        /// Lower turning point.
        low: u64,
        /// Upper turning point.
        high: u64,
    },
    /// §3.3 join–leave attack on the first cluster.
    JoinLeaveAttack,
    /// DoS forced-leave attack on the first cluster.
    ForcedLeaveAttack,
    /// Flood the first cluster with arrivals to force repeated splits.
    SplitForcing,
    /// Drain the first cluster to force repeated merges.
    MergeForcing,
    /// Alternating join/leave bursts of the given length.
    Burst {
        /// Operations per burst.
        burst: u64,
    },
}

/// A declarative experiment configuration.
///
/// # Example
/// ```
/// use now_sim::{Scenario, ChurnStyle};
///
/// let (report, sys) = Scenario::new(1 << 10)
///     .k(3)
///     .tau(0.10)
///     .initial_population(150)
///     .churn(ChurnStyle::Balanced)
///     .steps(40)
///     .seed(7)
///     .run()?;
/// assert_eq!(report.steps, 40);
/// assert!(sys.check_consistency().is_ok());
/// # Ok::<(), now_core::NowError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scenario {
    capacity: u64,
    k: usize,
    l: f64,
    tau: f64,
    epsilon: f64,
    initial_population: usize,
    churn: ChurnStyle,
    width: usize,
    steps: u64,
    audit_every: u64,
    seed: u64,
    shuffle: bool,
    authenticated: bool,
    exchange_cap: Option<usize>,
}

impl Scenario {
    /// A scenario for capacity `N` with the standard defaults
    /// (`k = 2`, `l = 1.5`, `τ = 0.10`, `ε = 0.05`, 10 clusters' worth
    /// of initial nodes, balanced churn, batch width 4, 100 steps,
    /// audited every step, seed 0).
    pub fn new(capacity: u64) -> Self {
        Scenario {
            capacity,
            k: 2,
            l: 1.5,
            tau: 0.10,
            epsilon: 0.05,
            initial_population: 0, // resolved at run time from k
            churn: ChurnStyle::Balanced,
            width: 4,
            steps: 100,
            audit_every: 1,
            seed: 0,
            shuffle: true,
            authenticated: false,
            exchange_cap: None,
        }
    }

    /// Sets the security parameter `k`.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the band constant `l`.
    pub fn l(mut self, l: f64) -> Self {
        self.l = l;
        self
    }

    /// Sets the corruption rate (both the parameter bound and the churn
    /// driver's budget).
    pub fn tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the initial population (default: 10 clusters' worth).
    pub fn initial_population(mut self, n0: usize) -> Self {
        self.initial_population = n0;
        self
    }

    /// Sets the churn style.
    pub fn churn(mut self, churn: ChurnStyle) -> Self {
        self.churn = churn;
        self
    }

    /// Sets the batch width: operations per step of
    /// [`Scenario::run_batch`] ([`Scenario::run`] is the paper's
    /// one-operation-per-step model and ignores it).
    pub fn width(mut self, width: usize) -> Self {
        self.width = width;
        self
    }

    /// Sets the number of time steps.
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the audit cadence ([`BatchRun::audit_every`]).
    pub fn audit_every(mut self, every: u64) -> Self {
        self.audit_every = every;
        self
    }

    /// Sets the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disables exchange shuffling (the §3.3 baseline ablation).
    pub fn without_shuffle(mut self) -> Self {
        self.shuffle = false;
        self
    }

    /// Runs in Remark 1's crypto-hardened mode
    /// ([`now_core::SecurityMode::Authenticated`]): τ may range up to
    /// `1/2 − ε` and the binding invariant is honest *majority*.
    pub fn authenticated(mut self) -> Self {
        self.authenticated = true;
        self
    }

    /// Caps the shuffle volume of each `exchange` invocation (the
    /// Lemma 2–3 ablation; `None` = the paper's full exchange).
    pub fn exchange_cap(mut self, cap: Option<usize>) -> Self {
        self.exchange_cap = cap;
        self
    }

    /// Builds the scenario's system.
    fn build_system(&self) -> Result<NowSystem, NowError> {
        let params = if self.authenticated {
            NowParams::new_authenticated(self.capacity, self.k, self.l, self.tau, self.epsilon)?
        } else {
            NowParams::new(self.capacity, self.k, self.l, self.tau, self.epsilon)?
        }
        .with_shuffle(self.shuffle)
        .with_exchange_cap(self.exchange_cap);
        let n0 = if self.initial_population > 0 {
            self.initial_population
        } else {
            10 * params.target_cluster_size()
        };
        Ok(NowSystem::init_fast(params, n0, self.tau, self.seed))
    }

    /// The one place a scenario meets the step loop.
    fn drive(
        &self,
        mut sys: NowSystem,
        driver: &mut dyn BatchDriver,
        exec: ExecConfig<'_>,
    ) -> (BatchRunReport, NowSystem) {
        let report = BatchRun::new()
            .exec(exec)
            .audit_every(self.audit_every)
            .run(&mut sys, driver, self.steps, self.seed.wrapping_add(1));
        (report, sys)
    }

    /// Builds the system and runs the churn under the paper's model —
    /// at most one join or leave per time step, on
    /// [`ExecConfig::Serial`] — returning report + system. The attack
    /// styles target the first cluster.
    ///
    /// # Errors
    /// Propagates [`NowError::BadParams`] for invalid parameters.
    pub fn run(self) -> Result<(BatchRunReport, NowSystem), NowError> {
        let sys = self.build_system()?;
        // INVARIANT: LastCluster guard — index 0 always exists.
        let target = sys.cluster_ids()[0];
        let mut driver: Box<dyn BatchDriver> = match self.churn {
            ChurnStyle::Quiet => Box::new(QuietBatches),
            ChurnStyle::Balanced => Box::new(BatchRandomChurn::balanced(1, self.tau)),
            ChurnStyle::Sawtooth { low, high } => {
                Box::new(BatchSawtooth::new(low, high, 1, self.tau))
            }
            ChurnStyle::JoinLeaveAttack => Box::new(JoinLeaveAttack::new(target, self.tau)),
            ChurnStyle::ForcedLeaveAttack => Box::new(ForcedLeaveAttack::new(target, self.tau)),
            ChurnStyle::SplitForcing => Box::new(SplitForcing::new(target, self.tau)),
            ChurnStyle::MergeForcing => Box::new(MergeForcing::new(target, self.tau)),
            ChurnStyle::Burst { burst } => Box::new(BurstChurn::new(burst, self.tau)),
        };
        Ok(self.drive(sys, driver.as_mut(), ExecConfig::serial()))
    }

    /// Builds the system and runs the churn in **batched** mode: each
    /// of the `steps` time steps executes a whole batch of
    /// [`Scenario::width`] operations on the engine `exec` names
    /// ([`now_core::NowSystem::step_batch`]).
    ///
    /// Churn styles map to batch drivers: `Balanced` →
    /// [`BatchRandomChurn`], `Sawtooth` → [`BatchSawtooth`], `Quiet` →
    /// empty batches, `JoinLeaveAttack` → [`BatchJoinLeave`],
    /// `ForcedLeaveAttack` → [`BatchForcedLeave`], `SplitForcing` →
    /// [`BatchSplitForcing`], `MergeForcing` → [`BatchMergeForcing`]
    /// (the attack drivers target the first cluster, like
    /// [`Scenario::run`]), `Burst` → [`BatchBurstChurn`] (each step is
    /// one whole burst; the per-step `burst` length is subsumed by the
    /// batch width).
    ///
    /// # Errors
    /// [`NowError::BadParams`] for invalid parameters or a zero width.
    pub fn run_batch(self, exec: ExecConfig<'_>) -> Result<(BatchRunReport, NowSystem), NowError> {
        let width = self.width;
        if width == 0 {
            return Err(NowError::BadParams {
                reason: "batch width must be positive".to_string(),
            });
        }
        let sys = self.build_system()?;
        let mut driver: Box<dyn BatchDriver> = match self.churn {
            ChurnStyle::Quiet => Box::new(QuietBatches),
            ChurnStyle::Balanced => Box::new(BatchRandomChurn::balanced(width, self.tau)),
            ChurnStyle::Sawtooth { low, high } => {
                Box::new(BatchSawtooth::new(low, high, width, self.tau))
            }
            ChurnStyle::JoinLeaveAttack => {
                Box::new(BatchJoinLeave::new(width, self.tau).with_pick(ClusterPick::First))
            }
            ChurnStyle::ForcedLeaveAttack => {
                Box::new(BatchForcedLeave::new(width, self.tau).with_pick(ClusterPick::First))
            }
            ChurnStyle::SplitForcing => {
                Box::new(BatchSplitForcing::new(width, self.tau).with_pick(ClusterPick::First))
            }
            ChurnStyle::MergeForcing => {
                Box::new(BatchMergeForcing::new(width, self.tau).with_pick(ClusterPick::First))
            }
            ChurnStyle::Burst { .. } => Box::new(BatchBurstChurn::new(width, self.tau)),
        };
        Ok(self.drive(sys, driver.as_mut(), exec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::violation::ViolationKind;

    #[test]
    fn default_scenario_runs_clean() {
        let (report, sys) = Scenario::new(1 << 10).steps(30).run().unwrap();
        assert_eq!(report.steps, 30);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn builder_settings_apply() {
        let (_, sys) = Scenario::new(1 << 10)
            .k(3)
            .l(2.0)
            .tau(0.2)
            .initial_population(90)
            .steps(5)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(sys.params().k(), 3);
        assert!((sys.params().l() - 2.0).abs() < 1e-12);
        // Population moved from 90 by ±5 churn steps at most.
        assert!(sys.population() >= 85 && sys.population() <= 95);
    }

    #[test]
    fn quiet_scenario_changes_nothing() {
        let (report, sys) = Scenario::new(1 << 10)
            .churn(ChurnStyle::Quiet)
            .initial_population(100)
            .steps(20)
            .run()
            .unwrap();
        assert_eq!(report.joins + report.leaves, 0);
        assert_eq!(sys.population(), 100);
    }

    #[test]
    fn sawtooth_scenario_moves_population() {
        let (report, _) = Scenario::new(1 << 10)
            .initial_population(80)
            .churn(ChurnStyle::Sawtooth { low: 60, high: 120 })
            .steps(150)
            .run()
            .unwrap();
        let pop = report.population.summary();
        assert!(pop.max >= 115.0);
    }

    #[test]
    fn attack_scenarios_run() {
        for style in [ChurnStyle::JoinLeaveAttack, ChurnStyle::ForcedLeaveAttack] {
            let (report, sys) = Scenario::new(1 << 10)
                .tau(0.15)
                .churn(style)
                .steps(40)
                .run()
                .unwrap();
            assert_eq!(report.steps, 40);
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn no_shuffle_ablation_flag_applies() {
        let (_, sys) = Scenario::new(1 << 10)
            .without_shuffle()
            .steps(5)
            .run()
            .unwrap();
        assert!(!sys.params().shuffle_enabled());
    }

    #[test]
    fn bad_params_propagate() {
        assert!(Scenario::new(1 << 10).tau(0.5).steps(1).run().is_err());
    }

    #[test]
    fn pressure_attack_scenarios_run() {
        for style in [
            ChurnStyle::SplitForcing,
            ChurnStyle::MergeForcing,
            ChurnStyle::Burst { burst: 5 },
        ] {
            let (report, sys) = Scenario::new(1 << 10)
                .tau(0.10)
                .churn(style)
                .steps(60)
                .seed(3)
                .run()
                .unwrap();
            assert_eq!(report.steps, 60, "{style:?}");
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn split_forcing_scenario_causes_splits() {
        let (_, sys) = Scenario::new(1 << 10)
            .tau(0.10)
            .churn(ChurnStyle::SplitForcing)
            .steps(100)
            .run()
            .unwrap();
        let (_, _, splits, _) = sys.op_counts();
        assert!(splits > 0);
    }

    #[test]
    fn authenticated_scenario_accepts_high_tau() {
        // τ = 0.35 would be rejected in plain mode (see
        // bad_params_propagate); authenticated mode sizes for it. At
        // this τ the plain 2/3-honest target is hopeless (mean Byzantine
        // share already exceeds 1/3), while the majority target only
        // trips on deep binomial tails — Lemma 1's k-dependence,
        // measured by experiment X-R1. Here we assert the qualitative
        // separation.
        let (report, sys) = Scenario::new(1 << 10)
            .k(8)
            .tau(0.35)
            .authenticated()
            .steps(60)
            .seed(11)
            .run()
            .unwrap();
        assert_eq!(
            sys.params().security(),
            now_core::SecurityMode::Authenticated
        );
        let two_thirds = report.count(ViolationKind::NotTwoThirdsHonest);
        let majority = report.count(ViolationKind::NotMajorityHonest);
        assert!(
            two_thirds > 40,
            "plain target should fail at most steps, failed {two_thirds}/60"
        );
        assert!(
            majority * 5 < two_thirds,
            "majority target should be far rarer: {majority} vs {two_thirds}"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn batched_scenario_runs_the_wave_scheduler() {
        let (report, sys) = Scenario::new(1 << 10)
            .tau(0.1)
            .initial_population(160)
            .steps(12)
            .seed(5)
            .width(4)
            .run_batch(ExecConfig::serial())
            .unwrap();
        assert_eq!(report.steps, 12);
        assert!(report.joins + report.leaves > 30, "4-wide × 12 steps");
        assert!(report.waves > 0);
        assert_eq!(sys.time_step(), 12, "one step per batch");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn batched_scenario_threaded_is_thread_count_invariant() {
        let go = |threads: usize| {
            let pool = now_core::WavePool::new(threads);
            let (report, sys) = Scenario::new(1 << 10)
                .tau(0.1)
                .initial_population(160)
                .steps(8)
                .seed(6)
                .width(4)
                .run_batch(ExecConfig::pooled(&pool))
                .unwrap();
            sys.check_consistency().unwrap();
            assert_eq!(report.threads, Some(threads.max(1)));
            (
                report.joins,
                report.leaves,
                report.rounds_parallel,
                report.wave_slack_rounds,
                sys.population(),
                sys.node_ids(),
            )
        };
        assert_eq!(go(1), go(4));
    }

    #[test]
    fn batched_scenario_quiet_and_sawtooth() {
        let (quiet, sys) = Scenario::new(1 << 10)
            .churn(ChurnStyle::Quiet)
            .initial_population(100)
            .steps(5)
            .audit_every(2)
            .width(3)
            .run_batch(ExecConfig::serial())
            .unwrap();
        assert_eq!(quiet.joins + quiet.leaves, 0);
        assert_eq!(quiet.population.len(), 3, "batched runs honour the cadence");
        assert_eq!(sys.population(), 100);
        let (saw, _) = Scenario::new(1 << 10)
            .initial_population(80)
            .churn(ChurnStyle::Sawtooth { low: 60, high: 120 })
            .steps(40)
            .width(4)
            .run_batch(ExecConfig::serial())
            .unwrap();
        assert!(saw.population.summary().max >= 115.0);
    }

    #[test]
    fn batched_scenario_rejects_bad_configs() {
        assert!(Scenario::new(1 << 10)
            .steps(1)
            .width(0)
            .run_batch(ExecConfig::serial())
            .is_err());
        assert!(Scenario::new(1 << 10).tau(0.5).steps(1).run().is_err());
    }

    #[test]
    fn merge_forcing_batches_cause_merges() {
        let (_, sys) = Scenario::new(1 << 10)
            .tau(0.10)
            .initial_population(200)
            .churn(ChurnStyle::MergeForcing)
            .steps(30)
            .seed(12)
            .width(6)
            .run_batch(ExecConfig::serial())
            .unwrap();
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "sustained batched draining must merge");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn burst_batches_hold_population_over_a_period() {
        let (report, sys) = Scenario::new(1 << 10)
            .tau(0.10)
            .initial_population(160)
            .churn(ChurnStyle::Burst { burst: 4 })
            .steps(20)
            .seed(13)
            .width(4)
            .run_batch(ExecConfig::serial())
            .unwrap();
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
    fn batched_attack_scenarios_run() {
        for style in [
            ChurnStyle::JoinLeaveAttack,
            ChurnStyle::ForcedLeaveAttack,
            ChurnStyle::SplitForcing,
            ChurnStyle::MergeForcing,
            ChurnStyle::Burst { burst: 4 },
        ] {
            let (report, sys) = Scenario::new(1 << 10)
                .tau(0.15)
                .initial_population(160)
                .churn(style)
                .steps(20)
                .seed(4)
                .width(4)
                .run_batch(ExecConfig::serial())
                .unwrap();
            assert_eq!(report.steps, 20, "{style:?}");
            assert!(
                report.joins + report.leaves > 0,
                "{style:?} produced no churn"
            );
            sys.check_consistency().unwrap();
        }
    }

    #[test]
    fn split_forcing_batches_cause_splits() {
        let (_, sys) = Scenario::new(1 << 10)
            .tau(0.10)
            .initial_population(160)
            .churn(ChurnStyle::SplitForcing)
            .steps(30)
            .seed(9)
            .width(6)
            .run_batch(ExecConfig::serial())
            .unwrap();
        let (_, _, splits, _) = sys.op_counts();
        assert!(splits > 0, "180 steered arrivals must split something");
    }

    #[test]
    fn exchange_cap_scenario_applies() {
        let (_, sys) = Scenario::new(1 << 10)
            .exchange_cap(Some(4))
            .steps(5)
            .run()
            .unwrap();
        assert_eq!(sys.params().exchange_cap(), Some(4));
    }
}
