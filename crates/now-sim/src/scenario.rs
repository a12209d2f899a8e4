//! One-call scenario builder: the ergonomic front door for experiments.
//!
//! A [`Scenario`] bundles everything a run needs — capacity, security
//! parameter, corruption rate, churn style, length, seed — builds the
//! system, runs it, and returns the [`RunReport`] together with the
//! final system for inspection. Every experiment binary and several
//! integration tests are expressible as one `Scenario` call.

use crate::batch_run::{BatchDriver, BatchRandomChurn, BatchRun, BatchRunReport};
use crate::churn::{BatchSawtooth, Sawtooth};
use crate::runner::{run, RunConfig, RunReport};
use now_adversary::{
    Adversary, BatchBurstChurn, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing,
    BatchSplitForcing, BurstChurn, ClusterPick, ForcedLeaveAttack, JoinLeaveAttack, MergeForcing,
    Quiet, QuietBatches, RandomChurn, SplitForcing,
};
use now_core::{NowError, NowParams, NowSystem};

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
    /// of initial nodes, balanced churn, 100 steps, seed 0).
    pub fn new(capacity: u64) -> Self {
        Scenario {
            capacity,
            k: 2,
            l: 1.5,
            tau: 0.10,
            epsilon: 0.05,
            initial_population: 0, // resolved at run time from k
            churn: ChurnStyle::Balanced,
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

    /// Sets the number of time steps.
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Sets the audit cadence.
    pub fn audit_every(mut self, every: u64) -> Self {
        self.audit_every = every.max(1);
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

    /// Builds the scenario's system (shared by the serial and batched
    /// run paths, so parameter plumbing cannot diverge between them).
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

    /// Builds the system, runs the churn, returns report + system.
    ///
    /// # Errors
    /// Propagates [`NowError::BadParams`] for invalid parameters.
    pub fn run(self) -> Result<(RunReport, NowSystem), NowError> {
        let mut sys = self.build_system()?;
        let config = RunConfig {
            steps: self.steps,
            audit_every: self.audit_every,
            seed: self.seed.wrapping_add(1),
        };
        let report = match self.churn {
            ChurnStyle::Quiet => run(&mut sys, &mut Quiet, config),
            ChurnStyle::Balanced => run(&mut sys, &mut RandomChurn::balanced(self.tau), config),
            ChurnStyle::Sawtooth { low, high } => {
                run(&mut sys, &mut Sawtooth::new(low, high, self.tau), config)
            }
            ChurnStyle::JoinLeaveAttack => {
                // INVARIANT: LastCluster guard — index 0 always exists.
                let target = sys.cluster_ids()[0];
                let mut adv = JoinLeaveAttack::new(target, self.tau);
                run_boxed(&mut sys, &mut adv, config)
            }
            ChurnStyle::ForcedLeaveAttack => {
                // INVARIANT: LastCluster guard — index 0 always exists.
                let target = sys.cluster_ids()[0];
                let mut adv = ForcedLeaveAttack::new(target, self.tau);
                run_boxed(&mut sys, &mut adv, config)
            }
            ChurnStyle::SplitForcing => {
                // INVARIANT: LastCluster guard — index 0 always exists.
                let target = sys.cluster_ids()[0];
                let mut adv = SplitForcing::new(target, self.tau);
                run_boxed(&mut sys, &mut adv, config)
            }
            ChurnStyle::MergeForcing => {
                // INVARIANT: LastCluster guard — index 0 always exists.
                let target = sys.cluster_ids()[0];
                let mut adv = MergeForcing::new(target, self.tau);
                run_boxed(&mut sys, &mut adv, config)
            }
            ChurnStyle::Burst { burst } => {
                let mut adv = BurstChurn::new(burst, self.tau);
                run_boxed(&mut sys, &mut adv, config)
            }
        };
        Ok((report, sys))
    }
}

impl Scenario {
    /// Builds the system and runs the churn in **batched** mode, as
    /// configured by a [`BatchRun`] builder: each of the `steps` time
    /// steps executes a whole batch of [`BatchRun::width`] operations
    /// through the engine the builder selects
    /// ([`now_core::NowSystem::step_batch`]).
    ///
    /// Churn styles map to batch drivers: `Balanced` →
    /// [`BatchRandomChurn`], `Sawtooth` → [`BatchSawtooth`], `Quiet` →
    /// empty batches, `JoinLeaveAttack` → [`BatchJoinLeave`],
    /// `ForcedLeaveAttack` → [`BatchForcedLeave`], `SplitForcing` →
    /// [`BatchSplitForcing`], `MergeForcing` → [`BatchMergeForcing`]
    /// (the attack drivers target the first cluster, mirroring the
    /// serial scenario path), `Burst` → [`BatchBurstChurn`] (each step
    /// is one whole burst; the serial `burst` length is subsumed by the
    /// batch width).
    ///
    /// # Errors
    /// [`NowError::BadParams`] for invalid parameters or a zero width.
    pub fn run_batch(self, run: BatchRun<'_>) -> Result<(BatchRunReport, NowSystem), NowError> {
        let width = run.batch_width();
        if width == 0 {
            return Err(NowError::BadParams {
                reason: "batch width must be positive".to_string(),
            });
        }
        let mut sys = self.build_system()?;
        let seed = self.seed.wrapping_add(1);
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
        let report = run.run(&mut sys, driver.as_mut(), self.steps, seed);
        Ok((report, sys))
    }
}

fn run_boxed(sys: &mut NowSystem, adv: &mut dyn Adversary, config: RunConfig) -> RunReport {
    run(sys, adv, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ViolationKind;

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
        assert_eq!(report.idles, 20);
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
            .run_batch(BatchRun::new().width(4))
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
            let (report, sys) = Scenario::new(1 << 10)
                .tau(0.1)
                .initial_population(160)
                .steps(8)
                .seed(6)
                .run_batch(
                    BatchRun::new()
                        .width(4)
                        .exec(crate::batch_run::BatchExec::Threaded(threads)),
                )
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
            .run_batch(BatchRun::new().width(3))
            .unwrap();
        assert_eq!(quiet.joins + quiet.leaves, 0);
        assert_eq!(sys.population(), 100);
        let (saw, _) = Scenario::new(1 << 10)
            .initial_population(80)
            .churn(ChurnStyle::Sawtooth { low: 60, high: 120 })
            .steps(40)
            .run_batch(BatchRun::new().width(4))
            .unwrap();
        assert!(saw.population.summary().max >= 115.0);
    }

    #[test]
    fn batched_scenario_rejects_bad_configs() {
        assert!(Scenario::new(1 << 10)
            .steps(1)
            .run_batch(BatchRun::new().width(0))
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
            .run_batch(BatchRun::new().width(6))
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
            .run_batch(BatchRun::new().width(4))
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
                .run_batch(BatchRun::new().width(4))
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
            .run_batch(BatchRun::new().width(6))
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
