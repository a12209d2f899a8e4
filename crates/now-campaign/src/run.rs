//! The phase-switching campaign runner.
//!
//! Each phase compiles to a batched driver plus a stop predicate, and
//! runs through a [`now_sim::BatchRun`] — the one step loop — against
//! the *same* [`NowSystem`], so later regimes inherit the state earlier
//! ones produced. Per-phase driver streams derive deterministically from
//! the campaign's master seed, so a campaign is a single reproducible
//! run whatever the phase mix — including `exec event` phases, whose
//! network schedules replay from the same seeds.

use crate::model::{Campaign, PhaseExec, PhaseStyle, Trigger};
use crate::report::{CampaignReport, PhaseReport};
use now_adversary::{
    BatchBurstChurn, BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing,
    BatchSplitForcing, QuietBatches,
};
use now_core::{ExecConfig, NowError, NowParams, NowSystem};
use now_sim::{BatchRandomChurn, BatchRun, BatchRunReport, BatchSawtooth, ViolationKind};
use std::ops::Range;

/// A phase's compiled stop condition (evaluated before the first step
/// and after every step, audited or not).
type StopFn = Box<dyn FnMut(&NowSystem, &BatchRunReport) -> bool>;

impl Campaign {
    /// The system parameters this campaign builds with.
    ///
    /// # Errors
    /// [`NowError::BadParams`] for invalid parameter combinations.
    pub(crate) fn build_params(&self) -> Result<NowParams, NowError> {
        Ok(
            NowParams::new(self.capacity, self.k, self.l, self.tau, self.epsilon)?
                .with_shuffle(self.shuffle)
                .with_cascade(self.cascade),
        )
    }

    /// Builds the campaign's initial system (shared by
    /// [`Campaign::execute`] and callers that want to pre-process the system — e.g. install a
    /// strategic [`now_core::Malice`] — before [`Campaign::run_on`]).
    ///
    /// # Errors
    /// [`NowError::BadParams`] for invalid parameters.
    pub fn build_system(&self) -> Result<NowSystem, NowError> {
        let params = self.build_params()?;
        let n0 = if self.initial_population > 0 {
            self.initial_population
        } else {
            10 * params.target_cluster_size()
        };
        Ok(NowSystem::init_fast(params, n0, self.tau, self.seed))
    }

    /// Builds the system and runs every phase in order, returning the
    /// per-phase report together with the final system.
    ///
    /// # Errors
    /// [`NowError::CampaignReport`] for shape defects
    /// ([`Campaign::check`]), [`NowError::BadParams`] for invalid
    /// parameters.
    pub fn execute(&self) -> Result<(CampaignReport, NowSystem), NowError> {
        self.check()?;
        let mut sys = self.build_system()?;
        let report = self.run_on(&mut sys)?;
        Ok((report, sys))
    }

    /// [`Campaign::execute`], which runs on no worker pool: `_threads`
    /// is ignored. Kept, with the rest of the retired pool's names (see
    /// now-core's `compat.rs`), for the frozen step-anatomy benchmark.
    ///
    /// # Errors
    /// As [`Campaign::execute`].
    #[doc(hidden)]
    pub fn run(&self, _threads: usize) -> Result<(CampaignReport, NowSystem), NowError> {
        self.execute()
    }

    /// Runs every phase in order on a caller-built system (see
    /// [`Campaign::build_system`]).
    ///
    /// # Errors
    /// As [`Campaign::execute`].
    pub fn run_on(&self, sys: &mut NowSystem) -> Result<CampaignReport, NowError> {
        let phases = self.run_phases_on(sys, 0..self.phases.len())?;
        Ok(self.report(sys, phases))
    }

    /// The report of this campaign's `phases` as run on `sys`: its name,
    /// seed and `sys`'s security mode, with `sys`'s trace and metrics
    /// as they stand.
    pub fn report(&self, sys: &NowSystem, phases: Vec<PhaseReport>) -> CampaignReport {
        CampaignReport {
            campaign: self.name.clone(),
            seed: self.seed,
            security: sys.params().security(),
            phases,
            trace: sys.flight_recorder().map(|r| r.json()),
            metrics: sys.metrics().map(|m| m.json()),
        }
    }

    /// Runs the phases whose indices fall in `range`, in order, on
    /// `sys`, each on its own stream, and returns their reports. Phase
    /// `i` draws from the same stream whichever range runs it, so a
    /// campaign split into consecutive ranges (on one system, or on a
    /// [`NowSystem::fork`] between them) replays [`Campaign::run_on`].
    ///
    /// # Errors
    /// As [`Campaign::execute`].
    pub fn run_phases_on(
        &self,
        sys: &mut NowSystem,
        range: Range<usize>,
    ) -> Result<Vec<PhaseReport>, NowError> {
        self.check()?;
        let mut phases = Vec::with_capacity(range.len());
        // Campaign-scoped observability: the `trace` / `metrics`
        // header directives arm the system's sinks before the first
        // phase. Sinks a caller already armed on a prebuilt system are
        // left untouched (their history is preserved and captured in
        // the final report either way).
        if let Some(cap) = self.trace {
            if sys.flight_recorder().is_none() {
                sys.enable_tracing(cap);
            }
        }
        if self.metrics && sys.metrics().is_none() {
            sys.enable_metrics();
        }

        for (i, phase) in self
            .phases
            .iter()
            .enumerate()
            .take(range.end)
            .skip(range.start)
        {
            let width = phase.width.unwrap_or(self.width);
            let tau = phase.tau.unwrap_or(self.tau);
            let mut driver: Box<dyn BatchDriver> = match phase.style {
                PhaseStyle::Quiet => Box::new(QuietBatches),
                PhaseStyle::Balanced => Box::new(BatchRandomChurn::balanced(width, tau)),
                PhaseStyle::Sawtooth { low, high } => {
                    Box::new(BatchSawtooth::new(low, high, width, tau))
                }
                PhaseStyle::JoinLeave => {
                    Box::new(BatchJoinLeave::new(width, tau).with_pick(phase.target))
                }
                PhaseStyle::ForcedLeave => {
                    Box::new(BatchForcedLeave::new(width, tau).with_pick(phase.target))
                }
                PhaseStyle::SplitForcing => {
                    Box::new(BatchSplitForcing::new(width, tau).with_pick(phase.target))
                }
                PhaseStyle::MergeForcing => {
                    Box::new(BatchMergeForcing::new(width, tau).with_pick(phase.target))
                }
                PhaseStyle::BurstChurn => Box::new(BatchBurstChurn::new(width, tau)),
            };
            let exec = match phase.exec {
                PhaseExec::Canonical => ExecConfig::Canonical,
                PhaseExec::Event(net) => ExecConfig::event(net),
            };
            // Per-phase substream: a splitmix-style mix of the master
            // seed and the phase index, so reordering or editing one
            // phase cannot silently reuse another phase's stream.
            let phase_seed = self
                .seed
                .wrapping_add((i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));

            // The trigger's condition, compiled once: the runner stops
            // on it, and `fired` records whether it ever held (vs the
            // step cap running out). A `steps` trigger fires by
            // definition when its count elapses.
            let mut condition: StopFn = match phase.trigger {
                Trigger::Steps(_) => Box::new(|_, _| false),
                Trigger::PopulationAbove { target, .. } => {
                    Box::new(move |s, _| s.population() >= target)
                }
                Trigger::PopulationBelow { target, .. } => {
                    Box::new(move |s, _| s.population() <= target)
                }
                // Checked after every step, so the newest audit is the
                // only one that can hold the first binding violation.
                Trigger::FirstViolation { .. } => Box::new(|_, r| {
                    r.audits.last().is_some_and(|a| {
                        ViolationKind::ALL
                            .iter()
                            .any(|k| k.binds_in(a.security) && k.fails(a))
                    })
                }),
            };
            let fired = std::cell::Cell::new(false);

            let pop_start = sys.population();
            let ledger_before = sys.ledger().total();
            let run = BatchRun::new()
                .exec(exec)
                .until(|s, rep| {
                    let hit = condition(s, rep);
                    if hit {
                        fired.set(true);
                    }
                    hit
                })
                .run(sys, driver.as_mut(), phase.trigger.max_steps(), phase_seed);
            let ledger_after = sys.ledger().total();
            phases.push(PhaseReport {
                name: phase.name.clone(),
                style: phase.style.name().to_string(),
                trigger_fired: matches!(phase.trigger, Trigger::Steps(_)) || fired.get(),
                pop_start,
                messages: ledger_after.messages - ledger_before.messages,
                rounds: ledger_after.rounds - ledger_before.rounds,
                run,
            });
        }
        Ok(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Phase;

    fn base() -> Campaign {
        Campaign::new("test", 1 << 10)
    }

    #[test]
    fn phases_run_in_order_on_one_system() {
        let c = base()
            .phase(Phase::new("grow", PhaseStyle::SplitForcing, Trigger::Steps(10)).width(6))
            .phase(Phase::new("calm", PhaseStyle::Quiet, Trigger::Steps(5)))
            .phase(Phase::new("churn", PhaseStyle::Balanced, Trigger::Steps(8)));
        let (report, sys) = c.execute().unwrap();
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.total_steps(), 23);
        assert_eq!(sys.time_step(), 23, "one time step per batch");
        // Quiet phase changed nothing.
        let calm = &report.phases[1];
        assert_eq!(calm.run.joins + calm.run.leaves, 0);
        assert_eq!(calm.pop_start, calm.run.final_audit.population);
        // The flood grew the population before the quiet phase.
        let flood = &report.phases[0].run;
        assert_eq!(flood.final_audit.population, calm.pop_start);
        assert!(flood.joins == 60, "6-wide × 10 steps of flood");
        sys.check_consistency().unwrap();
    }

    #[test]
    fn population_trigger_stops_early_and_reports_firing() {
        let c = base().initial_population_of(120).phase(
            Phase::new(
                "grow",
                PhaseStyle::SplitForcing,
                Trigger::PopulationAbove {
                    target: 150,
                    cap: 500,
                },
            )
            .width(5),
        );
        let (report, sys) = c.execute().unwrap();
        let p = &report.phases[0];
        assert!(p.trigger_fired, "threshold is reachable");
        assert!(p.run.steps < 500, "stopped well before the cap");
        assert!(sys.population() >= 150);
        // 5 joins per step: fired on the first step at or past 150.
        assert!(sys.population() < 160);
    }

    #[test]
    fn entry_satisfied_trigger_runs_zero_steps() {
        // Regression: a phase whose condition already holds when it
        // begins must not execute a single adversarial batch.
        let c = base()
            .initial_population_of(200)
            .phase(Phase::new(
                "already-there",
                PhaseStyle::SplitForcing,
                Trigger::PopulationAbove {
                    target: 150,
                    cap: 50,
                },
            ))
            .phase(Phase::new("after", PhaseStyle::Quiet, Trigger::Steps(2)));
        let (report, sys) = c.execute().unwrap();
        let p = &report.phases[0];
        assert!(p.trigger_fired);
        assert_eq!(p.run.steps, 0, "goal already met: no batch may run");
        assert_eq!(p.run.joins + p.run.leaves, 0);
        assert_eq!(p.pop_start, p.run.final_audit.population);
        assert_eq!(sys.population(), 200);
        assert_eq!(report.phases[1].run.steps, 2, "later phases still run");
    }

    #[test]
    fn capped_trigger_reports_not_fired() {
        let c = base().initial_population_of(120).phase(Phase::new(
            "hopeless",
            PhaseStyle::Quiet,
            Trigger::PopulationAbove {
                target: 10_000,
                cap: 4,
            },
        ));
        let (report, _) = c.execute().unwrap();
        let p = &report.phases[0];
        assert!(!p.trigger_fired);
        assert_eq!(p.run.steps, 4, "ran to the cap");
    }

    #[test]
    fn campaign_runs_are_deterministic() {
        let c = Campaign::parse(
            "campaign test\ninitial-population 160\n\
             phase warm\nstyle balanced\nsteps 6\n\
             phase flood\nstyle join-leave\nwidth 6\ntau 0.2\nsteps 6\n\
             phase dos\nstyle forced-leave\ntarget first\nsteps 6\n",
        )
        .unwrap();
        let (r1, s1) = c.execute().unwrap();
        let (r4, s4) = c.execute().unwrap();
        assert_eq!(r1.to_json(), r4.to_json(), "byte-identical replay");
        assert_eq!(s1.population(), s4.population());
        assert_eq!(s1.node_ids(), s4.node_ids());
        s1.check_consistency().unwrap();
    }

    #[test]
    fn run_ignores_its_thread_count() {
        let c = base()
            .initial_population_of(150)
            .phase(Phase::new("warm", PhaseStyle::Balanced, Trigger::Steps(4)))
            .phase(Phase::new("more", PhaseStyle::Balanced, Trigger::Steps(3)));
        let (r0, s0) = c.run(0).unwrap();
        let (r4, s4) = c.run(4).unwrap();
        let (r, s) = c.execute().unwrap();
        assert_eq!(r0.to_json(), r.to_json());
        assert_eq!(r4.to_json(), r.to_json());
        assert_eq!(s0.node_ids(), s.node_ids());
        assert_eq!(s4.node_ids(), s.node_ids());
    }

    #[test]
    fn run_on_lets_callers_prebuild_the_system() {
        let c = base().initial_population_of(130).phase(Phase::new(
            "churn",
            PhaseStyle::Balanced,
            Trigger::Steps(5),
        ));
        let mut sys = c.build_system().unwrap();
        let direct = c.run_on(&mut sys).unwrap();
        let (viarun, _) = c.execute().unwrap();
        assert_eq!(direct.to_json(), viarun.to_json());
    }

    #[test]
    fn phase_ranges_replay_the_whole_run() {
        let c = base()
            .initial_population_of(140)
            .phase(Phase::new("a", PhaseStyle::Balanced, Trigger::Steps(4)))
            .phase(Phase::new("b", PhaseStyle::Balanced, Trigger::Steps(4)).width(5))
            .phase(Phase::new("c", PhaseStyle::Balanced, Trigger::Steps(3)));
        let (whole, end) = c.execute().unwrap();
        let mut sys = c.build_system().unwrap();
        let mut phases = c.run_phases_on(&mut sys, 0..1).unwrap();
        phases.extend(c.run_phases_on(&mut sys, 1..3).unwrap());
        let split = CampaignReport {
            phases,
            ..whole.clone()
        };
        assert_eq!(split.to_json(), whole.to_json());
        assert_eq!(sys.node_ids(), end.node_ids());
    }

    #[test]
    fn ledger_and_wave_stats_are_per_phase() {
        let c = base()
            .initial_population_of(150)
            .phase(Phase::new("a", PhaseStyle::Balanced, Trigger::Steps(6)).width(5))
            .phase(Phase::new("b", PhaseStyle::Quiet, Trigger::Steps(4)));
        let (report, _) = c.execute().unwrap();
        let a = &report.phases[0];
        let b = &report.phases[1];
        assert!(a.messages > 0);
        assert!(a.run.waves > 0);
        assert_eq!(b.messages, 0, "quiet spends nothing");
        assert_eq!(b.run.waves, 0);
        assert_eq!(report.total_messages(), a.messages);
    }

    #[test]
    fn event_phases_run_and_replay() {
        let c = Campaign::parse(
            "campaign test\ninitial-population 160\n\
             phase warm\nstyle balanced\nsteps 5\n\
             phase storm\nstyle balanced\nwidth 6\nexec event\nlatency 2\njitter 4\n\
             drop 0.3\npartition 2 heal 20\nsteps 8\n\
             phase calm\nstyle quiet\nsteps 3\n",
        )
        .unwrap();
        let (r1, s1) = c.execute().unwrap();
        let (r4, s4) = c.execute().unwrap();
        assert_eq!(r1.to_json(), r4.to_json(), "byte-identical replay");
        assert_eq!(s1.node_ids(), s4.node_ids());
        let storm = &r1.phases[1].run;
        assert_eq!(storm.steps, 8);
        assert!(storm.dropped > 0, "30% loss over 8 steps must drop joins");
        assert_eq!(r1.phases[0].run.dropped, 0, "canonical phases never drop");
        assert!(r1.to_json().contains("\"dropped\":"));
        s1.check_consistency().unwrap();
    }

    #[test]
    fn saturated_latency_event_phase_runs_in_send_order() {
        // The parser takes any u64 latency. At u64::MAX plus jitter,
        // every delivery saturates to the end of virtual time instead of
        // overflowing (or wrapping to an early delivery), so the phase
        // executes its ops in send order: what the ideal network runs.
        let text = |knobs: &str| {
            format!(
                "campaign x\ninitial-population 150\nphase storm\nstyle balanced\n\
                 width 6\nexec event\n{knobs}steps 6\n"
            )
        };
        let saturated = text("latency 18446744073709551615\njitter 1\n");
        let (far, far_sys) = Campaign::parse(&saturated).unwrap().execute().unwrap();
        let (ideal, ideal_sys) = Campaign::parse(&text("")).unwrap().execute().unwrap();
        let (f, i) = (&far.phases[0], &ideal.phases[0]);
        assert_eq!(f.run.dropped, 0, "a latency cuts nothing");
        let outcome = |p: &PhaseReport| {
            let r = &p.run;
            let pop_end = r.final_audit.population;
            (r.joins, r.leaves, r.waves, p.messages, p.rounds, pop_end)
        };
        assert_eq!(outcome(f), outcome(i));
        assert!(f.run.joins + f.run.leaves > 0);
        assert_eq!(far_sys.node_ids(), ideal_sys.node_ids());
        far_sys.check_consistency().unwrap();
    }

    #[test]
    fn traced_campaigns_replay_byte_identically() {
        let c = Campaign::parse(
            "campaign test\ninitial-population 160\ntrace 256\nmetrics on\n\
             phase warm\nstyle balanced\nsteps 5\n\
             phase storm\nstyle balanced\nwidth 6\nexec event\nlatency 1\ndrop 0.2\nsteps 6\n",
        )
        .unwrap();
        let (r1, _) = c.execute().unwrap();
        let (r4, _) = c.execute().unwrap();
        assert_eq!(
            r1.to_json(),
            r4.to_json(),
            "trace + metrics byte-identical on replay"
        );
        let trace = r1
            .trace
            .as_ref()
            .expect("trace directive arms recorder")
            .render();
        assert!(trace.contains("\"kind\": \"wave\""));
        let metrics = r1
            .metrics
            .as_ref()
            .expect("metrics directive arms registry")
            .render();
        assert!(metrics.contains("now_steps_total"));
        assert!(metrics.contains("now_net_sent_total"));
        // Message conservation holds per phase, and only event phases
        // route through the network.
        for p in &r1.phases {
            let r = &p.run;
            assert_eq!(r.sent, r.delivered + r.dropped, "phase {}", p.name);
        }
        assert_eq!(
            r1.phases[0].run.sent, 0,
            "canonical phases never touch the net"
        );
        assert!(r1.phases[1].run.sent > 0);
        // The deterministic artifact must not leak run-environment data.
        for banned in ["wall", "nanos", "thread"] {
            assert!(!r1.to_json().contains(banned), "{banned} leaked");
        }
    }

    #[test]
    fn traced_violation_campaign_captures_a_dump() {
        let c = Campaign::parse(
            "campaign test\ntau 0.30\ninitial-population 100\ntrace 512\nmetrics on\n\
             phase probe\nstyle split-forcing\nuntil-violation cap 200\n",
        )
        .unwrap();
        let (report, sys) = c.execute().unwrap();
        assert!(report.phases[0].trigger_fired);
        let rec = sys.flight_recorder().expect("recorder armed");
        let dump = rec.dump().expect("first violation captured a dump");
        assert!(!dump.events.is_empty(), "dump holds the causal window");
        assert!(report
            .trace
            .as_ref()
            .unwrap()
            .render()
            .contains("\"dump\": {"));
        assert!(report
            .metrics
            .as_ref()
            .unwrap()
            .render()
            .contains("now_violations_total"));
        // The sinks agree with the report: one increment per failing
        // (audit, kind), and the dump is the first of them.
        let counted: usize = report
            .phases
            .iter()
            .flat_map(|p| ViolationKind::ALL.map(|kind| p.run.count(kind)))
            .sum();
        let registry = sys.metrics().expect("registry armed");
        assert_eq!(registry.counter("now_violations_total"), counted as u64);
        let (audit, kind) = report.phases[0]
            .run
            .audits
            .iter()
            .find_map(|a| {
                ViolationKind::ALL
                    .into_iter()
                    .find(|k| k.fails(a))
                    .map(|k| (a, k))
            })
            .expect("the probe phase saw a violation");
        let cluster = match kind {
            ViolationKind::SizeBounds => None,
            _ => audit.worst_cluster.map(|c| c.raw()),
        };
        assert_eq!(
            (dump.step, dump.kind, dump.cluster),
            (audit.time_step, kind.name(), cluster)
        );
    }

    #[test]
    fn violation_trigger_is_honored() {
        // τ = 0.3 at k = 2 trips the 1/3 threshold fast.
        let mut c = base().initial_population_of(100).phase(Phase::new(
            "probe",
            PhaseStyle::SplitForcing,
            Trigger::FirstViolation { cap: 200 },
        ));
        c.tau = 0.30;
        let (report, _) = c.execute().unwrap();
        let p = &report.phases[0];
        assert!(p.trigger_fired, "τ = 0.3 must violate quickly");
        assert!(p.run.steps < 200);
        assert!(p.run.binding_violations() > 0);
    }

    #[test]
    fn defective_campaigns_are_typed_errors() {
        let empty = base();
        assert!(matches!(
            empty.execute(),
            Err(NowError::CampaignReport { .. })
        ));
        let mut bad_params = base().phase(Phase::new("a", PhaseStyle::Quiet, Trigger::Steps(1)));
        bad_params.tau = 0.45; // over the plain-mode bound
        assert!(matches!(
            bad_params.execute(),
            Err(NowError::BadParams { .. })
        ));
    }

    impl Campaign {
        /// Test shorthand.
        fn initial_population_of(mut self, n0: usize) -> Self {
            self.initial_population = n0;
            self
        }
    }
}
