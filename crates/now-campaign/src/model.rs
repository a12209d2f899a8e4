//! The campaign model: a system-level configuration plus an ordered
//! list of phases, each an adversarial regime with its own knobs and a
//! termination trigger.

use now_adversary::ClusterPick;
use now_core::{EventNetConfig, NowError};

/// When a phase hands over to the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Run exactly this many batched time steps.
    Steps(u64),
    /// Run until the population reaches `target` (or `cap` steps pass).
    PopulationAbove {
        /// Population to reach.
        target: u64,
        /// Step cap if the threshold is never reached.
        cap: u64,
    },
    /// Run until the population drops to `target` (or `cap` steps pass).
    PopulationBelow {
        /// Population to reach.
        target: u64,
        /// Step cap if the threshold is never reached.
        cap: u64,
    },
    /// Run until the first *binding* invariant violation for the
    /// system's security mode (or `cap` steps pass) — the "attack until
    /// something gives" probe.
    FirstViolation {
        /// Step cap if no violation ever occurs.
        cap: u64,
    },
}

impl Trigger {
    /// The most steps this trigger can let a phase run.
    pub fn max_steps(self) -> u64 {
        match self {
            Trigger::Steps(n) => n,
            Trigger::PopulationAbove { cap, .. }
            | Trigger::PopulationBelow { cap, .. }
            | Trigger::FirstViolation { cap } => cap,
        }
    }
}

/// Which adversarial regime a phase runs. Every style maps onto a
/// batched driver ([`now_adversary::BatchDriver`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseStyle {
    /// Empty batches (control / quiesce phases).
    Quiet,
    /// Balanced random joins/leaves ([`now_sim::BatchRandomChurn`]).
    Balanced,
    /// Population sawtooth between the bounds
    /// ([`now_sim::BatchSawtooth`]).
    Sawtooth {
        /// Lower turning point.
        low: u64,
        /// Upper turning point.
        high: u64,
    },
    /// §3.3 join–leave flood ([`now_adversary::BatchJoinLeave`]).
    JoinLeave,
    /// Forced-leave DoS ([`now_adversary::BatchForcedLeave`]).
    ForcedLeave,
    /// Split-forcing flood ([`now_adversary::BatchSplitForcing`]).
    SplitForcing,
    /// Merge pressure: drain a target cluster toward the floor
    /// ([`now_adversary::BatchMergeForcing`]).
    MergeForcing,
    /// Alternating whole-burst joins and leaves
    /// ([`now_adversary::BatchBurstChurn`]).
    BurstChurn,
}

impl PhaseStyle {
    /// Short name as written in campaign files.
    pub(crate) fn name(&self) -> &'static str {
        match self {
            PhaseStyle::Quiet => "quiet",
            PhaseStyle::Balanced => "balanced",
            PhaseStyle::Sawtooth { .. } => "sawtooth",
            PhaseStyle::JoinLeave => "join-leave",
            PhaseStyle::ForcedLeave => "forced-leave",
            PhaseStyle::SplitForcing => "split-forcing",
            PhaseStyle::MergeForcing => "merge-forcing",
            PhaseStyle::BurstChurn => "burst",
        }
    }
}

/// The parseable name of the [`now_core::ExecConfig`] a phase runs
/// on; each variant (and its `exec` keyword in the text format) is
/// named after the `ExecConfig` variant it selects.
///
/// Outcomes are deterministic in every case: `Canonical` runs one
/// trajectory per seed, and `Event` replays from the campaign seed and
/// the phase's network model alone. Either way the phase report carries
/// both prices, `rounds_serial` and `rounds_parallel`. Only `Event`
/// carries a network, so a network model on the canonical engine, which
/// would make the campaign lie about what ran, cannot be written down.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PhaseExec {
    /// The canonical order, priced one op at a time and in parallel
    /// waves ([`now_core::ExecConfig::Canonical`]).
    Canonical,
    /// The event-driven network runtime
    /// ([`now_core::ExecConfig::Event`]) on this per-link network
    /// model: each step's operations become messages on a seeded
    /// discrete-event network shaped by the phase's
    /// `latency`/`jitter`/`drop`/`partition` knobs, and the protocol
    /// reacts in delivery order.
    Event(EventNetConfig),
}

/// One phase of a campaign: a style, its knob overrides, and a trigger.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name (report key).
    pub name: String,
    /// The adversarial regime.
    pub style: PhaseStyle,
    /// Target-selection policy for targeted styles.
    pub target: ClusterPick,
    /// Batch width override (`None` = campaign default).
    pub width: Option<usize>,
    /// Driver corruption-budget override (`None` = campaign τ). Only
    /// the *driver's* budget changes; the system's parameter bound is
    /// fixed at build time.
    pub tau: Option<f64>,
    /// Execution engine for this phase, with its network model if it
    /// runs on the event runtime.
    pub exec: PhaseExec,
    /// Hand-over condition.
    pub trigger: Trigger,
}

impl Phase {
    /// A phase of the given style ending after `steps` steps, with the
    /// campaign's default width/τ, canonical execution, and (for
    /// targeted styles) the largest-cluster pick.
    pub fn new(name: impl Into<String>, style: PhaseStyle, trigger: Trigger) -> Self {
        Phase {
            name: name.into(),
            style,
            target: ClusterPick::Largest,
            width: None,
            tau: None,
            exec: PhaseExec::Canonical,
            trigger,
        }
    }

    /// Overrides the batch width.
    pub fn width(mut self, width: usize) -> Self {
        self.width = Some(width);
        self
    }

    /// Sets the target-selection policy for a targeted style.
    pub fn target(mut self, pick: ClusterPick) -> Self {
        self.target = pick;
        self
    }
}

/// A declarative multi-phase attack campaign.
///
/// System-level knobs size and seed one [`now_core::NowSystem`];
/// phases then run on the *same* system in order, so regime N + 1
/// inherits whatever state regime N left behind — the evaluation shape
/// of phased-adversary work (Dynamic Byzantine Reliable Broadcast,
/// mobile Byzantine faults) a single-driver run cannot express.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Campaign name (report key).
    pub name: String,
    /// Capacity parameter `N`.
    pub capacity: u64,
    /// Security parameter `k`.
    pub k: usize,
    /// Band constant `l`.
    pub l: f64,
    /// Corruption bound τ (parameters and default driver budget).
    pub tau: f64,
    /// Slack ε.
    pub epsilon: f64,
    /// Initial population (0 = 10 clusters' worth).
    pub initial_population: usize,
    /// Master seed: system init and per-phase driver streams derive
    /// from it.
    pub seed: u64,
    /// Default batch width for phases that do not override it.
    pub width: usize,
    /// Whether exchange shuffling is enabled (`false` = the §3.3
    /// baseline ablation).
    pub shuffle: bool,
    /// Whether a leave's receivers re-exchange all of their members
    /// (`false` = the cascade ablation; see
    /// [`now_core::NowParams::with_cascade`]).
    pub cascade: bool,
    /// Flight-recorder capacity: `Some(n)` enables the system's ring
    /// buffer of the last `n` protocol events before the first phase
    /// runs, and the report carries the trace (plus the first
    /// violation's causal-neighborhood dump, if any). `None` records
    /// nothing.
    pub trace: Option<usize>,
    /// Whether the metrics registry is enabled; the report then carries
    /// the canonical metrics JSON. Metrics are protocol outcomes only,
    /// so they are part of the byte-diffed determinism surface.
    pub metrics: bool,
    /// The phases, in execution order.
    pub phases: Vec<Phase>,
}

impl Campaign {
    /// A campaign with the standard scenario defaults (`k = 2`,
    /// `l = 1.5`, `τ = 0.10`, `ε = 0.05`, width 4, shuffling and the
    /// leave cascade on) and no
    /// phases yet.
    pub fn new(name: impl Into<String>, capacity: u64) -> Self {
        Campaign {
            name: name.into(),
            capacity,
            k: 2,
            l: 1.5,
            tau: 0.10,
            epsilon: 0.05,
            initial_population: 0,
            seed: 0,
            width: 4,
            shuffle: true,
            cascade: true,
            trace: None,
            metrics: false,
            phases: Vec::new(),
        }
    }

    /// Appends a phase.
    pub fn phase(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// Validates the campaign's shape (phase list, widths, triggers).
    /// Parameter validity (τ bounds etc.) is checked by
    /// [`now_core::NowParams`] at build time.
    ///
    /// # Errors
    /// [`NowError::CampaignReport`] naming the defect.
    pub fn check(&self) -> Result<(), NowError> {
        let fail = |reason: String| Err(NowError::CampaignReport { reason });
        if self.phases.is_empty() {
            return fail(format!("campaign `{}` has no phases", self.name));
        }
        if self.width == 0 {
            return fail("campaign batch width must be positive".into());
        }
        if self.trace == Some(0) {
            return fail("campaign trace capacity must be positive".into());
        }
        for p in &self.phases {
            if p.width == Some(0) {
                return fail(format!("phase `{}`: batch width must be positive", p.name));
            }
            if p.trigger.max_steps() == 0 {
                return fail(format!("phase `{}`: trigger allows zero steps", p.name));
            }
            if let PhaseStyle::Sawtooth { low, high } = p.style {
                if low >= high {
                    return fail(format!(
                        "phase `{}`: sawtooth needs low < high, got [{low}, {high}]",
                        p.name
                    ));
                }
            }
            if let Some(tau) = p.tau {
                if !(0.0..1.0).contains(&tau) {
                    return fail(format!("phase `{}`: tau {tau} outside [0, 1)", p.name));
                }
            }
            if let PhaseExec::Event(net) = p.exec {
                if !(0.0..=1.0).contains(&net.drop) {
                    return fail(format!(
                        "phase `{}`: drop {} outside [0, 1]",
                        p.name, net.drop
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_knobs() {
        let c = Campaign::parse(
            "campaign t\nphase a\nstyle balanced\nsteps 5\n\
             phase b\nstyle join-leave\nwidth 8\ntau 0.2\ntarget first\nexec event\nsteps 3\n",
        )
        .unwrap();
        assert_eq!(c.k, 2);
        assert_eq!(c.width, 4);
        assert!(c.shuffle);
        assert!(c.cascade);
        assert_eq!(c.phases.len(), 2);
        assert_eq!(c.phases[1].width, Some(8));
        assert_eq!(c.phases[1].tau, Some(0.2));
        assert_eq!(c.phases[1].target, ClusterPick::First);
        assert_eq!(c.phases[0].exec, PhaseExec::Canonical);
        assert_eq!(c.phases[1].exec, PhaseExec::Event(EventNetConfig::ideal()));
        assert!(c.check().is_ok());
    }

    #[test]
    fn check_rejects_defects() {
        let empty = Campaign::new("e", 1 << 10);
        assert!(matches!(
            empty.check(),
            Err(NowError::CampaignReport { .. })
        ));

        let zero_width = Campaign::new("z", 1 << 10)
            .phase(Phase::new("a", PhaseStyle::Quiet, Trigger::Steps(1)).width(0));
        assert!(zero_width.check().is_err());

        let zero_steps = Campaign::new("s", 1 << 10).phase(Phase::new(
            "a",
            PhaseStyle::Quiet,
            Trigger::Steps(0),
        ));
        assert!(zero_steps.check().is_err());

        let bad_saw = Campaign::new("w", 1 << 10).phase(Phase::new(
            "a",
            PhaseStyle::Sawtooth { low: 9, high: 9 },
            Trigger::Steps(1),
        ));
        assert!(bad_saw.check().is_err());

        // The parser refuses this τ; a caller can still set the field.
        let mut bad_tau = Campaign::new("t", 1 << 10).phase(Phase::new(
            "a",
            PhaseStyle::Quiet,
            Trigger::Steps(1),
        ));
        bad_tau.phases[0].tau = Some(1.5);
        assert!(bad_tau.check().is_err());
    }

    #[test]
    fn net_knobs_put_the_phase_on_the_event_engine() {
        let net = EventNetConfig::ideal().with_latency(3).with_drop(0.2);
        let ok = Campaign::parse(
            "campaign n\nphase a\nstyle balanced\nexec event\nlatency 3\ndrop 0.2\nsteps 2\n",
        )
        .unwrap();
        assert_eq!(ok.phases[0].exec, PhaseExec::Event(net));
        assert!(ok.check().is_ok());

        // The parser refuses this drop rate; a caller can still set the
        // field.
        let mut bad_drop = Campaign::new("d", 1 << 10).phase(Phase::new(
            "a",
            PhaseStyle::Quiet,
            Trigger::Steps(1),
        ));
        bad_drop.phases[0].exec = PhaseExec::Event(EventNetConfig::ideal().with_drop(1.5));
        let Err(NowError::CampaignReport { reason }) = bad_drop.check() else {
            panic!("a drop rate past 1 must fail");
        };
        assert!(reason.contains("drop 1.5"), "{reason}");
    }

    #[test]
    fn trigger_caps() {
        assert_eq!(Trigger::Steps(7).max_steps(), 7);
        assert_eq!(
            Trigger::PopulationAbove {
                target: 100,
                cap: 50
            }
            .max_steps(),
            50
        );
        assert_eq!(Trigger::FirstViolation { cap: 9 }.max_steps(), 9);
    }

    #[test]
    fn style_names() {
        assert_eq!(PhaseStyle::JoinLeave.name(), "join-leave");
        assert_eq!(PhaseStyle::Sawtooth { low: 1, high: 2 }.name(), "sawtooth");
        assert_eq!(PhaseStyle::MergeForcing.name(), "merge-forcing");
        assert_eq!(PhaseStyle::BurstChurn.name(), "burst");
    }
}
