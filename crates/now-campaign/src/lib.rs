//! `now-campaign` — a declarative multi-phase attack-campaign engine.
//!
//! The paper's resilience claims are about surviving *sequences* of
//! adversarial regimes — churn bursts, targeted join–leave floods,
//! forced-leave pressure, split forcing — yet a plain scenario run is
//! one churn style from start to finish. A [`Campaign`] compiles a
//! phased timeline (e.g. *warm up 200 steps of balanced churn → 300
//! steps of join–leave flood on the largest cluster → split-forcing
//! until the population crosses a threshold → quiesce*) into a single
//! deterministic run over one [`now_core::NowSystem`], driven through
//! the batched wave-scheduled execution path
//! ([`now_sim::BatchRun`]).
//!
//! Three layers:
//!
//! * **Model** ([`model`]) — [`Campaign`] / [`Phase`] with triggers
//!   ([`Trigger`]: step count, population thresholds, first binding
//!   violation) and composable per-phase knobs (batch width, driver
//!   τ, execution engine, attack style and target policy).
//! * **Text format** ([`parse`]) — a small line-oriented campaign
//!   format (hand-rolled; the workspace carries no serde), with typed
//!   [`now_core::NowError::CampaignParse`] errors carrying 1-based
//!   line numbers. The `scenarios/` directory at the workspace root
//!   holds a corpus of ready-to-run campaign files.
//! * **Runner + report** ([`run`], [`report`]) — the phase-switching
//!   runner produces a [`CampaignReport`] with one [`PhaseReport`] per
//!   phase (the phase's [`now_sim::BatchRunReport`], whose per-step
//!   audits give the violations, peak and population trajectory, plus
//!   the trigger outcome and ledger totals) and emits it as
//!   deterministic JSON: runs of the same campaign are byte-identical,
//!   which CI gates (`campaign-smoke`).
//!
//! # Example
//! ```
//! use now_campaign::Campaign;
//!
//! let text = "
//! campaign demo
//! capacity 1024
//! tau 0.10
//! initial-population 120
//! seed 7
//! width 4
//!
//! phase warmup
//!   style balanced
//!   steps 10
//!
//! phase flood
//!   style split-forcing
//!   target largest
//!   width 6
//!   steps 8
//!
//! phase quiesce
//!   style quiet
//!   steps 3
//! ";
//! let campaign = Campaign::parse(text)?;
//! let (report, sys) = campaign.execute()?;
//! assert_eq!(report.phases.len(), 3);
//! assert_eq!(report.total_steps(), 21);
//! assert!(sys.check_consistency().is_ok());
//! # Ok::<(), now_core::NowError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

pub mod model;
pub mod parse;
pub mod report;
pub mod run;

pub use model::{Campaign, Phase, PhaseExec, PhaseStyle, Trigger};
pub use report::{CampaignReport, PhaseReport};
