//! Simulation harness for NOW experiments.
//!
//! Ties a [`now_core::NowSystem`] to a churn driver ([`BatchDriver`])
//! and runs polynomially long operation sequences while auditing the
//! paper's invariants after every step:
//!
//! * `batch_run` — the step loop ([`BatchRun`]): each step is one
//!   `step_batch` of what the driver decided — at most one operation
//!   under the paper's model, several under its §2 footnote — on the
//!   [`now_core::ExecConfig`] the caller names, reporting one
//!   [`now_core::SystemAudit`] per audited step and the
//!   serial-vs-parallel round complexity ([`BatchRunReport`]).
//! * `violation` — the invariant kinds an audit can fail
//!   ([`ViolationKind`]).
//! * [`churn`] — environmental churn schedules, including the headline
//!   *polynomial size variation* driver ([`BatchSawtooth`]) that swings the
//!   population between `√N` and `N`.
//! * [`ideal_law`] — Lemma 1's ideal capture law: the exact chance
//!   that a uniform sample, or some cluster of a uniform partition,
//!   holds a third or more Byzantine members.
//! * [`metrics`] — quantiles.
//! * [`report`] — the experiment binaries' [`Table`]: one set of rows,
//!   rendered as markdown, as CSV, and as JSON rows (through
//!   [`now_core::Json`], the workspace's one JSON writer).
//! * [`baselines`] — the comparison systems: no-shuffle static
//!   clustering (the §3.3 attack victim) and the naive
//!   single-cluster/full-mesh cost formulas of §6.

#![warn(missing_docs)]

pub mod baselines;
mod batch_run;
pub mod churn;
pub mod ideal_law;
pub mod metrics;
pub mod report;
mod violation;

pub use batch_run::{BatchDriver, BatchRandomChurn, BatchRun, BatchRunReport};
pub use churn::{BatchSawtooth, GrowthPhase, ShrinkPhase};
pub use report::{Cell, Table};
pub use violation::ViolationKind;
