//! Simulation harness for NOW experiments.
//!
//! Ties a [`now_core::NowSystem`] to a churn driver
//! ([`now_adversary::Adversary`]) and runs polynomially long operation
//! sequences while auditing the paper's invariants after every step:
//!
//! * [`runner`] — the step loop, violation tracking, and time series
//!   collection ([`RunReport`]).
//! * [`batch_run`] — the batched variant (several parallel join/leave
//!   operations per time step; the paper's §2 footnote), reporting the
//!   serial-vs-parallel round complexity.
//! * [`churn`] — environmental churn schedules, including the headline
//!   *polynomial size variation* driver ([`Sawtooth`]) that swings the
//!   population between `√N` and `N`.
//! * [`metrics`] — time series, summaries, and CSV emission (hand-rolled;
//!   no serde dependency).
//! * [`report`] — markdown tables for `EXPERIMENTS.md`.
//! * [`baselines`] — the comparison systems: no-shuffle static
//!   clustering (the §3.3 attack victim) and the naive
//!   single-cluster/full-mesh cost formulas of §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(deprecated)]

pub mod baselines;
pub mod batch_run;
pub mod churn;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod scenario;

pub use batch_run::{BatchDriver, BatchExec, BatchRandomChurn, BatchRun, BatchRunReport};
pub use churn::{BatchSawtooth, GrowthPhase, Sawtooth, ShrinkPhase};
pub use metrics::{CsvTable, Summary, TimeSeries};
pub use report::MdTable;
pub use runner::{run, RunConfig, RunReport, Violation, ViolationKind};
pub use scenario::{ChurnStyle, Scenario};
