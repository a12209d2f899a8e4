//! Adversary models for NOW.
//!
//! The paper's adversary is **static** (corruptions fixed at start, plus
//! a corrupt-or-not decision for every arrival) but has **full
//! information** (it knows every node's position at all times) and
//! drives churn: join–leave attacks and forced departures of honest
//! nodes (e.g. DoS). This crate packages those capabilities:
//!
//! * [`BatchDriver`] — the one churn-driver trait: each time step's
//!   arrivals ([`now_core::JoinSpec`]) and departures, decided from the
//!   full system state the model entitles the adversary to.
//! * Per-step strategies (at most one operation per step — the paper's
//!   model): [`JoinLeaveAttack`] (the §3.3 cluster-capture strategy),
//!   [`ForcedLeaveAttack`] (DoS on a target cluster's honest members),
//!   [`SplitForcing`]/[`MergeForcing`] (pressure on the split/merge
//!   machinery), [`BurstChurn`] (the high-rate regime of the parallel-
//!   batch footnote), [`Oscillation`] (whipsaw across the size band),
//!   [`QuietBatches`] (no churn). Environmental random churn is the
//!   width-1 case of `now_sim::BatchRandomChurn`.
//! * [`TargetedMalice`] — the in-protocol [`now_core::Malice`]
//!   implementation a strategic adversary uses once some cluster is
//!   compromised: steer walks toward the target, surrender honest
//!   members first, extremize `randNum`.
//! * Batch-rate attack drivers: [`BatchJoinLeave`],
//!   [`BatchForcedLeave`], [`BatchSplitForcing`], [`BatchMergeForcing`],
//!   [`BatchBurstChurn`] — the attack styles at several operations per
//!   step, for the §2-footnote wave-scheduled execution.
//!
//! The corruption *budget* is enforced by [`CorruptionBudget`]: the
//! adversary may corrupt an arrival only while its share is below `τ`.

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod batch_drivers;
mod budget;
mod malice_impls;
mod oscillation;
mod pressure;
mod strategies;

pub use batch_drivers::{
    BatchBurstChurn, BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing,
    BatchSplitForcing, ClusterPick, QuietBatches,
};
pub use budget::CorruptionBudget;
pub use malice_impls::TargetedMalice;
pub use oscillation::Oscillation;
pub use pressure::{BurstChurn, MergeForcing, SplitForcing};
pub use strategies::{ForcedLeaveAttack, JoinLeaveAttack};
