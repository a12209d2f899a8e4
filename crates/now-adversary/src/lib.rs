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
//! * The attack drivers, one per style, each emitting a whole batch per
//!   step (the §2 footnote's parallel joins and leaves):
//!   [`BatchJoinLeave`] (the §3.3 cluster-capture strategy),
//!   [`BatchForcedLeave`] (DoS on a target cluster's honest members),
//!   [`BatchSplitForcing`]/[`BatchMergeForcing`] (pressure on the
//!   split/merge machinery), [`BatchBurstChurn`] (alternating join and
//!   leave bursts); plus [`Oscillation`] (whipsaw across the size band)
//!   and [`QuietBatches`] (no churn). Environmental random churn is
//!   `now_sim::BatchRandomChurn`.
//! * [`OnePerStep`] — the paper's model, at most one operation per
//!   step, over any of them: it replays the inner driver's batch one
//!   operation at a time.
//! * [`TargetedMalice`] — the in-protocol [`now_core::Malice`]
//!   implementation a strategic adversary uses once some cluster is
//!   compromised: steer walks toward the target, surrender honest
//!   members first, extremize `randNum`.
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

pub use batch_drivers::{
    BatchBurstChurn, BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchMergeForcing,
    BatchSplitForcing, ClusterPick, OnePerStep, QuietBatches,
};
pub use budget::CorruptionBudget;
pub use malice_impls::TargetedMalice;
pub use oscillation::Oscillation;
