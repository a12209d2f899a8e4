//! Applications over the NOW cluster overlay (§6 of the paper).
//!
//! The paper's concluding remarks quantify what the clustering buys:
//! *"A broadcast algorithm using our technique would have for instance
//! Õ(n) message complexity as compared to O(n²) without the clustering.
//! Similarly, a sampling algorithm relying on our protocol would have a
//! polylog(n) message complexity per sample."* This crate implements
//! those applications — plus aggregation, cluster-level agreement, and
//! the secure polling of the paper's reference \[12\] — directly on a
//! live [`now_core::NowSystem`], with exact cost accounting, so
//! experiments X-A1/X-A2 can measure the claims against the naive
//! baselines in [`now_sim::baselines`].
//!
//! All inter-cluster traffic follows the quorum rule: a message from
//! cluster `C` to cluster `D` costs `|C|·|D|` point-to-point messages
//! (every member of `C` to every member of `D`), and `D`'s members
//! accept it only with more than half of `C` behind it.

#![warn(missing_docs)]

mod aggregate;
mod agreement_app;
pub mod broadcast;
mod polling;
mod sampling;

pub use aggregate::{aggregate_count, AggregateReport};
pub use agreement_app::{cluster_agreement, AgreementReport};
pub use broadcast::{broadcast, BroadcastReport};
pub use polling::{poll, PollReport};
pub use sampling::{sample_node, SampleReport};
