//! NOW — *Neighbors On Watch* (Guerraoui, Huc, Kermarrec; PODC 2013).
//!
//! NOW maintains, under heavy churn and a Byzantine adversary, a
//! partition of the network into clusters of size `Θ(log N)` such that
//! every cluster keeps **more than two thirds honest members** with high
//! probability, while the total population may vary polynomially
//! (`√N ≤ n ≤ N`). Clusters form the vertices of the OVER expander
//! overlay ([`now_over`]); all cross-cluster influence flows through the
//! quorum rule of [`now_agreement::quorum`].
//!
//! The crate exposes:
//!
//! * [`NowParams`] — the paper's parameters (`N`, `k`, `l`, `τ`, `ε`)
//!   with the derived cluster-size band `[k·logN/l, l·k·logN]`.
//! * [`NowSystem`] — the live system: registry of nodes, clusters,
//!   overlay, ledger; with the maintenance operations `join`, `leave`
//!   (which internally trigger `split`/`merge`/`exchange`), the biased
//!   continuous-time random walk [`NowSystem::rand_cl_from`], and invariant
//!   audits ([`SystemAudit`]).
//! * [`init`] — the initialization phase: genuinely executed discovery
//!   flooding and committee-based clusterization over synchronous
//!   rounds of [`now_net::EventNet`] (fidelity L0), plus the fast path
//!   used by large-scale experiments.
//! * [`Malice`] — the hook through which an adversary exploits
//!   *compromised* clusters (≥ 1/3 Byzantine ⇒ `randNum` steerable;
//!   more than 1/2 ⇒ message forgery). In the Theorem-3 regime these hooks stay
//!   dormant because no cluster ever crosses the thresholds — which is
//!   exactly what the audits verify.
//!
//! # Quickstart
//!
//! ```
//! use now_core::{NowParams, NowSystem};
//!
//! let params = NowParams::for_capacity(1 << 10).unwrap();
//! // 64 initial nodes, 20% corrupted, seed 42.
//! let mut sys = NowSystem::init_fast(params, 64, 0.2, 42);
//! for _ in 0..10 {
//!     sys.join(true); // honest arrivals
//! }
//! let audit = sys.audit();
//! assert!(audit.worst_byz_fraction < 1.0 / 3.0);
//! assert!(audit.size_bounds_ok);
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]
#![deny(clippy::disallowed_methods)]
#![cfg_attr(test, allow(clippy::disallowed_methods))]

mod audit;
mod batch;
mod cluster;
mod compat;
mod error;
mod event_exec;
mod exchange;
mod exec;
mod hub;
pub mod init;
pub mod init_tree;
mod kernel;
mod malice;
mod ops;
mod params;
mod rand_cl;
mod registry;
mod system;
mod views;
mod wave_exec;

pub use audit::SystemAudit;
pub use batch::{BatchReport, JoinSpec, WaveStats};
pub use cluster::Cluster;
pub use compat::{wave_plan_nanos_total, wave_worker_spawn_total, WavePool};
pub use error::NowError;
pub use exec::{BatchInput, ExecConfig};
pub use malice::{Malice, NoMalice, RandNumContext, RandNumPurpose};
pub use now_net::{DropReason, EventNetConfig, EventRecord, Partition};
pub use now_trace::{
    FlightRecorder, Histogram, Json, MetricsRegistry, TraceData, TraceEvent, ViolationDump,
};
pub use params::{NowParams, SecurityMode};
pub use rand_cl::WalkTrace;
pub use registry::{ClusterStats, NodeRecord, Registry};
pub use system::NowSystem;
pub use views::{NodeView, ViewAudit};
