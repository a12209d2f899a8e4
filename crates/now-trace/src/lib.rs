//! Deterministic observability for the NOW reproduction.
//!
//! Three pillars, each bound by the workspace's bit-determinism
//! contract (see README "Observability"):
//!
//! * **Flight recorder** ([`FlightRecorder`]) — a bounded ring buffer
//!   of typed protocol events ([`TraceData`]) recorded in canonical op
//!   order, so the trace of a run is byte-identical at every thread
//!   count. When an invariant violation is raised, the recorder takes
//!   a one-shot dump of its buffered events filtered to the offending
//!   cluster's causal neighborhood ([`ViolationDump`]).
//! * **Metrics registry** ([`MetricsRegistry`]) — named counters,
//!   gauges, and fixed-bucket histograms. All values are integers
//!   derived from protocol outcomes; no wall clock ever enters a
//!   metric. Exports as canonical JSON and Prometheus-style text.
//! * **Phase profiler** ([`stopwatch`]) — the single sanctioned
//!   wall-clock measurement site (`crates/clippy.toml` bans the wall
//!   clock, and only [`stopwatch`] expects it). Wall-clock readings
//!   feed advisory fields only; they are excluded from every
//!   byte-diffed artifact.
//!
//! Every deterministic JSON artifact of the workspace — these two
//! sinks', campaign reports, experiment tables, lint findings — is
//! rendered by the one writer here, [`Json`].
//!
//! The crate is dependency-free and protocol-agnostic: callers record
//! node and cluster identities as raw `u64`s, which keeps this crate at
//! the bottom of the workspace DAG (everything above — now-core,
//! now-sim, now-campaign — can depend on it).

#![warn(missing_docs)]

mod event;
mod json;
mod metrics;
mod profile;
mod recorder;

pub use event::{TraceData, TraceEvent};
pub use json::Json;
pub use metrics::{Histogram, MetricsRegistry};
pub use profile::{stopwatch, Stopwatch};
pub use recorder::{FlightRecorder, ViolationDump};
