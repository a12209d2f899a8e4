//! # now-bft — Highly Dynamic Distributed Computing with Byzantine Failures
//!
//! A full reproduction of **Guerraoui, Huc, Kermarrec (PODC 2013)**:
//! the **NOW** (*Neighbors On Watch*) protocol maintains a partition of
//! a churning network into clusters of size `Θ(log N)` such that every
//! cluster keeps more than two thirds honest members whp, while the
//! population varies polynomially (`√N ≤ n ≤ N`) under a Byzantine
//! adversary controlling a `τ ≤ 1/3 − ε` fraction of the nodes — at
//! `polylog(N)` communication per join/leave.
//!
//! This facade re-exports the workspace crates:
//!
//! | module | contents |
//! |---|---|
//! | [`net`] | ids, the one network (synchronous rounds or event-driven), cost ledger, deterministic RNG |
//! | [`graph`] | ER generation, spectral expansion, isoperimetric constants, the exact laws of `randCl`'s walk and the paper's CTRW |
//! | [`agreement`] | Bracha, Dolev–Strong, async Ben-Or, `randNum` (sync + async), quorum threshold |
//! | [`over`] | the OVER dynamic expander overlay + the Law–Siu constant-degree alternative |
//! | [`core`] | the NOW protocol itself ([`core::NowSystem`]): ops, batches, both init paths |
//! | [`adversary`] | the churn-driver trait, one driver per attack style, the one-op-per-step adapter, in-protocol malice |
//! | [`sim`] | the step loop, churn schedules, quantiles, baselines |
//! | [`trace`] | deterministic flight recorder, metrics registry, opt-in phase profiler |
//! | [`campaign`] | declarative multi-phase attack campaigns (`scenarios/*.campaign`) |
//! | [`apps`] | §6 applications: broadcast, sampling, aggregation, agreement, polling |
//!
//! # Quickstart
//!
//! ```
//! use now_bft::core::{NowParams, NowSystem};
//! use now_bft::sim::{BatchRandomChurn, BatchRun};
//!
//! let params = NowParams::for_capacity(1 << 10)?;
//! let mut sys = NowSystem::init_fast(params, 128, 0.15, 42);
//! let mut churn = BatchRandomChurn::balanced(1, 0.15);
//! let report = BatchRun::new().run(&mut sys, &mut churn, 50, 0);
//! assert!(report.final_audit.population > 0);
//! # Ok::<(), now_bft::core::NowError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/now-bench` for the
//! experiment harness (indexed in the README).

#![warn(missing_docs)]

pub use now_adversary as adversary;
pub use now_agreement as agreement;
pub use now_apps as apps;
pub use now_campaign as campaign;
pub use now_core as core;
pub use now_graph as graph;
pub use now_net as net;
pub use now_over as over;
pub use now_sim as sim;
pub use now_trace as trace;
