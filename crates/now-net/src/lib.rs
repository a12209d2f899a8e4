//! Synchronous message-passing substrate for the NOW/OVER reproduction.
//!
//! The paper (Guerraoui, Huc, Kermarrec, PODC 2013) assumes a *dynamic
//! synchronous network*: discrete time steps, each composed of several
//! communication rounds; private channels between nodes that know each
//! other; a mechanism for detecting that a neighbor left or crashed.
//!
//! This crate provides that substrate:
//!
//! * [`NodeId`] / [`ClusterId`] — forgery-proof identities (the simulator
//!   is the authority on who sent what, matching the paper's "identities
//!   cannot be forged" assumption).
//! * [`DetRng`] — deterministic, fork-able randomness so that every
//!   simulation is a pure function of `(config, seed)`.
//! * [`Bus`] — a synchronous round-based message bus with per-port
//!   inboxes, used to execute real per-node protocol state machines
//!   (fidelity level L0; root `tests/cost_equivalence.rs` holds it
//!   against the L1 closed-form counts).
//! * [`EventNet`] — the seeded discrete-event scheduler: per-link
//!   latency/jitter/loss/partition models, replayable from
//!   `(seed, config)` alone, or every delay chosen by the caller (an
//!   adversarial scheduler). The substrate of the event-driven NOW
//!   runtime (`now_core`'s `ExecConfig::Event`) and of the paper's §6
//!   future-work item of removing the synchrony assumption (see
//!   `now_agreement::ben_or`).
//! * [`Ledger`] — exact message/round accounting with nested operation
//!   spans, used by the cluster-level execution path (fidelity level L1)
//!   and by the L0 bus alike, so both levels report comparable costs.
//!
//! # Example
//!
//! ```
//! use now_net::{Bus, DetRng, Ledger, CostKind};
//!
//! let mut bus: Bus<&'static str> = Bus::new(3);
//! bus.send(0, 1, "hello");
//! bus.step(); // deliver
//! assert_eq!(bus.recv(1), vec![(0, "hello")]);
//!
//! let mut ledger = Ledger::new();
//! ledger.begin(CostKind::Join);
//! ledger.add_messages(42);
//! ledger.add_rounds(3);
//! let cost = ledger.end();
//! assert_eq!(cost.messages, 42);
//! ```

#![forbid(unsafe_code)]
#![deny(deprecated)]
#![warn(missing_docs)]

mod bus;
mod error;
mod event;
mod id;
mod ledger;
mod rng;

pub use bus::{Bus, Envelope};
pub use error::NetError;
pub use event::{DropReason, EventNet, EventNetConfig, EventRecord, Partition};
pub use id::{ClusterId, IdGen, NodeId};
pub use ledger::{Cost, CostKind, CostStats, Ledger, OpRecord};
pub use rng::DetRng;
