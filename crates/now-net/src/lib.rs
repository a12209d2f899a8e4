//! Message-passing substrate for the NOW/OVER reproduction.
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
//! * [`EventNet`] — the one network: a seeded discrete-event scheduler
//!   with per-link latency/jitter/loss/partition models, replayable from
//!   `(seed, config)` alone, or every delay chosen by the caller (an
//!   adversarial scheduler). Driven a round at a time on the ideal link
//!   model ([`EventNet::round`]), it is the paper's synchronous network,
//!   on which the real per-node protocol state machines run (fidelity
//!   level L0; root `tests/cost_equivalence.rs` holds them against the
//!   L1 closed-form counts). Driven a delivery at a time, it is the
//!   substrate of the event-driven NOW runtime (`now_core`'s
//!   `ExecConfig::Event`) and of the paper's §6 future-work item of
//!   removing the synchrony assumption (see `now_agreement::ben_or`).
//! * [`Ledger`] — exact message/round accounting with nested operation
//!   spans, used by the cluster-level execution path (fidelity level L1)
//!   and by the L0 protocols alike, so both levels report comparable
//!   costs.
//! * [`ieee`] — `ln`, `log₂` and powers from IEEE-754 basic operations
//!   alone, so that no trajectory depends on the platform's libm.
//!
//! # Example
//!
//! ```
//! use now_net::{CostKind, EventNet, EventNetConfig, Ledger};
//!
//! let mut net: EventNet<&'static str> = EventNet::new(3, EventNetConfig::ideal(), 0);
//! net.send(0, 1, "hello");
//! let inboxes = net.round(); // deliver
//! assert_eq!(inboxes[1], vec![(0, "hello")]);
//! assert_eq!(net.now(), 1);
//!
//! let mut ledger = Ledger::new();
//! ledger.begin(CostKind::Join);
//! ledger.add_messages(42);
//! ledger.add_rounds(3);
//! let cost = ledger.end();
//! assert_eq!(cost.messages, 42);
//! ```

#![warn(missing_docs)]

mod event;
mod id;
pub mod ieee;
mod ledger;
mod rng;

pub use event::{DropReason, Envelope, EventNet, EventNetConfig, EventRecord, Partition};
pub use id::{ClusterId, IdGen, NodeId};
pub use ledger::{Cost, CostKind, CostStats, Ledger};
pub use rng::DetRng;
