//! Workspace bootstrap smoke test (ISSUE 1): the facade re-exports
//! resolve, and a tiny end-to-end init+ops round is bit-deterministic
//! under the seeded RNG.

use now_bft::core::{NowParams, NowSystem, SystemAudit};
use now_bft::sim::{BatchRandomChurn, BatchRun};

/// Every facade module must resolve to its crate; referencing one item
/// through each path is enough for the compiler to prove the wiring.
#[test]
fn facade_reexports_resolve() {
    let _net: fn(u64) -> now_bft::net::DetRng = now_bft::net::DetRng::new;
    let _graph: fn(usize) -> now_bft::graph::Graph = now_bft::graph::Graph::new;
    let _agreement = now_bft::agreement::quorum::forgery_possible;
    let _over = now_bft::over::OverParams::for_capacity(1 << 10);
    let _core = now_bft::core::NowParams::for_capacity;
    let _adversary = now_bft::adversary::BatchJoinLeave::new;
    let _sim = now_bft::sim::BatchRun::new;
    let _apps = now_bft::apps::broadcast;
}

fn one_round(seed: u64) -> (SystemAudit, u64) {
    let params = NowParams::for_capacity(1 << 10).unwrap();
    let mut sys = NowSystem::init_fast(params, 128, 0.15, seed);
    let mut churn = BatchRandomChurn::balanced(1, 0.15);
    let report = BatchRun::new().run(&mut sys, &mut churn, 50, 0);
    (report.final_audit, sys.ledger().total().messages)
}

#[test]
fn end_to_end_round_is_deterministic() {
    let (audit_a, cost_a) = one_round(42);
    let (audit_b, cost_b) = one_round(42);
    assert!(audit_a.population > 0);
    assert_eq!(audit_a, audit_b, "same seed must replay bit-identically");
    assert_eq!(cost_a, cost_b, "cost accounting must replay too");

    let (audit_c, _) = one_round(43);
    assert_ne!(
        (audit_a.population, audit_a.worst_byz_fraction),
        (audit_c.population, audit_c.worst_byz_fraction),
        "different seeds should explore different trajectories"
    );
}
