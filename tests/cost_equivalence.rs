//! L0 ↔ L1 cost-model coherence (the fidelity ladder: message-level L0,
//! cluster-level L1).
//!
//! The cluster-level (L1) execution path accounts costs with closed-form
//! counts derived from participant sets; the message-level (L0)
//! protocols measure them from messages actually sent on an `EventNet`
//! (the ideal link model, driven a synchronous round at a time). These
//! tests pin the relationship between the two so the ledger numbers the
//! experiment binaries print are interpretable.

use now_bft::agreement::{rand_num_commit_reveal, ByzPlan};
use now_bft::core::init::discover;
use now_bft::core::{NowParams, NowSystem, SecurityMode};
use now_bft::graph::gen;
use now_bft::net::{CostKind, DetRng, Ledger};
use std::collections::BTreeSet;

#[test]
fn rand_num_l1_formula_vs_l0_measurement() {
    // L1 books 2·c·(c−1) messages per draw (the paper's O(log²N) commit
    // + reveal all-to-all), read here from what the simulator itself
    // books for one `randNum` in a one-cluster system of c members. The
    // L0 implementation transports both phases over Bracha reliable
    // broadcast, which multiplies by an O(c) factor (echo/ready
    // amplification). The ratio — the price of the Byzantine-resilient
    // transport — must be bounded by ~3c.
    let params = NowParams::for_capacity(1 << 10).unwrap();
    for c in [7usize, 13, 19] {
        let mut l0_ledger = Ledger::new();
        let mut rng = DetRng::new(c as u64);
        let result = rand_num_commit_reveal(
            c,
            1 << 16,
            &BTreeSet::new(),
            ByzPlan::Silent,
            &mut l0_ledger,
            &mut rng,
        );
        let l0 = l0_ledger.stats(CostKind::RandNum).total_messages;

        let mut sys = NowSystem::init_fast(params, c, 0.0, c as u64);
        assert_eq!(sys.cluster_count(), 1, "c={c}: one cluster");
        let cluster = sys.cluster_ids()[0];
        let before = sys.ledger().stats(CostKind::RandNum);
        assert!(sys.rand_num(cluster, 1 << 16) < 1 << 16);
        let after = sys.ledger().stats(CostKind::RandNum);
        assert_eq!(after.count - before.count, 1, "one draw booked");
        let l1 = after.total_messages - before.total_messages;

        assert_eq!(l1, 2 * (c as u64) * (c as u64 - 1), "L1 closed form");
        assert!(l0 > l1, "real transport costs more than the ideal");
        assert!(
            l0 <= l1 * 3 * c as u64,
            "c={c}: L0 {l0} vs L1 {l1} — transport factor exceeded 3c"
        );
        assert!(result.unanimous().is_some(), "L0 must still agree");
    }
}

#[test]
fn rand_num_l0_and_l1_agree_on_security_semantics() {
    // Below 1/3 Byzantine, both paths produce an agreed value; the
    // threshold every L1 draw applies classifies identically to the L0
    // outcome.
    let c = 10usize;
    let byz: BTreeSet<usize> = [0, 1, 2].into_iter().collect(); // 3 < 10/3? 9 < 10 ✓
    let mut ledger = Ledger::new();
    let mut rng = DetRng::new(99);
    let result = rand_num_commit_reveal(
        c,
        1000,
        &byz,
        ByzPlan::Equivocate(5, 6),
        &mut ledger,
        &mut rng,
    );
    assert!(
        result.unanimous().is_some(),
        "L0 agreement below threshold: {:?}",
        result.decisions
    );
    assert!(SecurityMode::Plain.rand_num_secure(byz.len(), c));
}

#[test]
fn discovery_measurement_vs_fast_path_formula_shape() {
    // The fast path charges n·e_bootstrap with e = n·⌈log n⌉/2. The L0
    // measurement floods a real graph. On a graph with that edge count,
    // the measured units must land within the same order of magnitude
    // (factor 4 covers direction-doubling and flood scheduling).
    let n = 100usize;
    let log_n = (n as f64).log2().ceil() as usize;
    let target_edges = n * log_n / 2;
    let mut rng = DetRng::new(5);
    let p = 2.0 * target_edges as f64 / (n * (n - 1)) as f64;
    let g = gen::erdos_renyi(n, p, &mut rng);
    let mut ledger = Ledger::new();
    let out = discover(&g, &BTreeSet::new(), &mut ledger);
    assert!(out.complete);
    let formula = (n * target_edges) as u64;
    let measured = out.message_units;
    let ratio = measured as f64 / formula as f64;
    assert!(
        (0.25..4.0).contains(&ratio),
        "measured {measured} vs formula {formula} (ratio {ratio:.2})"
    );
}

#[test]
fn ledger_spans_nest_identically_across_layers() {
    // A Join span must contain its randCl spans, which contain their
    // randNum spans — verified through the per-kind stats of a fresh
    // ledger on a live system, which hold one join and whatever it ran.
    let params = NowParams::new(1 << 10, 2, 1.5, 0.25, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 120, 0.1, 11);
    *sys.ledger_mut() = Ledger::new();
    sys.join(true);
    let ledger = sys.ledger();
    let join = ledger.stats(CostKind::Join);
    assert_eq!(join.count, 1, "one join recorded");
    assert_eq!(join.total_messages, ledger.total().messages, "join ⊇ all");
    let randcl_total = ledger.stats(CostKind::RandCl).total_messages;
    let randnum_total = ledger.stats(CostKind::RandNum).total_messages;
    assert!(join.total_messages >= randcl_total, "join ⊇ its walks");
    assert!(randcl_total >= randnum_total / 2, "walks ⊇ most randNums");
}
