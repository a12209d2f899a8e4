//! L0 ↔ L1 cost-model coherence (the fidelity ladder: message-level L0,
//! cluster-level L1).
//!
//! The cluster-level (L1) execution path accounts costs with closed-form
//! counts derived from participant sets; the message-level (L0)
//! protocols measure them from messages actually sent on an `EventNet`
//! (the ideal link model, driven a synchronous round at a time). These
//! tests pin the relationship between the two so the ledger numbers the
//! experiment binaries print are interpretable.

use now_bft::agreement::{rand_num_commit_reveal, rand_num_ideal, ByzPlan};
use now_bft::core::init::discover;
use now_bft::graph::gen;
use now_bft::net::{CostKind, DetRng, Ledger};
use std::collections::BTreeSet;

#[test]
fn rand_num_l1_formula_vs_l0_measurement() {
    // L1 accounts 2·c·(c−1) messages (the paper's O(log²N) commit +
    // reveal all-to-all). The L0 implementation transports both phases
    // over Bracha reliable broadcast, which multiplies by an O(c)
    // factor (echo/ready amplification). The ratio — the price of the
    // Byzantine-resilient transport — must be bounded by ~3c.
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

        let mut l1_ledger = Ledger::new();
        let _ = rand_num_ideal(1 << 16, c, 0, None, &mut l1_ledger, &mut rng);
        let l1 = l1_ledger.stats(CostKind::RandNum).total_messages;

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
    // Below 1/3 Byzantine, both paths produce an agreed value; the L1
    // ideal classifies identically to the L0 outcome.
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
    assert!(now_bft::agreement::RandNumSecurity::from_counts(byz.len(), c).is_secure());
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
    // randNum spans — verified through the recording ledger on a live
    // system.
    use now_bft::core::{NowParams, NowSystem};
    let params = NowParams::new(1 << 10, 2, 1.5, 0.25, 0.05).unwrap();
    let mut sys = NowSystem::init_fast(params, 120, 0.1, 11);
    *sys.ledger_mut() = Ledger::recording();
    sys.join(true);
    let records = sys.ledger().records();
    let join_cost = records
        .iter()
        .find(|r| r.kind == CostKind::Join)
        .expect("join recorded")
        .cost;
    let randcl_total: u64 = records
        .iter()
        .filter(|r| r.kind == CostKind::RandCl)
        .map(|r| r.cost.messages)
        .sum();
    let randnum_total: u64 = records
        .iter()
        .filter(|r| r.kind == CostKind::RandNum)
        .map(|r| r.cost.messages)
        .sum();
    assert!(join_cost.messages >= randcl_total, "join ⊇ its walks");
    assert!(randcl_total >= randnum_total / 2, "walks ⊇ most randNums");
}
