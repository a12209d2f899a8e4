//! Dolev–Strong authenticated broadcast.
//!
//! Tolerates **any** number of Byzantine nodes in `f+1` rounds, given
//! unforgeable signatures (here: [`crate::crypto::SigOracle`]). This is
//! the tool behind the paper's Remark 1: with cryptography, the
//! tolerated corruption fraction rises to τ < 1/2 (the quorum rule then
//! only needs an honest majority, and equivocation is defeated by
//! signature chains instead of counting).
//!
//! Protocol sketch (sender `s`, resilience parameter `f`):
//! * Round 0: `s` signs its value and sends the 1-signature chain to all.
//! * Round `k`: a chain on value `v` bearing `k` distinct valid
//!   signatures, the first from `s`, convinces a receiver to *extract*
//!   `v`; if `k ≤ f` the receiver appends its own signature and relays.
//! * After round `f+1`: an honest node decides the unique extracted
//!   value, or `⊥` (`None`) if it extracted zero or several.
//!
//! If any honest node extracts `v` by round `f`, all do by the next
//! round; a chain arriving only at round `f+1` carries `f+1` signatures,
//! hence at least one honest one, whose owner relayed earlier. Either
//! way the extracted sets of honest nodes coincide.

use crate::crypto::{SigOracle, Signature};
use crate::outcome::{ByzPlan, ProtocolResult};
use now_net::{CostKind, EventNet, EventNetConfig, Ledger};
use rand::Rng;
use std::collections::BTreeSet;

/// A signature chain on `value`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Chain {
    value: u64,
    sigs: Vec<Signature>,
}

fn chain_valid(chain: &Chain, sender: usize, needed: usize, oracle: &SigOracle) -> bool {
    if chain.sigs.len() < needed || chain.sigs.is_empty() {
        return false;
    }
    // INVARIANT: emptiness was rejected two lines up.
    if chain.sigs[0].signer() != sender {
        return false;
    }
    let mut signers = BTreeSet::new();
    for sig in &chain.sigs {
        if !oracle.verify(sig.signer(), chain.value, *sig) {
            return false;
        }
        if !signers.insert(sig.signer()) {
            return false; // duplicate signer
        }
    }
    true
}

/// Runs Dolev–Strong broadcast from `sender` among `n` ports.
///
/// * `value` — the sender's input (ignored if the sender is Byzantine;
///   then `plan` governs what it claims).
/// * `f` — resilience parameter: the protocol runs `f + 1` rounds after
///   the dispatch (on an [`EventNet`] under the ideal link model) and
///   guarantees agreement whenever `byz.len() ≤ f` (any fraction!).
///
/// Honest decisions are `Some(v)` or `None` (= ⊥, sender exposed as
/// faulty). Costs are recorded under [`CostKind::Agreement`].
///
/// # Panics
/// Panics if `n == 0` or `sender ≥ n`.
// Protocol entry point: takes the full (n, sender, value, byz, f, plan,
// ledger, rng) tuple by design — bundling would hide the paper's inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_dolev_strong<R: Rng>(
    n: usize,
    sender: usize,
    value: u64,
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    ledger: &mut Ledger,
    rng: &mut R,
) -> ProtocolResult<Option<u64>> {
    assert!(n > 0, "dolev-strong needs at least one node");
    assert!(sender < n, "sender {sender} out of range for n={n}");

    ledger.begin(CostKind::Agreement);
    let mut oracle = SigOracle::new();
    let mut net: EventNet<Chain> = EventNet::new(n, EventNetConfig::ideal(), 0);
    // extracted[p]: values p has accepted so far (capped at 2 — a third
    // changes nothing: the decision is already ⊥).
    let mut extracted: Vec<Vec<u64>> = vec![Vec::new(); n];

    // Round 0: sender dispatch.
    if byz.contains(&sender) {
        match plan {
            ByzPlan::Silent => {}
            ByzPlan::ConstantValue(v) => {
                let sig = oracle.sign(sender, v);
                net.broadcast(
                    sender,
                    Chain {
                        value: v,
                        sigs: vec![sig],
                    },
                );
            }
            ByzPlan::Equivocate(a, b) => {
                let sig_a = oracle.sign(sender, a);
                let sig_b = oracle.sign(sender, b);
                for to in 0..n {
                    if to == sender {
                        continue;
                    }
                    let chain = if to % 2 == 0 {
                        Chain {
                            value: a,
                            sigs: vec![sig_a],
                        }
                    } else {
                        Chain {
                            value: b,
                            sigs: vec![sig_b],
                        }
                    };
                    net.send(sender, to, chain);
                }
            }
            ByzPlan::Random => {
                for to in 0..n {
                    if to == sender {
                        continue;
                    }
                    let v: u64 = rng.gen();
                    let sig = oracle.sign(sender, v);
                    net.send(
                        sender,
                        to,
                        Chain {
                            value: v,
                            sigs: vec![sig],
                        },
                    );
                }
            }
        }
    } else {
        let sig = oracle.sign(sender, value);
        net.broadcast(
            sender,
            Chain {
                value,
                sigs: vec![sig],
            },
        );
        extracted[sender].push(value);
    }

    // Rounds 1..=f+1: relay.
    for k in 1..=(f + 1) {
        let inboxes = net.round();
        let mut outgoing: Vec<(usize, Chain)> = Vec::new();
        for (p, inbox) in inboxes.into_iter().enumerate() {
            if byz.contains(&p) {
                // Byzantine relays: withhold (all plans), except Random,
                // which attempts to inject a *forged* chain each round —
                // verification must reject it (sigs[0] is not a genuine
                // sender signature unless the sender signed that value).
                if matches!(plan, ByzPlan::Random) {
                    let v: u64 = rng.gen();
                    let own = oracle.sign(p, v);
                    outgoing.push((
                        p,
                        Chain {
                            value: v,
                            sigs: vec![own],
                        },
                    ));
                }
                continue;
            }
            for (_, chain) in inbox {
                if !chain_valid(&chain, sender, k, &oracle) {
                    continue;
                }
                if extracted[p].contains(&chain.value) || extracted[p].len() >= 2 {
                    continue;
                }
                extracted[p].push(chain.value);
                if k <= f {
                    let mut relay = chain.clone();
                    relay.sigs.push(oracle.sign(p, chain.value));
                    outgoing.push((p, relay));
                }
            }
        }
        for (p, chain) in outgoing {
            net.broadcast(p, chain);
        }
    }

    ledger.add_messages(net.messages_sent());
    ledger.add_rounds(net.now());
    ledger.end();

    ProtocolResult {
        decisions: (0..n)
            .filter(|p| !byz.contains(p))
            .map(|p| {
                let d = if extracted[p].len() == 1 {
                    // INVARIANT: guarded by `len() == 1` on this branch.
                    Some(extracted[p][0])
                } else {
                    None
                };
                (p, d)
            })
            .collect(),
        rounds: net.now(),
        messages: net.messages_sent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::check_agreement;
    use now_net::DetRng;
    use proptest::prelude::*;

    fn run(
        n: usize,
        sender: usize,
        value: u64,
        byz: &[usize],
        f: usize,
        plan: ByzPlan,
        seed: u64,
    ) -> ProtocolResult<Option<u64>> {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        run_dolev_strong(n, sender, value, &byz, f, plan, &mut ledger, &mut rng)
    }

    #[test]
    fn honest_sender_delivers_to_all() {
        let r = run(7, 0, 42, &[], 2, ByzPlan::Silent, 1);
        assert_eq!(r.unanimous(), Some(&Some(42)));
    }

    #[test]
    fn honest_sender_with_byzantine_relays() {
        for plan in [ByzPlan::Silent, ByzPlan::ConstantValue(9), ByzPlan::Random] {
            let r = run(7, 0, 42, &[2, 5], 2, plan, 2);
            assert_eq!(
                r.unanimous(),
                Some(&Some(42)),
                "plan {plan:?} broke validity"
            );
        }
    }

    #[test]
    fn equivocating_sender_exposed_consistently() {
        // Byzantine sender sends a to even ports, b to odd; honest relay;
        // everyone extracts both values and decides ⊥ — in agreement.
        let r = run(8, 0, 0, &[0], 1, ByzPlan::Equivocate(10, 20), 3);
        assert!(check_agreement(&r));
        assert_eq!(r.unanimous(), Some(&None), "all honest output ⊥");
    }

    #[test]
    fn silent_sender_yields_bottom() {
        let r = run(5, 1, 7, &[1], 1, ByzPlan::Silent, 4);
        assert_eq!(r.unanimous(), Some(&None));
    }

    #[test]
    fn byzantine_majority_still_agrees() {
        // Dolev–Strong tolerates any f: 3 byzantine of 5, f = 3.
        let r = run(5, 0, 11, &[1, 2, 3], 3, ByzPlan::Random, 5);
        assert_eq!(r.unanimous(), Some(&Some(11)));
    }

    #[test]
    fn forged_chains_are_rejected() {
        // Byzantine relays inject self-signed chains for random values
        // (plan Random); sender is honest: decision must still be the
        // sender's value everywhere.
        let r = run(6, 2, 99, &[0, 5], 2, ByzPlan::Random, 6);
        assert_eq!(r.unanimous(), Some(&Some(99)));
    }

    #[test]
    fn rounds_are_f_plus_two() {
        let r = run(5, 0, 1, &[], 3, ByzPlan::Silent, 7);
        assert_eq!(r.rounds, 4, "f+1 relay rounds (dispatch precedes round 1)");
    }

    #[test]
    fn constant_value_byz_sender_consistent() {
        // A byzantine sender that behaves like an honest one (constant
        // value) results in normal delivery.
        let r = run(6, 0, 0, &[0], 2, ByzPlan::ConstantValue(8), 8);
        assert_eq!(r.unanimous(), Some(&Some(8)));
    }

    proptest! {
        /// Agreement holds for any byzantine subset of size ≤ f and any
        /// plan — including a byzantine sender.
        #[test]
        fn agreement_always_holds(
            seed in any::<u64>(),
            byz_set in proptest::collection::btree_set(0usize..7, 0..4),
            sender in 0usize..7,
            plan_idx in 0usize..4,
        ) {
            let plan = [
                ByzPlan::Silent,
                ByzPlan::ConstantValue(5),
                ByzPlan::Equivocate(1, 2),
                ByzPlan::Random,
            ][plan_idx];
            let byz: Vec<usize> = byz_set.into_iter().collect();
            let r = run(7, sender, 33, &byz, 3, plan, seed);
            prop_assert!(check_agreement(&r), "decisions: {:?}", r.decisions);
            // Validity: honest sender's value always decided.
            if !byz.contains(&sender) {
                prop_assert_eq!(r.unanimous(), Some(&Some(33)));
            }
        }
    }
}
