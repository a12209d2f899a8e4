//! `randNum` — intra-cluster distributed random number generation.
//!
//! The paper assumes "a distributed random number generation protocol,
//! enabling the nodes of a cluster to agree on a common integer chosen
//! uniformly at random from the interval (0, r)", secure while the
//! cluster has more than two thirds honest members, and defers the
//! construction to its long version.
//!
//! [`rand_num_commit_reveal`] is a genuinely executing commit–reveal
//! protocol: every member Bracha-broadcasts a commitment to a local
//! draw, then Bracha-broadcasts the opening; the result is the sum
//! (mod `r`) of all correctly opened contributions. Bracha's
//! consistency + totality make the honest members agree on the valid
//! set, hence on the result, for `f < n/3`. A Byzantine member's only
//! leverage is *selective abort* (withholding its opening), which is
//! visible and bounded — it cannot steer the sum because commitments
//! are binding and at least one honest contribution is uniform.
//!
//! The ideal functionality the cluster-level (L1) execution path runs
//! instead — uniform while Byzantine < 1/3 of the cluster,
//! adversary-chosen otherwise, booked at the paper's `O(log²N)` as
//! `2·c·(c−1)` messages in 2 rounds for a cluster of `c` members — is
//! `now_core`'s `Kernel::draw`; root `tests/cost_equivalence.rs` holds
//! this protocol against it.

use crate::crypto::{commit_value, verify_commitment, Commitment};
use crate::outcome::{ByzPlan, ProtocolResult};
use now_net::{CostKind, EventNet, EventNetConfig, Ledger};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Item {
    Commit(u64),
    Reveal(u64, u64),
}

impl Item {
    fn phase(self) -> u8 {
        match self {
            Item::Commit(_) => 0,
            Item::Reveal(..) => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Init,
    Echo,
    Ready,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Msg {
    kind: Kind,
    src: usize,
    item: Item,
}

#[derive(Debug, Default, Clone)]
struct NodeState {
    echoed: BTreeSet<(usize, u8)>,
    readied: BTreeSet<(usize, u8)>,
    echo_counts: BTreeMap<(usize, Item), BTreeSet<usize>>,
    ready_counts: BTreeMap<(usize, Item), BTreeSet<usize>>,
    delivered: BTreeMap<(usize, u8), Item>,
}

/// One phase of parallel Bracha broadcasts: every port in `initiators`
/// broadcasts its item; everyone echoes/readies. Returns nothing —
/// deliveries accumulate in `state`.
// Run once per phase (commit, reveal) of the commit–reveal randNum:
// carries the whole per-phase protocol context (net, state, items,
// byz, plan, …) flat.
#[allow(clippy::too_many_arguments)]
fn run_parallel_bracha_phase<R: Rng>(
    net: &mut EventNet<Msg>,
    state: &mut [NodeState],
    items: &BTreeMap<usize, Item>,
    byz: &BTreeSet<usize>,
    plan: ByzPlan,
    f: usize,
    rounds: usize,
    rng: &mut R,
) {
    let n = state.len();
    let echo_threshold = (n + f + 1).div_ceil(2);
    let ready_amplify = f + 1;
    let deliver_threshold = 2 * f + 1;

    // Dispatch.
    for (&src, &item) in items {
        let init = Msg {
            kind: Kind::Init,
            src,
            item,
        };
        if byz.contains(&src) {
            match plan {
                ByzPlan::Silent => {}
                ByzPlan::Equivocate(a, b) => {
                    // Equivocate the *commitment digest* (or the reveal
                    // value): different item to even vs odd ports.
                    for to in 0..n {
                        if to == src {
                            continue;
                        }
                        let forged = match item {
                            Item::Commit(_) => Item::Commit(if to % 2 == 0 { a } else { b }),
                            Item::Reveal(_, nonce) => {
                                Item::Reveal(if to % 2 == 0 { a } else { b }, nonce)
                            }
                        };
                        net.send(
                            src,
                            to,
                            Msg {
                                item: forged,
                                ..init
                            },
                        );
                    }
                }
                // ConstantValue/Random byzantines follow the wire
                // format (their *contribution* was already chosen by
                // the plan at the caller).
                _ => net.broadcast(src, init),
            }
        } else {
            net.broadcast(src, init);
            // Self-echo.
            let key = (src, item);
            state[src].echoed.insert((src, item.phase()));
            state[src].echo_counts.entry(key).or_default().insert(src);
            net.broadcast(
                src,
                Msg {
                    kind: Kind::Echo,
                    ..init
                },
            );
        }
    }

    for _ in 0..rounds {
        let inboxes = net.round();
        let mut outgoing: Vec<(usize, Msg)> = Vec::new();
        for (p, inbox) in inboxes.into_iter().enumerate() {
            if byz.contains(&p) {
                if matches!(plan, ByzPlan::Random) {
                    // Random echo noise for a random source.
                    let src = rng.gen_range(0..n);
                    let item = Item::Commit(rng.gen());
                    net.broadcast(
                        p,
                        Msg {
                            kind: Kind::Echo,
                            src,
                            item,
                        },
                    );
                }
                continue;
            }
            for (from, msg) in inbox {
                let key = (msg.src, msg.item);
                match msg.kind {
                    Kind::Init => {
                        if from == msg.src
                            && !state[p].echoed.contains(&(msg.src, msg.item.phase()))
                        {
                            state[p].echoed.insert((msg.src, msg.item.phase()));
                            state[p].echo_counts.entry(key).or_default().insert(p);
                            outgoing.push((
                                p,
                                Msg {
                                    kind: Kind::Echo,
                                    ..msg
                                },
                            ));
                        }
                    }
                    Kind::Echo => {
                        state[p].echo_counts.entry(key).or_default().insert(from);
                    }
                    Kind::Ready => {
                        state[p].ready_counts.entry(key).or_default().insert(from);
                    }
                }
            }
            // Threshold transitions.
            let mut to_ready: Vec<(usize, Item)> = Vec::new();
            for (&(src, item), echoes) in &state[p].echo_counts {
                if echoes.len() >= echo_threshold
                    && !state[p].readied.contains(&(src, item.phase()))
                {
                    to_ready.push((src, item));
                }
            }
            for (&(src, item), readies) in &state[p].ready_counts {
                if readies.len() >= ready_amplify
                    && !state[p].readied.contains(&(src, item.phase()))
                {
                    to_ready.push((src, item));
                }
            }
            for (src, item) in to_ready {
                if state[p].readied.insert((src, item.phase())) {
                    state[p]
                        .ready_counts
                        .entry((src, item))
                        .or_default()
                        .insert(p);
                    outgoing.push((
                        p,
                        Msg {
                            kind: Kind::Ready,
                            src,
                            item,
                        },
                    ));
                }
            }
            let mut to_deliver: Vec<(usize, Item)> = Vec::new();
            for (&(src, item), readies) in &state[p].ready_counts {
                if readies.len() >= deliver_threshold
                    && !state[p].delivered.contains_key(&(src, item.phase()))
                {
                    to_deliver.push((src, item));
                }
            }
            for (src, item) in to_deliver {
                state[p].delivered.insert((src, item.phase()), item);
            }
        }
        for (p, msg) in outgoing {
            net.broadcast(p, msg);
        }
    }
}

/// Full commit–reveal `randNum` among `n` ports over parallel Bracha
/// broadcasts (fidelity level L0).
///
/// Every honest port draws a uniform contribution from `0..range`,
/// commits, then reveals; the agreed result is the sum of valid openings
/// mod `range`. Byzantine ports follow `plan`:
/// * `Silent` — contribute nothing (selective abort);
/// * `ConstantValue(v)` — contribute `v mod range` honestly on the wire
///   (bias attempt by choosing rather than drawing — harmless);
/// * `Equivocate(a, b)` — equivocate commitments/reveals (defeated by
///   Bracha consistency);
/// * `Random` — random contribution plus random echo noise.
///
/// Returns each honest port's computed result; agreement across honest
/// ports holds whenever `byz.len() < n/3`. Costs are recorded under
/// [`CostKind::RandNum`].
///
/// # Panics
/// Panics if `n == 0` or `range == 0`.
pub fn rand_num_commit_reveal<R: Rng>(
    n: usize,
    range: u64,
    byz: &BTreeSet<usize>,
    plan: ByzPlan,
    ledger: &mut Ledger,
    rng: &mut R,
) -> ProtocolResult<u64> {
    assert!(n > 0, "randNum needs at least one node");
    assert!(range > 0, "randNum range must be positive");
    let f = (n.saturating_sub(1)) / 3;

    ledger.begin(CostKind::RandNum);
    let mut net: EventNet<Msg> = EventNet::new(n, EventNetConfig::ideal(), 0);
    let mut state: Vec<NodeState> = vec![NodeState::default(); n];

    // Local draws.
    let mut xs = vec![0u64; n];
    let mut nonces = vec![0u64; n];
    for p in 0..n {
        xs[p] = match plan {
            ByzPlan::ConstantValue(v) if byz.contains(&p) => v % range,
            _ => rng.gen_range(0..range),
        };
        nonces[p] = rng.gen();
    }

    // Phase 1: commitments.
    let commits: BTreeMap<usize, Item> = (0..n)
        .filter(|p| !(byz.contains(p) && matches!(plan, ByzPlan::Silent)))
        .map(|p| (p, Item::Commit(commit_value(xs[p], nonces[p], p).0)))
        .collect();
    run_parallel_bracha_phase(&mut net, &mut state, &commits, byz, plan, f, 8, rng);

    // Phase 2: reveals.
    let reveals: BTreeMap<usize, Item> = (0..n)
        .filter(|p| !(byz.contains(p) && matches!(plan, ByzPlan::Silent)))
        .map(|p| (p, Item::Reveal(xs[p], nonces[p])))
        .collect();
    run_parallel_bracha_phase(&mut net, &mut state, &reveals, byz, plan, f, 8, rng);

    ledger.add_messages(net.messages_sent());
    ledger.add_rounds(net.now());
    ledger.end();

    // Result extraction per honest node.
    let mut decisions = BTreeMap::new();
    for p in 0..n {
        if byz.contains(&p) {
            continue;
        }
        let mut sum: u64 = 0;
        for src in 0..n {
            let Some(Item::Commit(digest)) = state[p].delivered.get(&(src, 0)).copied() else {
                continue;
            };
            let Some(Item::Reveal(x, nonce)) = state[p].delivered.get(&(src, 1)).copied() else {
                continue;
            };
            if x < range && verify_commitment(Commitment(digest), x, nonce, src) {
                sum = ((sum as u128 + x as u128) % range as u128) as u64;
            }
        }
        decisions.insert(p, sum);
    }

    ProtocolResult {
        decisions,
        rounds: net.now(),
        messages: net.messages_sent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::check_agreement;
    use now_net::DetRng;

    fn run(n: usize, range: u64, byz: &[usize], plan: ByzPlan, seed: u64) -> ProtocolResult<u64> {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        rand_num_commit_reveal(n, range, &byz, plan, &mut ledger, &mut rng)
    }

    #[test]
    fn all_honest_agree_in_range() {
        let r = run(7, 100, &[], ByzPlan::Silent, 1);
        assert!(check_agreement(&r));
        let v = *r.unanimous().unwrap();
        assert!(v < 100);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run(7, 1000, &[], ByzPlan::Silent, 9);
        let b = run(7, 1000, &[], ByzPlan::Silent, 9);
        assert_eq!(a.unanimous(), b.unanimous());
    }

    #[test]
    fn silent_byzantine_cannot_break_agreement() {
        let r = run(7, 50, &[2, 5], ByzPlan::Silent, 2);
        assert!(check_agreement(&r));
    }

    #[test]
    fn equivocating_byzantine_cannot_break_agreement() {
        for seed in 0..10u64 {
            let r = run(7, 50, &[0, 3], ByzPlan::Equivocate(7, 13), seed);
            assert!(check_agreement(&r), "seed {seed}: {:?}", r.decisions);
        }
    }

    #[test]
    fn constant_contribution_cannot_fix_output() {
        // A byzantine member contributing a constant cannot force the
        // result: honest contributions randomize the sum. Across seeds
        // the outputs must not all equal the constant.
        let outputs: BTreeSet<u64> = (0..12u64)
            .map(|seed| {
                *run(7, 97, &[1], ByzPlan::ConstantValue(42), seed)
                    .unanimous()
                    .unwrap()
            })
            .collect();
        assert!(
            outputs.len() > 4,
            "outputs suspiciously concentrated: {outputs:?}"
        );
    }

    #[test]
    fn random_noise_byzantine_cannot_break_agreement() {
        let r = run(10, 64, &[4, 8], ByzPlan::Random, 3);
        assert!(check_agreement(&r));
    }

    #[test]
    fn outputs_spread_over_range() {
        // Coarse uniformity check: over 40 seeds with range 8, every
        // bucket should be hit at least once and none should dominate.
        let mut counts = [0u32; 8];
        for seed in 0..40u64 {
            let v = *run(5, 8, &[], ByzPlan::Silent, seed).unanimous().unwrap();
            counts[v as usize] += 1;
        }
        assert!(
            counts.iter().all(|&c| c >= 1),
            "never-hit bucket: {counts:?}"
        );
        assert!(
            counts.iter().all(|&c| c <= 20),
            "dominant bucket: {counts:?}"
        );
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_rejected() {
        let _ = run(5, 0, &[], ByzPlan::Silent, 6);
    }
}
