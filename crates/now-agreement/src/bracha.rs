//! Bracha reliable broadcast (`f < n/3`, no signatures).
//!
//! The transport under `randNum`'s commit–reveal: its *consistency*
//! (no two honest nodes deliver different values from the same source)
//! and *totality* (if one honest node delivers, all do) are exactly what
//! makes the honest members of a cluster agree on the set of valid
//! contributions.
//!
//! Message flow for source value `v`:
//! * `Init(v)` from the sender;
//! * on `Init(v)`: send `Echo(v)` (once);
//! * on `⌈(n+f+1)/2⌉` `Echo(v)`: send `Ready(v)` (once);
//! * on `f+1` `Ready(v)`: send `Ready(v)` (amplification, once);
//! * on `2f+1` `Ready(v)`: deliver `v`.
//!
//! In a synchronous network the whole exchange settles within a handful
//! of rounds; the runner executes a fixed schedule of [`EventNet`]
//! rounds on the ideal link model, long enough for any reachable
//! delivery.

use crate::outcome::{ByzPlan, ProtocolResult};
use now_net::{CostKind, EventNet, EventNetConfig, Ledger};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Init(u64),
    Echo(u64),
    Ready(u64),
}

#[derive(Debug, Default, Clone)]
struct NodeState {
    echoed: bool,
    readied: bool,
    delivered: Option<u64>,
    echo_counts: BTreeMap<u64, BTreeSet<usize>>,
    ready_counts: BTreeMap<u64, BTreeSet<usize>>,
}

fn byz_message<R: Rng>(plan: ByzPlan, to: usize, make: fn(u64) -> Msg, rng: &mut R) -> Option<Msg> {
    match plan {
        ByzPlan::Silent => None,
        ByzPlan::ConstantValue(v) => Some(make(v)),
        ByzPlan::Equivocate(a, b) => Some(make(if to % 2 == 0 { a } else { b })),
        ByzPlan::Random => Some(make(rng.gen())),
    }
}

/// Runs one Bracha broadcast from `sender` among `n` ports.
///
/// `f` is the assumed resilience (thresholds are computed from it);
/// correctness needs `n > 3f` and `byz.len() ≤ f`. Byzantine nodes
/// follow `plan` in every role (sender and echo/ready participants).
///
/// Honest decisions are `Some(v)` (delivered) or `None`. Costs are
/// recorded under [`CostKind::Agreement`].
///
/// # Panics
/// Panics if `n == 0` or `sender ≥ n`.
// Protocol entry point: takes the full (n, sender, value, byz, f, plan,
// ledger, rng) tuple by design — bundling would hide the paper's inputs.
#[allow(clippy::too_many_arguments)]
pub fn run_bracha<R: Rng>(
    n: usize,
    sender: usize,
    value: u64,
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    ledger: &mut Ledger,
    rng: &mut R,
) -> ProtocolResult<Option<u64>> {
    assert!(n > 0, "bracha needs at least one node");
    assert!(sender < n, "sender {sender} out of range for n={n}");

    ledger.begin(CostKind::Agreement);
    let mut net: EventNet<Msg> = EventNet::new(n, EventNetConfig::ideal(), 0);
    let mut state: Vec<NodeState> = vec![NodeState::default(); n];
    let echo_threshold = (n + f + 1).div_ceil(2);
    let ready_amplify = f + 1;
    let deliver_threshold = 2 * f + 1;

    // Dispatch round.
    if byz.contains(&sender) {
        for to in 0..n {
            if to == sender {
                continue;
            }
            if let Some(m) = byz_message(plan, to, Msg::Init, rng) {
                net.send(sender, to, m);
            }
        }
    } else {
        net.broadcast(sender, Msg::Init(value));
        // The sender echoes its own value.
        state[sender].echoed = true;
        state[sender]
            .echo_counts
            .entry(value)
            .or_default()
            .insert(sender);
        net.broadcast(sender, Msg::Echo(value));
    }

    // Enough rounds for init→echo→ready→amplify→deliver on a synchronous
    // network, with slack.
    let schedule_rounds = 8;
    for _ in 0..schedule_rounds {
        let inboxes = net.round();
        let mut outgoing: Vec<(usize, Msg)> = Vec::new();
        let mut byz_outgoing: Vec<(usize, usize, Msg)> = Vec::new();
        for (p, inbox) in inboxes.into_iter().enumerate() {
            if byz.contains(&p) {
                // Byzantine participants: one adversarial echo+ready volley.
                if !state[p].echoed {
                    state[p].echoed = true;
                    for to in 0..n {
                        if to == p {
                            continue;
                        }
                        if let Some(m) = byz_message(plan, to, Msg::Echo, rng) {
                            byz_outgoing.push((p, to, m));
                        }
                        if let Some(m) = byz_message(plan, to, Msg::Ready, rng) {
                            byz_outgoing.push((p, to, m));
                        }
                    }
                }
                continue;
            }
            for (from, msg) in inbox {
                match msg {
                    Msg::Init(v) => {
                        if from == sender && !state[p].echoed {
                            state[p].echoed = true;
                            state[p].echo_counts.entry(v).or_default().insert(p);
                            outgoing.push((p, Msg::Echo(v)));
                        }
                    }
                    Msg::Echo(v) => {
                        state[p].echo_counts.entry(v).or_default().insert(from);
                    }
                    Msg::Ready(v) => {
                        state[p].ready_counts.entry(v).or_default().insert(from);
                    }
                }
            }
            // Threshold transitions (evaluated after draining the inbox).
            if !state[p].readied {
                let ready_for: Option<u64> = state[p]
                    .echo_counts
                    .iter()
                    .find(|(_, s)| s.len() >= echo_threshold)
                    .map(|(&v, _)| v)
                    .or_else(|| {
                        state[p]
                            .ready_counts
                            .iter()
                            .find(|(_, s)| s.len() >= ready_amplify)
                            .map(|(&v, _)| v)
                    });
                if let Some(v) = ready_for {
                    state[p].readied = true;
                    state[p].ready_counts.entry(v).or_default().insert(p);
                    outgoing.push((p, Msg::Ready(v)));
                }
            }
            if state[p].delivered.is_none() {
                if let Some((&v, _)) = state[p]
                    .ready_counts
                    .iter()
                    .find(|(_, s)| s.len() >= deliver_threshold)
                {
                    state[p].delivered = Some(v);
                }
            }
        }
        for (p, msg) in outgoing {
            net.broadcast(p, msg);
        }
        for (p, to, msg) in byz_outgoing {
            net.send(p, to, msg);
        }
    }

    ledger.add_messages(net.messages_sent());
    ledger.add_rounds(net.now());
    ledger.end();

    ProtocolResult {
        decisions: (0..n)
            .filter(|p| !byz.contains(p))
            .map(|p| (p, state[p].delivered))
            .collect(),
        rounds: net.now(),
        messages: net.messages_sent(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        run_bracha(n, sender, value, &byz, f, plan, &mut ledger, &mut rng)
    }

    #[test]
    fn honest_sender_all_deliver() {
        let r = run(7, 0, 5, &[], 2, ByzPlan::Silent, 1);
        assert_eq!(r.unanimous(), Some(&Some(5)));
    }

    #[test]
    fn honest_sender_with_noisy_byzantines() {
        for plan in [
            ByzPlan::Silent,
            ByzPlan::ConstantValue(1),
            ByzPlan::Equivocate(1, 2),
            ByzPlan::Random,
        ] {
            let r = run(7, 0, 5, &[3, 6], 2, plan, 2);
            assert_eq!(r.unanimous(), Some(&Some(5)), "plan {plan:?}");
        }
    }

    #[test]
    fn silent_byzantine_sender_delivers_nothing() {
        let r = run(7, 1, 5, &[1], 2, ByzPlan::Silent, 3);
        assert_eq!(r.unanimous(), Some(&None));
    }

    #[test]
    fn equivocating_sender_consistency() {
        // No two honest nodes may deliver *different* values — the core
        // consistency property. (Some may deliver nothing.)
        for seed in 0..20u64 {
            let r = run(7, 0, 0, &[0, 3], 2, ByzPlan::Equivocate(10, 20), seed);
            let delivered: BTreeSet<u64> = r.decisions.values().flatten().copied().collect();
            assert!(
                delivered.len() <= 1,
                "seed {seed}: two values delivered: {delivered:?}"
            );
        }
    }

    #[test]
    fn totality_under_equivocation() {
        // If any honest node delivers, all honest nodes deliver.
        for seed in 0..20u64 {
            let r = run(10, 0, 0, &[0, 4, 7], 3, ByzPlan::Equivocate(8, 9), seed);
            let some = r.decisions.values().filter(|d| d.is_some()).count();
            assert!(
                some == 0 || some == r.decisions.len(),
                "seed {seed}: partial delivery ({some}/{})",
                r.decisions.len()
            );
        }
    }

    #[test]
    fn quadratic_message_complexity() {
        let r = run(10, 0, 1, &[], 3, ByzPlan::Silent, 4);
        // init n−1, echo n(n−1), ready n(n−1) — below 3n².
        assert!(
            r.messages <= 3 * 10 * 10,
            "messages {} exceed 3n²",
            r.messages
        );
    }

    #[test]
    fn single_node_trivially_delivers() {
        let r = run(1, 0, 9, &[], 0, ByzPlan::Silent, 5);
        assert_eq!(r.unanimous(), Some(&Some(9)));
    }

    proptest! {
        /// Consistency + totality for any byzantine subset of size ≤ f
        /// and any plan (n = 10, f = 3).
        #[test]
        fn consistency_and_totality(
            seed in any::<u64>(),
            byz_set in proptest::collection::btree_set(0usize..10, 0..4),
            sender in 0usize..10,
            plan_idx in 0usize..4,
        ) {
            let plan = [
                ByzPlan::Silent,
                ByzPlan::ConstantValue(5),
                ByzPlan::Equivocate(1, 2),
                ByzPlan::Random,
            ][plan_idx];
            let byz: Vec<usize> = byz_set.into_iter().collect();
            let r = run(10, sender, 33, &byz, 3, plan, seed);
            let delivered: BTreeSet<u64> = r.decisions.values().flatten().copied().collect();
            prop_assert!(delivered.len() <= 1, "consistency violated: {:?}", delivered);
            let some = r.decisions.values().filter(|d| d.is_some()).count();
            prop_assert!(some == 0 || some == r.decisions.len(), "totality violated");
            if !byz.contains(&sender) {
                prop_assert_eq!(r.unanimous(), Some(&Some(33)), "validity violated");
            }
        }
    }
}
