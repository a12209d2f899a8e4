//! Asynchronous `randNum` — the §6 substitution, end to end.
//!
//! The paper's future-work direction ("alleviate the need of the
//! assumption of synchronous nodes") ultimately has to replace the one
//! primitive NOW runs constantly: the intra-cluster `randNum`. This
//! module composes the crate's asynchronous pieces into that
//! replacement, following the classic **agreement-on-a-common-subset**
//! shape (Ben-Or, Canetti, Rabin):
//!
//! 1. every node commits to a private contribution and broadcasts the
//!    commitment, then its reveal, over an adversarially delayed
//!    [`now_net::EventNet`];
//! 2. for each node `i`, a binary Ben-Or ([`crate::run_ben_or_event`]) instance decides
//!    whether `i`'s contribution is **included**; each honest node
//!    votes 1 iff it saw `i`'s valid reveal before the instance starts.
//!    Validation of Ben-Or guarantees: contributions every honest node
//!    received are included, contributions nobody received are not;
//! 3. the agreed subset's revealed values are folded (XOR) into the
//!    output, reduced to `0..range`.
//!
//! Security matches the synchronous commit–reveal's argument: the
//! adversary fixes its contributions at commitment time, at least one
//! *honest* contribution lands in the agreed subset (honest reveals
//! reach everyone eventually, so their instances get unanimous honest
//! 1-votes), and XOR with one uniform honest value is uniform. The
//! resilience is Ben-Or's `f < n/5` — stricter than the synchronous
//! path's `f < n/3`; experiment X-ASYNC's conclusion about τ sizing
//! applies verbatim.

use crate::ben_or::{run_ben_or_with_coin, CoinMode, Delays};
use crate::crypto::{commit_value, verify_commitment, Commitment};
use crate::outcome::ByzPlan;
use now_net::{CostKind, DetRng, EventNet, Ledger};
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet};

/// One message of the asynchronous commit–reveal transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Commit(Commitment),
    Reveal { value: u64, nonce: u64 },
}

/// Outcome of one asynchronous `randNum` run.
#[derive(Debug, Clone)]
pub struct AsyncRandNum {
    /// The agreed value in `0..range` (one entry per honest node; all
    /// equal iff the run agreed, which the tests assert).
    pub decisions: BTreeMap<usize, u64>,
    /// The agreed inclusion set (ports whose contributions fold into
    /// the output).
    pub included: BTreeSet<usize>,
    /// Messages sent across the transport and all Ben-Or instances.
    pub messages: u64,
    /// Ben-Or phases summed over the `n` inclusion instances.
    pub total_phases: u64,
    /// Whether every honest node decided in every instance.
    pub complete: bool,
}

impl AsyncRandNum {
    /// The common output if all honest nodes agree, else `None`.
    pub fn unanimous(&self) -> Option<u64> {
        let mut iter = self.decisions.values();
        let first = *iter.next()?;
        iter.all(|&v| v == first).then_some(first)
    }
}

/// Runs the asynchronous `randNum` among `n` ports over `0..range`,
/// with Byzantine set `byz` (following `plan` inside each Ben-Or
/// instance; Byzantine contributions are adversarially chosen
/// constants, and Byzantine reveals may be withheld — the classic
/// bias attempt that commitments + the agreed subset neutralize).
///
/// Costs land under [`CostKind::RandNum`]. Resilience: `n > 5·|byz|`.
///
/// # Panics
/// Panics if `n == 0` or `range == 0`.
pub fn rand_num_async(
    n: usize,
    range: u64,
    byz: &BTreeSet<usize>,
    plan: ByzPlan,
    max_delay: u64,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> AsyncRandNum {
    assert!(n > 0, "rand_num_async needs nodes");
    assert!(range > 0, "range must be positive");
    let f = byz.len();

    ledger.begin(CostKind::RandNum);
    let (mut net, delays): (EventNet<Msg>, _) = Delays::adversarial(n, max_delay);

    // Phase 1 — commitments and reveals in flight. Honest nodes draw a
    // private contribution; Byzantine nodes pick adversarial constants
    // and *withhold reveals from half the network* (the strongest
    // omission bias available to them: selective reveal delivery).
    let mut value = vec![0u64; n];
    let mut nonce = vec![0u64; n];
    for p in 0..n {
        value[p] = rng.gen();
        nonce[p] = rng.gen();
        let c = commit_value(value[p], nonce[p], p);
        delays.bcast(&mut net, p, Msg::Commit(c), rng);
    }
    for p in 0..n {
        let reveal = Msg::Reveal {
            value: value[p],
            nonce: nonce[p],
        };
        if byz.contains(&p) {
            // Selective omission: reveal only to even ports.
            for to in (0..n).step_by(2) {
                if to != p {
                    delays.send(&mut net, p, to, reveal, rng);
                }
            }
        } else {
            delays.bcast(&mut net, p, reveal, rng);
        }
    }

    // Drain the transport. Reveals may outrun their commitments under
    // async reordering, so they are buffered and verified once the
    // drain completes (every sent commitment has arrived by then).
    let mut commitment: Vec<Vec<Option<Commitment>>> = vec![vec![None; n]; n];
    let mut pending: Vec<(usize, usize, u64, u64)> = Vec::new();
    while let Some((_, env)) = net.pop() {
        match env.payload {
            Msg::Commit(c) => commitment[env.to][env.from] = Some(c),
            Msg::Reveal {
                value: v,
                nonce: no,
            } => {
                pending.push((env.to, env.from, v, no));
            }
        }
    }
    let mut seen_reveal: Vec<Vec<Option<u64>>> = vec![vec![None; n]; n];
    // Self-knowledge is immediate.
    for p in 0..n {
        seen_reveal[p][p] = Some(value[p]);
    }
    for (to, from, v, no) in pending {
        let ok = commitment[to][from]
            .map(|c| verify_commitment(c, v, no, from))
            .unwrap_or(false);
        if ok {
            seen_reveal[to][from] = Some(v);
        }
    }
    let transport_messages = net.messages_sent();

    // Phase 2 — one Ben-Or inclusion instance per contributor.
    let mut included = BTreeSet::new();
    let mut messages = transport_messages;
    let mut total_phases = 0u64;
    let mut complete = true;
    let mut per_honest_output: BTreeMap<usize, u64> = (0..n)
        .filter(|p| !byz.contains(p))
        .map(|p| (p, 0u64))
        .collect();
    for i in 0..n {
        let inputs: Vec<u64> = (0..n)
            .map(|p| u64::from(seen_reveal[p][i].is_some()))
            .collect();
        let mut inner = Ledger::new();
        let report = run_ben_or_with_coin(
            n,
            &inputs,
            byz,
            f,
            plan,
            CoinMode::Common {
                seed: 0xAC5 ^ i as u64,
            },
            max_delay,
            400,
            &mut inner,
            rng,
        );
        messages += report.result.messages;
        total_phases += report.result.rounds;
        complete &= report.all_decided;
        if report.result.unanimous() == Some(&1) {
            included.insert(i);
            // Fold i's revealed value into every honest node's output.
            // (An honest node that voted 0 still learns the value from
            // any of the > n/2 honest nodes that have it — one extra
            // fetch round, accounted below.)
            for (&p, out) in per_honest_output.iter_mut() {
                let v = seen_reveal[p][i].unwrap_or(value[i]);
                *out ^= v;
            }
        }
    }
    // Fetch round for included-but-unseen reveals: at most one
    // request/response per (node, included contributor).
    messages += (included.len() * n) as u64 / 2;

    let decisions: BTreeMap<usize, u64> = per_honest_output
        .into_iter()
        .map(|(p, v)| (p, v % range))
        .collect();

    ledger.add_messages(messages);
    ledger.add_rounds(total_phases.max(1));
    ledger.end();

    AsyncRandNum {
        decisions,
        included,
        messages,
        total_phases,
        complete,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn go(n: usize, byz: &[usize], plan: ByzPlan, seed: u64) -> AsyncRandNum {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        rand_num_async(n, 1 << 20, &byz, plan, 15, &mut ledger, &mut rng)
    }

    #[test]
    fn honest_run_agrees_and_includes_everyone() {
        let out = go(10, &[], ByzPlan::Silent, 1);
        assert!(out.complete);
        assert!(out.unanimous().is_some());
        assert_eq!(out.included.len(), 10, "all reveals arrive eventually");
        assert!(out.unanimous().unwrap() < (1 << 20));
    }

    #[test]
    fn byzantine_omission_cannot_split_the_output() {
        for (seed, plan) in [
            (2, ByzPlan::Silent),
            (3, ByzPlan::Equivocate(0, 1)),
            (4, ByzPlan::Random),
        ] {
            let out = go(11, &[3, 8], plan, seed);
            assert!(out.complete, "{plan:?} stalled");
            assert!(
                out.unanimous().is_some(),
                "{plan:?}: honest outputs diverged: {:?}",
                out.decisions
            );
            assert_eq!(out.decisions.len(), 9);
        }
    }

    #[test]
    fn agreed_subset_contains_all_honest_contributions() {
        let out = go(11, &[0, 5], ByzPlan::Equivocate(0, 1), 5);
        for p in 0..11 {
            if ![0usize, 5].contains(&p) {
                assert!(
                    out.included.contains(&p),
                    "honest contribution {p} excluded"
                );
            }
        }
    }

    #[test]
    fn outputs_vary_across_runs() {
        // Uniformity smoke test: distinct seeds give distinct outputs
        // (a constant output would mean the adversary or a bug pinned it).
        let outputs: BTreeSet<u64> = (10..20u64)
            .map(|seed| {
                go(10, &[2], ByzPlan::ConstantValue(0), seed)
                    .unanimous()
                    .unwrap()
            })
            .collect();
        assert!(
            outputs.len() >= 8,
            "only {} distinct outputs",
            outputs.len()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = go(10, &[4], ByzPlan::Random, 30);
        let b = go(10, &[4], ByzPlan::Random, 30);
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.included, b.included);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn costs_are_accounted_under_rand_num() {
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(40);
        let out = rand_num_async(
            10,
            100,
            &BTreeSet::new(),
            ByzPlan::Silent,
            10,
            &mut ledger,
            &mut rng,
        );
        let s = ledger.stats(CostKind::RandNum);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_messages, out.messages);
        assert!(out.messages > 0);
        assert!(out.decisions.values().all(|&v| v < 100));
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_rejected() {
        let _ = rand_num_async(
            4,
            0,
            &BTreeSet::new(),
            ByzPlan::Silent,
            5,
            &mut Ledger::new(),
            &mut DetRng::new(1),
        );
    }
}
