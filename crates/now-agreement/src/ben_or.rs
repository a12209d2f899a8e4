//! Ben-Or randomized binary consensus under asynchrony (`f < n/5`).
//!
//! The paper's §6 lists removing the synchrony assumption as future
//! work. This module supplies the asynchronous agreement building block
//! that substitution needs: Ben-Or's classic protocol (PODC 1983),
//! executed event-by-event on [`now_net::EventNet`] — no rounds, no
//! clocks; every transition is triggered by a single message delivery.
//! Deliveries are scheduled either adversarially ([`run_ben_or`]: each
//! delay drawn uniformly in `1..=max_delay` from the caller's stream;
//! the bound is a simulation horizon, so every run terminates, not a
//! protocol assumption — the state machine never reads the clock) or
//! by the net's own link model ([`run_ben_or_event`]).
//!
//! Per phase `r`, with `n` nodes and resilience parameter `f`:
//!
//! 1. **Report**: broadcast `R(r, x)`; wait for `n − f` phase-`r`
//!    reports. If more than `(n + f)/2` carry the same value `v`,
//!    propose `v`, else propose `⊥`.
//! 2. **Proposal**: broadcast `P(r, proposal)`; wait for `n − f`
//!    phase-`r` proposals. If some value `v` has more than `(n + f)/2`
//!    proposals, **decide** `v` (and keep participating so others
//!    terminate). If `v` has at least `f + 1` proposals, adopt `x = v`.
//!    Otherwise flip a fair local coin for `x`. Enter phase `r + 1`.
//!
//! Safety (agreement + validity) holds under any message scheduling
//! with `n > 5f`; termination holds with probability 1 because once
//! every honest coin lands the same way the next phase decides. The
//! expected phase count is constant for random scheduling (what the
//! uniform delay draws produce) but exponential against a
//! worst-case scheduler — the gap the **common coin** closes:
//! [`run_ben_or_with_coin`] with [`CoinMode::Common`] is Rabin's
//! variant, where a shared per-phase beacon (the ideal functionality of
//! a threshold signature) gives an O(1) expected phase count against
//! any scheduler.

use crate::outcome::{ByzPlan, ProtocolResult};
use now_net::{CostKind, DetRng, EventNet, EventNetConfig, Ledger};
use rand::{Rng, RngCore};
use std::collections::{BTreeMap, BTreeSet};

/// Who schedules the deliveries of a run on an [`EventNet`]: the same
/// transition code runs under both policies, so the two execution
/// paths differ only in who picks the delays (and who may drop).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Delays {
    /// Every delay is drawn uniformly in `1..=max_delay` from the
    /// **caller's** stream, one draw per send whether or not the sender
    /// is alive, so the stream position depends on the protocol alone.
    Adversarial {
        /// Simulation horizon of any single delivery.
        max_delay: u64,
    },
    /// The net's own link model: latency, jitter, loss, partitions.
    Model,
}

impl Delays {
    /// An adversarially scheduled net over `n` ports. Its links are
    /// ideal, so its own stream is never read and its seed is
    /// immaterial.
    pub(crate) fn adversarial<M: Clone>(n: usize, max_delay: u64) -> (EventNet<M>, Delays) {
        assert!(max_delay > 0, "delay bound must be positive");
        let net = EventNet::new(n, EventNetConfig::ideal(), 0);
        (net, Delays::Adversarial { max_delay })
    }

    pub(crate) fn send<M: Clone>(
        self,
        net: &mut EventNet<M>,
        from: usize,
        to: usize,
        m: M,
        rng: &mut DetRng,
    ) {
        // Loss/partition outcomes are the model's to decide; the
        // counters and the report's `dropped` carry the verdict.
        let _ = match self {
            Delays::Adversarial { max_delay } => {
                let delay = rng.gen_range(1..=max_delay);
                net.send_after(from, to, m, delay)
            }
            Delays::Model => net.send(from, to, m),
        };
    }

    /// Sends to every other port, in port order.
    pub(crate) fn bcast<M: Clone>(
        self,
        net: &mut EventNet<M>,
        from: usize,
        m: M,
        rng: &mut DetRng,
    ) {
        for to in 0..net.ports() {
            if to != from {
                self.send(net, from, to, m.clone(), rng);
            }
        }
    }
}

/// Where the protocol's phase coin comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinMode {
    /// Each node flips privately (Ben-Or 1983). Terminates w.p. 1, in
    /// expected O(1) phases under *random* scheduling but exponentially
    /// many against a worst-case scheduler.
    Local,
    /// All honest nodes see the same per-phase coin (Rabin 1983) — the
    /// ideal functionality a threshold-signature beacon implements. One
    /// common flip landing on the adopted value finishes the phase, so
    /// the expected phase count is O(1) against *any* scheduler.
    Common {
        /// Beacon seed (models the setup's shared key material).
        seed: u64,
    },
}

impl CoinMode {
    fn flip(self, phase: u64, rng: &mut DetRng) -> u64 {
        match self {
            CoinMode::Local => rng.gen_range(0..2),
            CoinMode::Common { seed } => {
                // SplitMix64 over (seed, phase): identical at every node.
                let mut z = seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & 1
            }
        }
    }
}

/// One Ben-Or message: a phase-stamped report or proposal. `None` in a
/// proposal is the protocol's `⊥`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Msg {
    Report { phase: u64, value: u64 },
    Proposal { phase: u64, value: Option<u64> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    AwaitReports,
    AwaitProposals,
}

#[derive(Debug, Clone)]
struct Node {
    x: u64,
    phase: u64,
    stage: Stage,
    decided: Option<u64>,
    decided_at_phase: Option<u64>,
    /// `reports[phase][sender] = value` (first message per sender wins;
    /// equivocation across recipients is already point-to-point).
    reports: BTreeMap<u64, BTreeMap<usize, u64>>,
    proposals: BTreeMap<u64, BTreeMap<usize, Option<u64>>>,
}

impl Node {
    fn new(input: u64) -> Self {
        Node {
            x: input,
            phase: 0,
            stage: Stage::AwaitReports,
            decided: None,
            decided_at_phase: None,
            reports: BTreeMap::new(),
            proposals: BTreeMap::new(),
        }
    }
}

/// Outcome of one asynchronous Ben-Or execution, beyond the common
/// [`ProtocolResult`] fields.
#[derive(Debug, Clone)]
pub struct BenOrReport {
    /// Decisions and message/“round” costs (rounds = highest phase any
    /// honest node reached — phases are the async analogue of rounds).
    pub result: ProtocolResult<u64>,
    /// Phase at which each honest node decided.
    pub decision_phases: BTreeMap<usize, u64>,
    /// Virtual time of the last delivery the execution consumed.
    pub virtual_time: u64,
    /// Whether every honest node decided before the event horizon.
    pub all_decided: bool,
    /// Messages the network model dropped (loss or partition). Always
    /// zero under adversarial delays (ideal links, and Ben-Or never
    /// kills a port); on the event runtime
    /// ([`run_ben_or_event`]) a non-zero count explains a stalled
    /// execution — Ben-Or has no retransmission, so enough losses leave
    /// thresholds forever unmet and `all_decided` false.
    pub dropped: u64,
}

fn byz_volley(
    net: &mut EventNet<Msg>,
    delays: Delays,
    p: usize,
    n: usize,
    phase: u64,
    plan: ByzPlan,
    rng: &mut DetRng,
) {
    for to in 0..n {
        if to == p {
            continue;
        }
        let (report_v, proposal_v) = match plan {
            ByzPlan::Silent => continue,
            ByzPlan::ConstantValue(v) => (v % 2, Some(v % 2)),
            ByzPlan::Equivocate(a, b) => {
                let v = if to % 2 == 0 { a % 2 } else { b % 2 };
                (v, Some(v))
            }
            ByzPlan::Random => {
                let v: u64 = rng.gen_range(0..2);
                let prop = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(rng.gen_range(0..2))
                };
                (v, prop)
            }
        };
        let report = Msg::Report {
            phase,
            value: report_v,
        };
        delays.send(net, p, to, report, rng);
        let proposal = Msg::Proposal {
            phase,
            value: proposal_v,
        };
        delays.send(net, p, to, proposal, rng);
    }
}

/// Runs asynchronous Ben-Or binary consensus among `n` ports with
/// binary `inputs` (`inputs[p] ∈ {0, 1}`), Byzantine set `byz` following
/// `plan`, and random message delays in `1..=max_delay`.
///
/// `f` is the resilience parameter the thresholds are computed from;
/// safety needs `n > 5f` and `byz.len() ≤ f`. Execution stops when all
/// honest nodes decide or any reaches `max_phases` (reported via
/// [`BenOrReport::all_decided`]). Costs land under
/// [`CostKind::Agreement`]: messages as counted by the net, rounds as
/// the highest phase reached.
///
/// # Panics
/// Panics if `n == 0`, any input is not 0/1, or `f ≥ n`.
// Protocol entry point: the full (n, inputs, byz, f, plan, …) tuple is
// the paper's interface; bundling would hide which knobs exist.
#[allow(clippy::too_many_arguments)]
pub fn run_ben_or(
    n: usize,
    inputs: &[u64],
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    max_delay: u64,
    max_phases: u64,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> BenOrReport {
    run_ben_or_with_coin(
        n,
        inputs,
        byz,
        f,
        plan,
        CoinMode::Local,
        max_delay,
        max_phases,
        ledger,
        rng,
    )
}

/// [`run_ben_or`] with an explicit [`CoinMode`] — `CoinMode::Common`
/// is Rabin's variant: a shared per-phase beacon makes the expected
/// phase count O(1) against any scheduler (the beacon itself is the
/// ideal functionality of a threshold signature; simulated here like
/// the rest of the crate's cryptography).
///
/// # Panics
/// As [`run_ben_or`].
// Same interface as run_ben_or plus the coin mode — by design.
#[allow(clippy::too_many_arguments)]
pub fn run_ben_or_with_coin(
    n: usize,
    inputs: &[u64],
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    coin: CoinMode,
    max_delay: u64,
    max_phases: u64,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> BenOrReport {
    let (mut net, delays) = Delays::adversarial(n, max_delay);
    run_core(
        &mut net, delays, n, inputs, byz, f, plan, coin, max_phases, ledger, rng,
    )
}

/// [`run_ben_or_with_coin`] on the **event runtime**: the same Ben-Or
/// state machine, scheduled by a seeded [`EventNet`] whose per-link
/// latency/jitter/loss/partition models come from `net` — the
/// asynchronous agreement building block running over the same network
/// substrate as the event-driven NOW engine. The net's seed is drawn
/// from `rng`, so the full execution — delivery order, losses,
/// decisions — is a pure function of `(rng seed, net config)`.
///
/// Unlike the adversarial scheduler, the model may *drop* messages (loss, or a
/// partition still unhealed at a message's scheduled delivery time).
/// Ben-Or has no retransmission, so dropped messages can leave
/// thresholds forever unmet: the run then ends with
/// [`BenOrReport::all_decided`] `false` and the loss count in
/// [`BenOrReport::dropped`] — liveness needs the network to deliver,
/// which is exactly the asynchronous-model caveat the paper's §6
/// points at. Safety (agreement + validity among the decided) holds
/// regardless, since a lossy network is just one more asynchronous
/// scheduler.
///
/// # Panics
/// As [`run_ben_or`].
// Same interface as run_ben_or plus the event-net config — by design.
#[allow(clippy::too_many_arguments)]
pub fn run_ben_or_event(
    n: usize,
    inputs: &[u64],
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    coin: CoinMode,
    net: EventNetConfig,
    max_phases: u64,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> BenOrReport {
    let seed = rng.next_u64();
    let mut net: EventNet<Msg> = EventNet::new(n, net, seed);
    let delays = Delays::Model;
    run_core(
        &mut net, delays, n, inputs, byz, f, plan, coin, max_phases, ledger, rng,
    )
}

// The core threads every public knob through — the arity mirrors the
// three public entry points it backs.
#[allow(clippy::too_many_arguments)]
fn run_core(
    net: &mut EventNet<Msg>,
    delays: Delays,
    n: usize,
    inputs: &[u64],
    byz: &BTreeSet<usize>,
    f: usize,
    plan: ByzPlan,
    coin: CoinMode,
    max_phases: u64,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> BenOrReport {
    assert!(n > 0, "ben-or needs nodes");
    assert_eq!(inputs.len(), n, "one input per port");
    assert!(inputs.iter().all(|&v| v <= 1), "inputs must be binary");
    assert!(f < n, "resilience parameter must be below n");

    ledger.begin(CostKind::Agreement);
    let mut nodes: Vec<Node> = inputs.iter().map(|&v| Node::new(v)).collect();
    let half = |count: usize| 2 * count > n + f; // "more than (n+f)/2"

    // Opening volley: every honest node reports for phase 0; Byzantine
    // nodes fire their phase-0 volley immediately.
    let mut byz_acted: Vec<BTreeSet<u64>> = vec![BTreeSet::new(); n];
    for p in 0..n {
        if byz.contains(&p) {
            byz_acted[p].insert(0);
            byz_volley(net, delays, p, n, 0, plan, rng);
        } else {
            let x = nodes[p].x;
            delays.bcast(net, p, Msg::Report { phase: 0, value: x }, rng);
            // Self-delivery is immediate (a node knows its own value).
            nodes[p].reports.entry(0).or_default().insert(p, x);
        }
    }

    let all_honest_decided = |nodes: &[Node]| {
        (0..n)
            .filter(|p| !byz.contains(p))
            .all(|p| nodes[p].decided.is_some())
    };

    let mut aborted = false;
    while let Some((_, env)) = net.pop() {
        let (from, p, payload) = (env.from, env.to, env.payload);
        if byz.contains(&p) {
            // Byzantine nodes track phases to keep injecting volleys
            // (total silence would stall nothing — thresholds use n−f —
            // but active plans need a trigger).
            let phase = match payload {
                Msg::Report { phase, .. } | Msg::Proposal { phase, .. } => phase,
            };
            if byz_acted[p].insert(phase) {
                byz_volley(net, delays, p, n, phase, plan, rng);
            }
            continue;
        }

        // Record the delivery (first message per sender/phase/type).
        match payload {
            Msg::Report { phase, value } => {
                nodes[p]
                    .reports
                    .entry(phase)
                    .or_default()
                    .entry(from)
                    .or_insert(value % 2);
            }
            Msg::Proposal { phase, value } => {
                nodes[p]
                    .proposals
                    .entry(phase)
                    .or_default()
                    .entry(from)
                    .or_insert(value.map(|v| v % 2));
            }
        }

        // Drive the node's state machine as far as the new message
        // allows (a single delivery can complete several stages if the
        // buffers were already full).
        loop {
            let node = &nodes[p];
            let phase = node.phase;
            match node.stage {
                Stage::AwaitReports => {
                    let Some(received) = node.reports.get(&phase) else {
                        break;
                    };
                    if received.len() < n - f {
                        break;
                    }
                    // Tally values among the first n−f (all received —
                    // thresholds only grow with more evidence).
                    let mut counts = [0usize; 2];
                    for &v in received.values() {
                        // INVARIANT: `% 2` lands in {0, 1} — the array's exact
                        // index set.
                        counts[(v % 2) as usize] += 1;
                    }
                    let [zeros, ones] = counts;
                    let proposal = if half(zeros) {
                        Some(0)
                    } else if half(ones) {
                        Some(1)
                    } else {
                        None
                    };
                    let m = Msg::Proposal {
                        phase,
                        value: proposal,
                    };
                    delays.bcast(net, p, m, rng);
                    nodes[p]
                        .proposals
                        .entry(phase)
                        .or_default()
                        .insert(p, proposal);
                    nodes[p].stage = Stage::AwaitProposals;
                }
                Stage::AwaitProposals => {
                    let Some(received) = node.proposals.get(&phase) else {
                        break;
                    };
                    if received.len() < n - f {
                        break;
                    }
                    let mut counts = [0usize; 2];
                    for v in received.values().flatten() {
                        // INVARIANT: `% 2` lands in {0, 1} — the array's exact
                        // index set.
                        counts[(*v % 2) as usize] += 1;
                    }
                    let [zeros, ones] = counts;
                    let strong = if half(zeros) {
                        Some(0u64)
                    } else if half(ones) {
                        Some(1)
                    } else {
                        None
                    };
                    let weak = if zeros > f {
                        Some(0u64)
                    } else if ones > f {
                        Some(1)
                    } else {
                        None
                    };
                    if let Some(v) = strong {
                        if nodes[p].decided.is_none() {
                            nodes[p].decided = Some(v);
                            nodes[p].decided_at_phase = Some(phase);
                        }
                        nodes[p].x = v;
                    } else if let Some(v) = weak {
                        nodes[p].x = v;
                    } else {
                        nodes[p].x = coin.flip(phase, rng);
                    }
                    // Enter the next phase (decided nodes keep
                    // participating so laggards reach their thresholds).
                    let next = phase + 1;
                    nodes[p].phase = next;
                    nodes[p].stage = Stage::AwaitReports;
                    if next >= max_phases {
                        aborted = true;
                        break;
                    }
                    let m = Msg::Report {
                        phase: next,
                        value: nodes[p].x,
                    };
                    delays.bcast(net, p, m, rng);
                    let x = nodes[p].x;
                    nodes[p].reports.entry(next).or_default().insert(p, x);
                }
            }
        }

        if aborted || all_honest_decided(&nodes) {
            break;
        }
    }

    let decisions: BTreeMap<usize, u64> = (0..n)
        .filter(|p| !byz.contains(p))
        .filter_map(|p| nodes[p].decided.map(|v| (p, v)))
        .collect();
    let decision_phases: BTreeMap<usize, u64> = (0..n)
        .filter(|p| !byz.contains(p))
        .filter_map(|p| nodes[p].decided_at_phase.map(|r| (p, r)))
        .collect();
    let max_phase = nodes
        .iter()
        .enumerate()
        .filter(|(p, _)| !byz.contains(p))
        .map(|(_, s)| s.phase)
        .max()
        .unwrap_or(0);
    let all_decided = all_honest_decided(&nodes);

    ledger.add_messages(net.messages_sent());
    ledger.add_rounds(max_phase + 1);
    ledger.end();

    BenOrReport {
        result: ProtocolResult {
            decisions,
            rounds: max_phase + 1,
            messages: net.messages_sent(),
        },
        decision_phases,
        virtual_time: net.now(),
        all_decided,
        dropped: net.dropped(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{check_agreement, check_validity};

    fn go(
        n: usize,
        inputs: &[u64],
        byz: &[usize],
        f: usize,
        plan: ByzPlan,
        seed: u64,
    ) -> BenOrReport {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        run_ben_or(n, inputs, &byz, f, plan, 20, 400, &mut ledger, &mut rng)
    }

    #[test]
    fn unanimous_inputs_decide_that_value_fast() {
        for value in [0u64, 1] {
            let inputs = vec![value; 10];
            let report = go(10, &inputs, &[], 1, ByzPlan::Silent, 1);
            assert!(report.all_decided);
            assert_eq!(report.result.unanimous(), Some(&value));
            // Validity path: decided in the very first phase.
            assert!(report.decision_phases.values().all(|&r| r == 0));
        }
    }

    #[test]
    fn validity_holds_with_byzantine_noise() {
        let inputs = vec![1u64; 11];
        for (seed, plan) in [
            (2, ByzPlan::Silent),
            (3, ByzPlan::ConstantValue(0)),
            (4, ByzPlan::Equivocate(0, 1)),
            (5, ByzPlan::Random),
        ] {
            let report = go(11, &inputs, &[7, 9], 2, plan, seed);
            assert!(report.all_decided, "{plan:?} stalled");
            let byz: BTreeSet<usize> = [7, 9].into_iter().collect();
            assert!(check_validity(&inputs, &byz, &report.result), "{plan:?}");
            assert!(check_agreement(&report.result), "{plan:?}");
            assert_eq!(report.result.decisions.len(), 9);
        }
    }

    #[test]
    fn split_inputs_still_agree() {
        // Mixed inputs: consensus on *some* value, all honest agreeing.
        for seed in 10..20u64 {
            let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
            let report = go(10, &inputs, &[3], 1, ByzPlan::Equivocate(0, 1), seed);
            assert!(report.all_decided, "seed {seed} stalled");
            assert!(check_agreement(&report.result), "seed {seed}");
            let v = *report.result.unanimous().unwrap();
            assert!(v <= 1);
        }
    }

    #[test]
    fn coin_flips_resolve_split_within_reasonable_phases() {
        let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
        let report = go(10, &inputs, &[], 1, ByzPlan::Silent, 21);
        assert!(report.all_decided);
        let worst = report.decision_phases.values().max().unwrap();
        assert!(
            *worst < 50,
            "random scheduling should converge quickly, took {worst} phases"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
        let a = go(10, &inputs, &[2], 1, ByzPlan::Random, 30);
        let b = go(10, &inputs, &[2], 1, ByzPlan::Random, 30);
        assert_eq!(a.result.decisions, b.result.decisions);
        assert_eq!(a.result.messages, b.result.messages);
        assert_eq!(a.virtual_time, b.virtual_time);
    }

    #[test]
    fn async_delays_do_not_break_agreement() {
        // Large delay bound = heavily reordered deliveries.
        let inputs = vec![1u64; 11];
        let byz: BTreeSet<usize> = [0, 5].into_iter().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(40);
        let report = run_ben_or(
            11,
            &inputs,
            &byz,
            2,
            ByzPlan::Equivocate(0, 1),
            500, // delays up to 500 time units
            400,
            &mut ledger,
            &mut rng,
        );
        assert!(report.all_decided);
        assert!(check_agreement(&report.result));
        assert!(check_validity(&inputs, &byz, &report.result));
    }

    #[test]
    fn costs_are_accounted() {
        let inputs = vec![0u64; 10];
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(50);
        let report = run_ben_or(
            10,
            &inputs,
            &BTreeSet::new(),
            1,
            ByzPlan::Silent,
            10,
            400,
            &mut ledger,
            &mut rng,
        );
        let s = ledger.stats(CostKind::Agreement);
        assert_eq!(s.count, 1);
        assert_eq!(s.total_messages, report.result.messages);
        assert!(report.result.messages >= 10 * 9, "at least one full volley");
        assert!(report.virtual_time > 0);
    }

    fn go_common(
        n: usize,
        inputs: &[u64],
        byz: &[usize],
        f: usize,
        plan: ByzPlan,
        seed: u64,
    ) -> BenOrReport {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        run_ben_or_with_coin(
            n,
            inputs,
            &byz,
            f,
            plan,
            CoinMode::Common { seed: 0xC01 },
            20,
            400,
            &mut ledger,
            &mut rng,
        )
    }

    #[test]
    fn common_coin_preserves_agreement_and_validity() {
        let inputs = vec![1u64; 11];
        let byz: BTreeSet<usize> = [7, 9].into_iter().collect();
        for (seed, plan) in [
            (70, ByzPlan::Silent),
            (71, ByzPlan::Equivocate(0, 1)),
            (72, ByzPlan::Random),
        ] {
            let report = go_common(11, &inputs, &[7, 9], 2, plan, seed);
            assert!(report.all_decided, "{plan:?}");
            assert!(check_agreement(&report.result), "{plan:?}");
            assert!(check_validity(&inputs, &byz, &report.result), "{plan:?}");
        }
    }

    #[test]
    fn common_coin_bounds_the_phase_tail() {
        // Rabin's point: the phase count is O(1) in expectation with a
        // shared coin *against any scheduler*. The random-delay net is
        // a benign scheduler, so local coins are fast here too — the
        // testable guarantee is the bounded tail of the common-coin
        // runs (each undecided phase ends with probability ≥ 1/2 when
        // the shared flip matches any weakly adopted value).
        let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
        let mut worst_common = 0u64;
        for seed in 100..120u64 {
            let common = go_common(10, &inputs, &[3], 1, ByzPlan::Equivocate(0, 1), seed);
            assert!(common.all_decided, "seed {seed}");
            worst_common = worst_common.max(*common.decision_phases.values().max().unwrap());
        }
        assert!(
            worst_common <= 8,
            "common coin should settle fast, worst {worst_common}"
        );
    }

    #[test]
    fn common_coin_is_actually_common() {
        // The beacon is a pure function of (seed, phase).
        let a = CoinMode::Common { seed: 5 };
        let mut rng1 = DetRng::new(1);
        let mut rng2 = DetRng::new(999);
        for phase in 0..50 {
            assert_eq!(a.flip(phase, &mut rng1), a.flip(phase, &mut rng2));
        }
        // And not constant.
        let flips: BTreeSet<u64> = (0..50).map(|p| a.flip(p, &mut rng1)).collect();
        assert_eq!(flips.len(), 2, "both values appear over 50 phases");
    }

    fn go_event(
        n: usize,
        inputs: &[u64],
        byz: &[usize],
        f: usize,
        plan: ByzPlan,
        net: EventNetConfig,
        seed: u64,
    ) -> BenOrReport {
        let byz: BTreeSet<usize> = byz.iter().copied().collect();
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(seed);
        run_ben_or_event(
            n,
            inputs,
            &byz,
            f,
            plan,
            CoinMode::Local,
            net,
            400,
            &mut ledger,
            &mut rng,
        )
    }

    #[test]
    fn event_runtime_reaches_consensus_on_reliable_links() {
        let net = EventNetConfig::ideal().with_latency(3).with_jitter(7);
        for seed in [80u64, 81, 82] {
            let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
            let report = go_event(10, &inputs, &[3], 1, ByzPlan::Equivocate(0, 1), net, seed);
            assert!(report.all_decided, "seed {seed} stalled");
            assert_eq!(report.dropped, 0);
            assert!(check_agreement(&report.result), "seed {seed}");
        }
    }

    #[test]
    fn event_runtime_is_deterministic_per_seed_and_config() {
        let net = EventNetConfig::ideal()
            .with_latency(2)
            .with_jitter(9)
            .with_drop(0.05);
        let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
        let a = go_event(10, &inputs, &[2], 1, ByzPlan::Random, net, 90);
        let b = go_event(10, &inputs, &[2], 1, ByzPlan::Random, net, 90);
        assert_eq!(a.result.decisions, b.result.decisions);
        assert_eq!(a.result.messages, b.result.messages);
        assert_eq!(a.dropped, b.dropped);
        assert_eq!(a.virtual_time, b.virtual_time);
    }

    #[test]
    fn lossy_links_stall_without_breaking_safety() {
        // 40% loss with no retransmission: some honest nodes can stall
        // below their n−f thresholds. Whatever happens, the decided
        // nodes must still agree on a valid value.
        let inputs = vec![1u64; 11];
        let mut stalled = 0u32;
        for seed in 100..110u64 {
            let net = EventNetConfig::ideal().with_drop(0.4);
            let report = go_event(11, &inputs, &[7], 2, ByzPlan::Silent, net, seed);
            assert!(report.dropped > 0, "seed {seed}: 40% loss drops messages");
            assert!(report.result.decisions.values().all(|&v| v == 1));
            if !report.all_decided {
                stalled += 1;
            }
        }
        assert!(stalled > 0, "heavy loss should stall at least one run");
    }

    #[test]
    fn partition_stalls_and_heal_restores_liveness() {
        let inputs: Vec<u64> = (0..10).map(|i| (i % 2) as u64).collect();
        // Unhealed split: every cross-group message is severed, so no
        // node can gather n − f = 9 phase-0 reports.
        let cut = go_event(
            10,
            &inputs,
            &[],
            1,
            ByzPlan::Silent,
            EventNetConfig::ideal().with_latency(5).with_partition(2),
            120,
        );
        assert!(!cut.all_decided, "a permanent split cannot decide");
        assert!(cut.dropped > 0);
        assert!(cut.result.decisions.is_empty());
        // Same config healing before the first deliveries land (latency
        // 5, heal at 3): nothing is severed, consensus goes through.
        let healed = go_event(
            10,
            &inputs,
            &[],
            1,
            ByzPlan::Silent,
            EventNetConfig::ideal()
                .with_latency(5)
                .with_partition(2)
                .healing_at(3),
            120,
        );
        assert!(healed.all_decided, "heal before delivery restores liveness");
        assert!(check_agreement(&healed.result));
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn non_binary_inputs_rejected() {
        let _ = go(4, &[0, 1, 2, 0], &[], 0, ByzPlan::Silent, 60);
    }

    #[test]
    #[should_panic(expected = "one input per port")]
    fn input_length_mismatch_rejected() {
        let _ = go(5, &[0, 1], &[], 0, ByzPlan::Silent, 61);
    }
}
