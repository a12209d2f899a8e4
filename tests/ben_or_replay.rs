//! Cross-commit replay of the asynchronous agreement stack: the pins
//! were recorded at the parent of the change that moved Ben-Or and the
//! asynchronous `randNum` onto `EventNet` (adversarial delays drawn
//! from the caller's stream, sent with an explicit delay); decisions,
//! phases, costs and virtual time must not move.

use now_bft::agreement::{
    rand_num_async, run_ben_or_event, run_ben_or_with_coin, BenOrReport, ByzPlan, CoinMode,
};
use now_bft::net::{DetRng, EventNetConfig, Ledger};
use std::collections::BTreeSet;

/// `(decisions, decision_phases, rounds, messages, virtual_time,
/// dropped)`; the two maps are rendered in port order, one base-36
/// digit per honest node.
type Pin<'a> = (&'a str, &'a str, u64, u64, u64, u64);

const COINS: [CoinMode; 2] = [CoinMode::Local, CoinMode::Common { seed: 0xC01 }];
const PLANS: [ByzPlan; 3] = [ByzPlan::Silent, ByzPlan::Equivocate(0, 1), ByzPlan::Random];

/// `(seed, index into COINS, index into PLANS, pin)`.
#[rustfmt::skip]
const PINS: [(u64, usize, usize, Pin); 18] = [
    (1, 0, 0, ("111111111", "222222222", 4, 630, 116, 0)),
    (1, 0, 1, ("111111111", "323223223", 5, 990, 120, 0)),
    (1, 0, 2, ("111111111", "222222222", 4, 770, 92, 0)),
    (1, 1, 0, ("111111111", "111111111", 3, 450, 76, 0)),
    (1, 1, 1, ("111111111", "111111111", 3, 570, 61, 0)),
    (1, 1, 2, ("111111111", "111111111", 3, 570, 65, 0)),
    (2, 0, 0, ("000000000", "aaaaaaaaa", 12, 2070, 431, 0)),
    (2, 0, 1, ("000000000", "111111111", 3, 570, 63, 0)),
    (2, 0, 2, ("111111111", "aaa99aa9a", 12, 2550, 320, 0)),
    (2, 1, 0, ("111111111", "111111111", 3, 450, 76, 0)),
    (2, 1, 1, ("111111111", "222222222", 4, 790, 90, 0)),
    (2, 1, 2, ("111111111", "111111111", 3, 570, 65, 0)),
    (3, 0, 0, ("000000000", "999999999", 11, 1890, 386, 0)),
    (3, 0, 1, ("000000000", "121111211", 4, 710, 87, 0)),
    (3, 0, 2, ("000000000", "333333333", 5, 1010, 119, 0)),
    (3, 1, 0, ("111111111", "111111111", 3, 450, 76, 0)),
    (3, 1, 1, ("111111111", "222222222", 4, 790, 89, 0)),
    (3, 1, 2, ("111111111", "111111111", 3, 550, 59, 0)),
];

/// Seed 90 on latency 2, jitter 9, 5 % loss, `Local` coin, `Random` plan.
const EVENT_PIN: Pin = ("000000000", "222222222", 4, 790, 58, 29);

/// `(seed, output, messages)` of `rand_num_async`.
const RAND_NUM_PINS: [(u64, u64, u64); 2] = [(1, 574150, 4521), (2, 111476, 4521)];

fn assert_pinned(r: &BenOrReport, pin: Pin, what: &str) {
    let digits = |values: Vec<u64>| -> String {
        let digit = |v| char::from_digit(v as u32, 36).expect("phase below 36");
        values.into_iter().map(digit).collect()
    };
    let decisions = digits(r.result.decisions.values().copied().collect());
    let phases = digits(r.decision_phases.values().copied().collect());
    let (rounds, messages) = (r.result.rounds, r.result.messages);
    let got: Pin = (
        &decisions,
        &phases,
        rounds,
        messages,
        r.virtual_time,
        r.dropped,
    );
    assert_eq!(got, pin, "{what}");
}

#[test]
fn async_agreement_replays_the_parent_commit() {
    // Split inputs and two Byzantine ports at the f < n/5 bound, so
    // volleys, both thresholds and the coin are all exercised.
    let inputs: Vec<u64> = (0..11).map(|i| i % 2).collect();
    let byz: BTreeSet<usize> = [3, 8].into_iter().collect();
    let ledger = &mut Ledger::new();
    for (seed, coin, plan, pin) in PINS {
        let (coin, plan, rng) = (COINS[coin], PLANS[plan], &mut DetRng::new(seed));
        let r = run_ben_or_with_coin(11, &inputs, &byz, 2, plan, coin, 20, 400, ledger, rng);
        assert_pinned(&r, pin, &format!("seed {seed}, {coin:?}, {plan:?}"));
    }
    let (net, coin) = (EventNetConfig::ideal().with_latency(2), CoinMode::Local);
    let net = net.with_jitter(9).with_drop(0.05);
    let rng = &mut DetRng::new(90);
    let r = run_ben_or_event(11, &inputs, &byz, 2, PLANS[2], coin, net, 400, ledger, rng);
    assert_pinned(&r, EVENT_PIN, "event runtime");
    for (seed, output, messages) in RAND_NUM_PINS {
        let rng = &mut DetRng::new(seed);
        let out = rand_num_async(11, 1 << 20, &byz, PLANS[2], 15, ledger, rng);
        assert_eq!((out.unanimous(), out.messages), (Some(output), messages));
    }
}
