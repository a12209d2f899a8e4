//! Cross-commit replay of the message-level (L0) protocol stack.
//!
//! * The asynchronous pins were recorded at the parent of the change
//!   that moved Ben-Or and the asynchronous `randNum` onto `EventNet`
//!   (adversarial delays drawn from the caller's stream, sent with an
//!   explicit delay); decisions, phases, costs and virtual time must not
//!   move.
//! * The synchronous pins — flooding discovery, clusterization,
//!   commit–reveal `randNum`, Bracha and Dolev–Strong — were recorded at
//!   the parent of the change that moved them from a dedicated round bus
//!   onto `EventNet`'s synchronous round under the ideal link model;
//!   decisions, rounds, message counts and ledger totals must not move.

use now_bft::agreement::{
    rand_num_async, rand_num_commit_reveal, run_ben_or_event, run_ben_or_with_coin, run_bracha,
    run_dolev_strong, BenOrReport, ByzPlan, CoinMode, ProtocolResult,
};
use now_bft::core::init::{clusterize, discover};
use now_bft::graph::gen;
use now_bft::net::{CostKind, DetRng, EventNetConfig, Ledger};
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

/// Every Byzantine plan, for the synchronous protocols.
const ALL_PLANS: [ByzPlan; 4] = [
    ByzPlan::Silent,
    ByzPlan::ConstantValue(42),
    ByzPlan::Equivocate(7, 13),
    ByzPlan::Random,
];

/// `(decisions, rounds, messages)`: decisions in port order,
/// comma-separated, `-` for ⊥.
type SyncPin<'a> = (&'a str, u64, u64);

/// `(graph seed, k, rounds, message_units, complete)` of `discover` on
/// an Erdős–Rényi graph G(40, 0.2) whose ports `0..k` are Byzantine.
#[rustfmt::skip]
const DISCOVER_PINS: [(u64, usize, u64, u64, bool); 6] = [
    (1, 0, 3, 13600, true),
    (1, 6, 3, 11800, true),
    (2, 0, 4, 10640, true),
    (2, 6, 5, 9400, true),
    (3, 0, 3, 13360, true),
    (3, 6, 4, 11480, true),
];

/// `(rng seed, committee, agreed seed, ledger messages, ledger rounds)`
/// of `clusterize(60, {0, 5, 10, …}, 4)`.
#[rustfmt::skip]
const CLUSTERIZE_PINS: [(u64, &str, u64, u64, u64); 3] = [
    (1, "50,17,54,34,49,7,48,14,19,0,23,11,6,51,57", 254072274784970766, 13474, 24),
    (2, "13,20,4,35,39,22,1,54,41,3,24,10,17,59,27", 5095531410198805113, 12046, 24),
    (3, "24,36,47,51,27,14,25,38,56,28,35,9,21,55,32", 2729256223118208934, 12046, 24),
];

/// `(rng seed, index into ALL_PLANS, pin)` of
/// `rand_num_commit_reveal(7, 1000, {1, 4})`.
#[rustfmt::skip]
const COMMIT_REVEAL_PINS: [(u64, usize, SyncPin); 8] = [
    (1, 0, ("445,445,445,445,445", 16, 660)),
    (1, 1, ("11,11,11,11,11", 16, 924)),
    (1, 2, ("445,445,445,445,445", 16, 804)),
    (1, 3, ("577,577,577,577,577", 16, 1116)),
    (2, 0, ("522,522,522,522,522", 16, 660)),
    (2, 1, ("126,126,126,126,126", 16, 924)),
    (2, 2, ("522,522,522,522,522", 16, 804)),
    (2, 3, ("200,200,200,200,200", 16, 1116)),
];

/// `(sender, index into ALL_PLANS, pin)` of a broadcast of 5 among 7
/// ports with `f = 2` and Byzantine ports `{0, 3}`: sender 0 is
/// Byzantine, sender 1 honest.
#[rustfmt::skip]
const BRACHA_PINS: [(usize, usize, SyncPin); 8] = [
    (0, 0, ("-,-,-,-,-", 8, 0)),
    (0, 1, ("42,42,42,42,42", 8, 90)),
    (0, 2, ("7,7,7,7,7", 8, 90)),
    (0, 3, ("-,-,-,-,-", 8, 60)),
    (1, 0, ("5,5,5,5,5", 8, 66)),
    (1, 1, ("5,5,5,5,5", 8, 90)),
    (1, 2, ("5,5,5,5,5", 8, 90)),
    (1, 3, ("5,5,5,5,5", 8, 90)),
];

/// As [`BRACHA_PINS`], for Dolev–Strong.
#[rustfmt::skip]
const DOLEV_STRONG_PINS: [(usize, usize, SyncPin); 8] = [
    (0, 0, ("-,-,-,-,-", 3, 0)),
    (0, 1, ("42,42,42,42,42", 3, 36)),
    (0, 2, ("-,-,-,-,-", 3, 66)),
    (0, 3, ("-,-,-,-,-", 3, 102)),
    (1, 0, ("5,5,5,5,5", 3, 30)),
    (1, 1, ("5,5,5,5,5", 3, 30)),
    (1, 2, ("5,5,5,5,5", 3, 30)),
    (1, 3, ("5,5,5,5,5", 3, 66)),
];

fn render<V: std::fmt::Display>(values: impl IntoIterator<Item = Option<V>>) -> String {
    let cell = |v: Option<V>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    values.into_iter().map(cell).collect::<Vec<_>>().join(",")
}

fn sync_pin<V: Copy>(
    r: &ProtocolResult<V>,
    decide: impl Fn(V) -> Option<u64>,
) -> (String, u64, u64) {
    let decisions = render(r.decisions.values().map(|&v| decide(v)));
    (decisions, r.rounds, r.messages)
}

fn observe_discover(seed: u64, byz: usize) -> (u64, u64, bool) {
    let graph = gen::erdos_renyi(40, 0.2, &mut DetRng::new(seed));
    let byz: BTreeSet<usize> = (0..byz).collect();
    let ledger = &mut Ledger::new();
    let out = discover(&graph, &byz, ledger);
    let stats = ledger.stats(CostKind::Discovery);
    assert_eq!(
        (stats.total_messages, stats.total_rounds),
        (out.message_units, out.rounds)
    );
    (out.rounds, out.message_units, out.complete)
}

fn observe_clusterize(seed: u64) -> (String, u64, u64, u64) {
    let byz: BTreeSet<usize> = (0..60).step_by(5).collect();
    let ledger = &mut Ledger::new();
    let out = clusterize(60, &byz, 4, ledger, &mut DetRng::new(seed));
    let committee = render(out.committee.iter().map(Some));
    let total = ledger.total();
    (committee, out.seed, total.messages, total.rounds)
}

fn observe_commit_reveal(seed: u64, plan: ByzPlan) -> (String, u64, u64) {
    let byz: BTreeSet<usize> = [1, 4].into_iter().collect();
    let ledger = &mut Ledger::new();
    let r = rand_num_commit_reveal(7, 1000, &byz, plan, ledger, &mut DetRng::new(seed));
    let total = ledger.total();
    assert_eq!((total.messages, total.rounds), (r.messages, r.rounds));
    sync_pin(&r, Some)
}

type Broadcast = fn(
    usize,
    usize,
    u64,
    &BTreeSet<usize>,
    usize,
    ByzPlan,
    &mut Ledger,
    &mut DetRng,
) -> ProtocolResult<Option<u64>>;

fn observe_broadcast(run: Broadcast, sender: usize, plan: ByzPlan) -> (String, u64, u64) {
    let byz: BTreeSet<usize> = [0, 3].into_iter().collect();
    let ledger = &mut Ledger::new();
    let r = run(7, sender, 5, &byz, 2, plan, ledger, &mut DetRng::new(11));
    let total = ledger.total();
    assert_eq!((total.messages, total.rounds), (r.messages, r.rounds));
    sync_pin(&r, |v| v)
}

#[test]
fn sync_protocols_replay_the_parent_commit() {
    for (seed, byz, rounds, units, complete) in DISCOVER_PINS {
        let got = observe_discover(seed, byz);
        assert_eq!(
            got,
            (rounds, units, complete),
            "discover, seed {seed}, {byz} Byzantine"
        );
    }
    for (seed, committee, agreed, messages, rounds) in CLUSTERIZE_PINS {
        let got = observe_clusterize(seed);
        let want = (committee.to_string(), agreed, messages, rounds);
        assert_eq!(got, want, "clusterize, seed {seed}");
    }
    let owned = |(d, r, m): SyncPin| (d.to_string(), r, m);
    for (seed, plan, pin) in COMMIT_REVEAL_PINS {
        let plan = ALL_PLANS[plan];
        let got = observe_commit_reveal(seed, plan);
        assert_eq!(
            got,
            owned(pin),
            "commit-reveal randNum, seed {seed}, {plan:?}"
        );
    }
    let protocols: [(&str, Broadcast, _); 2] = [
        ("bracha", run_bracha::<DetRng>, BRACHA_PINS),
        (
            "dolev-strong",
            run_dolev_strong::<DetRng>,
            DOLEV_STRONG_PINS,
        ),
    ];
    for (name, run, pins) in protocols {
        for (sender, plan, pin) in pins {
            let plan = ALL_PLANS[plan];
            let got = observe_broadcast(run, sender, plan);
            assert_eq!(got, owned(pin), "{name}, sender {sender}, {plan:?}");
        }
    }
}
