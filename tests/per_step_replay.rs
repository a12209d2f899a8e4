//! Cross-commit replay of the paper's one-operation-per-step model: the
//! pins were recorded at the parent of the change that deleted the
//! per-step loop (`now_sim::run`, one `join`/`join_via`/`leave` call per
//! step); the one loop — `decide_batch` → `step_batch(≤ 1 op, Serial)` —
//! must land on the same state, cost and operation counts.

use now_bft::adversary::{BatchDriver, JoinLeaveAttack};
use now_bft::core::{NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun, BatchSawtooth};

/// `(joins, leaves, population, byz, ledger messages, rounds, op_counts)`.
type Pin = (u64, u64, u64, u64, u64, u64, (u64, u64, u64, u64));

/// `(driver, steps, seed, pin)`.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, Pin); 9] = [
    ("batch-random-churn", 150, 1, (88, 62, 226, 34, 611987871, 580499, (88, 62, 1, 0))),
    ("batch-random-churn", 150, 2, (82, 68, 214, 32, 585281348, 520689, (82, 68, 0, 0))),
    ("batch-random-churn", 150, 3, (81, 69, 212, 31, 611796300, 525301, (81, 69, 0, 0))),
    ("join-leave-attack", 150, 1, (75, 75, 200, 30, 602127336, 551976, (75, 75, 0, 0))),
    ("join-leave-attack", 150, 2, (75, 75, 200, 30, 617856948, 661106, (75, 75, 1, 0))),
    ("join-leave-attack", 150, 3, (75, 75, 200, 30, 601466058, 577568, (75, 75, 1, 0))),
    ("batch-sawtooth", 300, 1, (160, 140, 220, 33, 1175327025, 1048536, (198, 140, 3, 2))),
    ("batch-sawtooth", 300, 2, (160, 140, 220, 33, 1279190857, 1375180, (255, 140, 6, 5))),
    ("batch-sawtooth", 300, 3, (160, 140, 220, 33, 1222217194, 1101004, (236, 140, 5, 4))),
];

#[test]
fn per_step_strategies_replay_the_parent_commit() {
    for (name, steps, seed, pin) in PINS {
        let params = NowParams::new(1 << 10, 3, 1.5, 0.25, 0.05).unwrap();
        let mut sys = NowSystem::init_fast(params, 200, 0.15, seed);
        let mut driver: Box<dyn BatchDriver> = match name {
            "batch-random-churn" => Box::new(BatchRandomChurn::balanced(1, 0.15)),
            "join-leave-attack" => Box::new(JoinLeaveAttack::new(sys.cluster_ids()[0], 0.15)),
            _ => Box::new(BatchSawtooth::new(120, 260, 1, 0.15)),
        };
        assert_eq!(driver.name(), name);
        let report = BatchRun::new().run(&mut sys, driver.as_mut(), steps, seed ^ 9);
        assert_eq!(sys.time_step(), steps, "time advances once per step");
        assert!(report.max_wave_width <= 1, "at most one op per step");
        let (pop, byz, total) = (sys.population(), sys.byz_population(), sys.ledger().total());
        let counts = (
            report.joins,
            report.leaves,
            pop,
            byz,
            total.messages,
            total.rounds,
        );
        let (joins, leaves, pop, byz, messages, rounds, ops) = pin;
        assert_eq!(
            counts,
            (joins, leaves, pop, byz, messages, rounds),
            "{name}, seed {seed}"
        );
        assert_eq!(sys.op_counts(), ops, "{name}, seed {seed}");
    }
}
