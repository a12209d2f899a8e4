//! Cross-commit replay of the paper's one-operation-per-step model: the
//! one loop — `decide_batch` → `step_batch(≤ 1 op)` — must land on the
//! pinned state, cost and operation counts.
//!
//! The pins were re-recorded when the one-op engine began drawing every
//! op from its own `DetRng::for_op(master, step, canon)` substream
//! instead of the system's shared stream; that change is their one
//! cause. Before it they were recorded at the parent of the change that
//! deleted the per-step loop (`now_sim::run`). A batch of at most one
//! op runs the same way on both engines, so the canonical engine and
//! the event engine on the ideal network must both land on every pin.

use now_bft::adversary::{BatchDriver, BatchJoinLeave, ClusterPick, OnePerStep};
use now_bft::core::{EventNetConfig, ExecConfig, NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun, BatchSawtooth};

/// `(joins, leaves, population, byz, ledger messages, rounds, op_counts)`.
type Pin = (u64, u64, u64, u64, u64, u64, (u64, u64, u64, u64));

/// `(driver, steps, seed, pin)`.
#[rustfmt::skip]
const PINS: [(&str, u64, u64, Pin); 9] = [
    ("batch-random-churn", 150, 1, (88, 62, 226, 34, 586930828, 485701, (88, 62, 0, 0))),
    ("batch-random-churn", 150, 2, (82, 68, 214, 32, 575320215, 516005, (82, 68, 0, 0))),
    ("batch-random-churn", 150, 3, (81, 69, 212, 31, 611233232, 524605, (81, 69, 0, 0))),
    ("batch-join-leave", 150, 1, (75, 75, 200, 30, 630180696, 640407, (94, 75, 1, 1))),
    ("batch-join-leave", 150, 2, (75, 75, 200, 30, 601461513, 560656, (75, 75, 1, 0))),
    ("batch-join-leave", 150, 3, (75, 75, 200, 30, 602346672, 592126, (75, 75, 1, 0))),
    ("batch-sawtooth", 300, 1, (160, 140, 220, 33, 1268015403, 1273575, (255, 140, 5, 5))),
    ("batch-sawtooth", 300, 2, (160, 140, 220, 33, 1244301636, 1297451, (236, 140, 5, 4))),
    ("batch-sawtooth", 300, 3, (160, 140, 220, 33, 1268877177, 1190511, (255, 140, 6, 5))),
];

#[test]
fn per_step_strategies_replay_the_parent_commit() {
    for exec in [
        ExecConfig::Canonical,
        ExecConfig::event(EventNetConfig::ideal()),
    ] {
        for (name, steps, seed, pin) in PINS {
            let params = NowParams::new(1 << 10, 3, 1.5, 0.25, 0.05).unwrap();
            let mut sys = NowSystem::init_fast(params, 200, 0.15, seed);
            let mut driver: Box<dyn BatchDriver> = match name {
                "batch-random-churn" => Box::new(BatchRandomChurn::balanced(1, 0.15)),
                "batch-join-leave" => Box::new(OnePerStep::new(
                    BatchJoinLeave::new(1, 0.15).with_pick(ClusterPick::First),
                )),
                _ => Box::new(BatchSawtooth::new(120, 260, 1, 0.15)),
            };
            assert_eq!(driver.name(), name);
            let report = BatchRun::new()
                .exec(exec)
                .run(&mut sys, driver.as_mut(), steps, seed ^ 9);
            assert_eq!(sys.time_step(), steps, "time advances once per step");
            assert!(report.max_wave_width <= 1, "at most one op per step");
            let total = sys.ledger().total();
            let got = (
                report.joins,
                report.leaves,
                sys.population(),
                sys.byz_population(),
                total.messages,
                total.rounds,
                sys.op_counts(),
            );
            assert_eq!(got, pin, "{name}, seed {seed}, {exec:?}");
        }
    }
}
