//! Cross-commit replay of the paper's one-operation-per-step model: the
//! one loop — `decide_batch` → `step_batch(≤ 1 op)` — must land on the
//! pinned state, cost and operation counts.
//!
//! The pins were last re-recorded when OVER's `Add` began to splice a
//! split's new cluster into existing edges and its `Remove` to re-pair a
//! merged victim's neighbours; that change is their one cause, and only
//! the runs with a split or a merge moved. Before it they were
//! re-recorded when a walk hop began to draw its hold and its neighbour
//! from one `randNum` instead of two, and before that when the one-op
//! engine began drawing every op from its own `DetRng::for_op(master,
//! step, canon)` substream instead of the system's shared stream. A batch of at most one
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
    ("batch-random-churn", 150, 1, (88, 62, 226, 34, 391690768, 421080, (88, 62, 2, 0))),
    ("batch-random-churn", 150, 2, (82, 68, 214, 32, 409402284, 365163, (82, 68, 0, 0))),
    ("batch-random-churn", 150, 3, (81, 69, 212, 31, 428911309, 367750, (81, 69, 0, 0))),
    ("batch-join-leave", 150, 1, (75, 75, 200, 30, 422305085, 387136, (75, 75, 1, 0))),
    ("batch-join-leave", 150, 2, (75, 75, 200, 30, 406151262, 417748, (75, 75, 1, 0))),
    ("batch-join-leave", 150, 3, (75, 75, 200, 30, 410435281, 426244, (75, 75, 1, 0))),
    ("batch-sawtooth", 300, 1, (160, 140, 220, 33, 835941656, 830011, (255, 140, 6, 5))),
    ("batch-sawtooth", 300, 2, (160, 140, 220, 33, 784782418, 700046, (198, 140, 4, 2))),
    ("batch-sawtooth", 300, 3, (160, 140, 220, 33, 808058392, 1064078, (274, 140, 7, 6))),
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
