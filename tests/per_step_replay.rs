//! Cross-commit replay of the paper's one-operation-per-step model: the
//! one loop — `decide_batch` → `step_batch(≤ 1 op)` — must land on the
//! state, cost and operation counts pinned in `pins/pins.txt`. A batch
//! of at most one op runs the same way on both engines, so the canonical
//! engine and the event engine on the ideal network must agree on every
//! case before its pin is compared.

mod pins;

use now_bft::adversary::{BatchDriver, BatchJoinLeave, ClusterPick, OnePerStep};
use now_bft::core::{EventNetConfig, ExecConfig, NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun, BatchSawtooth};

/// `(driver, steps)`, each run at seeds 1 to 3.
const CASES: [(&str, u64); 3] = [
    ("batch-random-churn", 150),
    ("batch-join-leave", 150),
    ("batch-sawtooth", 300),
];

/// `driver` for `steps` steps on `exec` from `seed`: joins, leaves,
/// population, byz, ledger messages, ledger rounds, then the op counts.
fn run(name: &str, steps: u64, seed: u64, exec: ExecConfig<'_>) -> String {
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
    let (joins, leaves, splits, merges) = sys.op_counts();
    pins::value(&[
        report.joins,
        report.leaves,
        sys.population(),
        sys.byz_population(),
        total.messages,
        total.rounds,
        joins,
        leaves,
        splits,
        merges,
    ])
}

#[test]
fn per_step_strategies_replay_the_parent_commit() {
    let ideal = ExecConfig::event(EventNetConfig::ideal());
    let mut got = Vec::new();
    for (name, steps) in CASES {
        for seed in 1..=3 {
            let canonical = run(name, steps, seed, ExecConfig::Canonical);
            let event = run(name, steps, seed, ideal);
            assert_eq!(canonical, event, "{name}, seed {seed}: engines disagree");
            got.push((format!("replay/{name}/{steps}/{seed}"), canonical));
        }
    }
    pins::check("replay/", &got);
}
