//! The four churn workloads: what is built, which engine runs it, and
//! how many steps a run of a given length executes.
//!
//! Step counts are a pure function of `(workload, --seconds, --quick)`,
//! never of elapsed time, so the simulated statistics of a seed
//! (`msgs_per_op`, `rounds_per_step`, the state digest) repeat exactly
//! across runs and commits. `steps_per_second` is each workload's rate
//! at the parent commit on the 2-vCPU reference box, so a run's timed
//! loop lasts about `--seconds` there.

use now_adversary::{
    BatchBurstChurn, BatchDriver, BatchJoinLeave, BatchMergeForcing, BatchSplitForcing, ClusterPick,
};
use now_core::{EventNetConfig, ExecConfig, NowParams, NowSystem, WavePool};
use now_sim::{BatchRandomChurn, BatchSawtooth};

/// Pool workers of every pooled/event workload (the reference box has
/// two cores).
pub const POOL_WORKERS: usize = 2;

/// Fewest steps a full-length run may have: the 90th percentile of the
/// step time then has at least ten samples beyond it.
pub const MIN_STEPS: u64 = 110;

/// Which `ExecConfig` a run steps with.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    Serial,
    Scheduled,
    Pooled,
    Event,
}

/// What the drivers of a workload do to the population.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// `BatchRandomChurn::balanced(8, τ₀)`: the population holds.
    Steady,
    /// The growth half of `BatchSawtooth`: 64 joins per step.
    Grow,
    /// The six adversarial phases of [`STORM_PHASES`].
    Storm,
}

/// The static description of one workload.
pub struct Spec {
    pub name: &'static str,
    pub churn: Churn,
    pub capacity: u64,
    pub k: usize,
    pub clusters: usize,
    pub tau0: f64,
    pub engine: Engine,
    /// A second engine replayed over a prefix of the run for the
    /// cross-engine per-layer metrics (`None`: nothing to compare).
    pub reference: Option<Engine>,
    /// Steps per requested second (see the module docs).
    pub steps_per_second: f64,
    /// Most steps the population band `[√N, N]` leaves room for.
    pub max_steps: u64,
    /// Serial `join`/`leave` pairs the kernel probe times: a `leave`
    /// costs 8 ms on the small systems but 60 ms on `grow_wide`.
    pub op_probes: usize,
}

pub const SPECS: [Spec; 4] = [
    // The serial op kernel does all the work; planner, pool and event
    // net do none.
    Spec {
        name: "steady_serial",
        churn: Churn::Steady,
        capacity: 1 << 12,
        k: 2,
        clusters: 128,
        tau0: 0.05,
        engine: Engine::Serial,
        reference: None,
        steps_per_second: STEADY_RATE,
        max_steps: u64::MAX,
        op_probes: 160,
    },
    // Byte-identical inputs to steady_serial on the pooled wave engine:
    // the pair isolates what plan/apply adds at wave width ≈ 1.1.
    Spec {
        name: "steady_pooled",
        churn: Churn::Steady,
        capacity: 1 << 12,
        k: 2,
        clusters: 128,
        tau0: 0.05,
        engine: Engine::Pooled,
        reference: Some(Engine::Serial),
        steps_per_second: STEADY_RATE,
        max_steps: u64::MAX,
        op_probes: 160,
    },
    // Joins only on the largest state: footprints, wave partition,
    // planner views, canonical fold and the pool fan-out dominate.
    Spec {
        name: "grow_wide",
        churn: Churn::Grow,
        capacity: 1 << 16,
        k: 2,
        clusters: 1024,
        tau0: 0.05,
        engine: Engine::Pooled,
        reference: Some(Engine::Scheduled),
        steps_per_second: 9.0,
        // 32 768 + 64 joins/step stays ≤ N = 65 536 up to 512 steps.
        max_steps: 500,
        op_probes: 32,
    },
    // Adversarial drivers, split/merge maintenance, delivery-order
    // execution and the event net on a small state.
    Spec {
        name: "storm_event",
        churn: Churn::Storm,
        capacity: 1 << 11,
        k: 3,
        clusters: 20,
        tau0: 0.10,
        engine: Engine::Event,
        reference: None,
        steps_per_second: 47.5,
        // The split-forcing phase adds 6 nodes/step for 2/9 of the run;
        // 660 + 6 · 2/9 · 950 stays below N = 2048.
        max_steps: 950,
        op_probes: 160,
    },
];

/// One rate for the steady pair, so both execute the same inputs: the
/// serial engine finishes in ≈ 0.8 × `--seconds`, the pooled one in
/// ≈ 1.2 ×.
const STEADY_RATE: f64 = 24.0;

/// The storm's six phases and their weights (the step counts of
/// `workloads/storm.campaign`, whose total is 900). Half the burst
/// steps cost 75–125 ms against ≤ 60 ms anywhere else; at weight 100
/// they are ≈ 5 % of the run, so `step_ms_p90` falls among the ≈ 40 ms
/// steps of `rejoin` and `recover` and not on the edge of the burst
/// mode, where it would jump from seed to seed.
pub const STORM_PHASES: [(&str, u64); 6] = [
    ("calm", 125),
    ("squeeze", 200),
    ("flood", 200),
    ("rejoin", 150),
    ("burst", 100),
    ("recover", 125),
];

/// One stretch of a run under one driver and one network model.
pub struct Phase {
    pub name: &'static str,
    pub driver: Box<dyn BatchDriver>,
    pub net: EventNetConfig,
    pub steps: u64,
}

/// Everything `setup_s` pays for: parameters, the initial system, the
/// worker pool and the drivers.
pub struct Built {
    pub sys: NowSystem,
    pub pool: Option<WavePool>,
    pub phases: Vec<Phase>,
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// `l = 1.5`, τ-bound 0.30, `ε = 0.05` on every workload.
    pub fn params(&self) -> NowParams {
        NowParams::new(self.capacity, self.k, 1.5, 0.30, 0.05)
            .expect("workload parameters are valid")
    }

    /// Steps of a run asked to measure for `seconds`; `--quick` runs a
    /// twentieth of them (smoke only).
    pub fn steps(&self, seconds: u64, quick: bool) -> u64 {
        let full = (self.steps_per_second * seconds as f64).round() as u64;
        let full = full.clamp(MIN_STEPS, self.max_steps);
        if quick {
            (full / 20).max(6)
        } else {
            full
        }
    }

    /// Builds the system, pool and drivers of a `steps`-long run on
    /// `engine` (the workload's own, or its reference engine).
    pub fn build(&self, seed: u64, steps: u64, engine: Engine) -> Built {
        let params = self.params();
        let n0 = self.clusters * params.target_cluster_size();
        let sys = NowSystem::init_fast(params, n0, self.tau0, seed);
        let pool =
            matches!(engine, Engine::Pooled | Engine::Event).then(|| WavePool::new(POOL_WORKERS));
        let ideal = EventNetConfig::ideal();
        let phases = match self.churn {
            Churn::Grow => vec![Phase {
                name: "grow",
                driver: Box::new(BatchSawtooth::new(1, u64::MAX, 64, self.tau0)),
                net: ideal,
                steps,
            }],
            Churn::Storm => storm_phases(self.tau0, steps),
            Churn::Steady => vec![Phase {
                name: "steady",
                driver: Box::new(BatchRandomChurn::balanced(8, self.tau0)),
                net: ideal,
                steps,
            }],
        };
        Built { sys, pool, phases }
    }
}

/// Splits `steps` over the six storm phases by weight; cumulative
/// rounding keeps the total exact.
fn storm_phases(tau: f64, steps: u64) -> Vec<Phase> {
    let ideal = EventNetConfig::ideal();
    let slow = ideal.with_latency(3).with_jitter(4);
    let lossy = ideal.with_latency(2).with_jitter(3).with_drop(0.05);
    let split = lossy.with_partition(2).healing_at(4);
    let drivers: [(Box<dyn BatchDriver>, EventNetConfig); 6] = [
        (Box::new(BatchRandomChurn::balanced(6, tau)), ideal),
        (Box::new(BatchMergeForcing::new(6, tau).with_pick(ClusterPick::First)), slow),
        (Box::new(BatchSplitForcing::new(6, tau)), lossy),
        (Box::new(BatchJoinLeave::new(6, 0.12)), lossy),
        (Box::new(BatchBurstChurn::new(8, tau)), split),
        (Box::new(BatchRandomChurn::balanced(6, tau)), ideal),
    ];
    let total: u64 = STORM_PHASES.iter().map(|p| p.1).sum();
    let mut done_weight = 0;
    let mut done_steps = 0;
    drivers
        .into_iter()
        .zip(STORM_PHASES)
        .map(|((driver, net), (name, weight))| {
            done_weight += weight;
            let upto = steps * done_weight / total;
            let phase = Phase { name, driver, net, steps: upto - done_steps };
            done_steps = upto;
            phase
        })
        .collect()
}

/// The `ExecConfig` of one phase.
pub fn exec_config(engine: Engine, net: EventNetConfig, pool: Option<&WavePool>) -> ExecConfig<'_> {
    match (engine, pool) {
        (Engine::Serial, _) => ExecConfig::serial(),
        (Engine::Scheduled, _) => ExecConfig::scheduled(),
        (Engine::Pooled, Some(pool)) => ExecConfig::pooled(pool),
        (Engine::Event, Some(pool)) => ExecConfig::event_in(net, pool),
        (Engine::Pooled | Engine::Event, None) => {
            unreachable!("`build` makes a pool for every pooled and event run")
        }
    }
}
