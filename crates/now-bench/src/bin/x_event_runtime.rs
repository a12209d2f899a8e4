//! X-EVENT-RUNTIME — the deterministic event-driven network runtime,
//! end to end.
//!
//! Usage: `x_event_runtime [--threads N] [--out <path>]`
//!
//! Exercises both consumers of the seeded discrete-event scheduler
//! ([`now_net::EventNet`]) across a fixed ladder of per-link network
//! models (ideal → latency+jitter → lossy → partition-and-heal):
//!
//! * **NOW on the event engine**: batched churn where joins travel as
//!   routed messages and leaves as self-messages, delivery order
//!   re-partitioned into conflict-free waves ([`now_core::ExecConfig::Event`]).
//! * **Ben-Or on [`now_net::EventNet`]**: asynchronous binary consensus
//!   whose liveness visibly degrades with loss and partitions while
//!   safety holds ([`now_agreement::run_ben_or_event`]).
//!
//! The JSON report holds the same two tables the binary prints, one
//! object per row. They contain only deterministic outcome fields — no
//! wall-clock, no thread counts — so CI's `event-smoke` job byte-diffs
//! `--threads 1` against `--threads 4`: every outcome is a pure
//! function of `(seed, config)`, never of the worker schedule.

use now_agreement::{run_ben_or_event, ByzPlan, CoinMode};
use now_bench::results_dir;
use now_core::{ExecConfig, Json, NowParams, NowSystem, WavePool};
use now_net::{DetRng, EventNetConfig, Ledger};
use now_sim::{BatchRandomChurn, BatchRun, Cell, Table};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

const SEED: u64 = 0xE7E7;
const STEPS: u64 = 40;
const WIDTH: usize = 6;

struct Args {
    threads: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut threads = 1usize;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threads" => {
                threads = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t > 0)
                    .ok_or("--threads takes a positive integer")?;
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out takes a file path")?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { threads, out })
}

/// The network-model ladder every consumer runs through.
fn scenarios() -> Vec<(&'static str, EventNetConfig)> {
    vec![
        ("ideal", EventNetConfig::ideal()),
        (
            "latency_jitter",
            EventNetConfig::ideal().with_latency(3).with_jitter(4),
        ),
        (
            "lossy",
            EventNetConfig::ideal().with_latency(2).with_drop(0.2),
        ),
        (
            "partition_heal",
            EventNetConfig::ideal()
                .with_latency(2)
                .with_partition(2)
                .healing_at(STEPS / 2),
        ),
    ]
}

/// One row of the NOW table: batched churn on the event engine.
fn run_now(name: &'static str, net: EventNetConfig, pool: &WavePool) -> Vec<Cell> {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 220, 0.10, SEED);
    let mut driver = BatchRandomChurn::balanced(WIDTH, 0.10);
    let r = BatchRun::new().exec(ExecConfig::event_in(net, pool)).run(
        &mut sys,
        &mut driver,
        STEPS,
        SEED ^ 0x5EED,
    );
    sys.check_consistency().expect("post-run consistency");
    vec![
        name.into(),
        r.steps.into(),
        r.joins.into(),
        r.leaves.into(),
        r.rejected.into(),
        r.sent.into(),
        r.delivered.into(),
        r.dropped.into(),
        r.waves.into(),
        r.max_wave_width.into(),
        r.rounds_serial.into(),
        r.rounds_parallel.into(),
        r.wave_slack_rounds.into(),
        sys.population().into(),
        sys.ledger().total().messages.into(),
    ]
}

/// One row of the Ben-Or table: asynchronous consensus on the event
/// net.
fn run_agreement(name: &'static str, net: EventNetConfig) -> Vec<Cell> {
    const N: usize = 8;
    const F: usize = 1;
    let byz: BTreeSet<usize> = [N - 1].into_iter().collect();
    let inputs: Vec<u64> = (0..N as u64).map(|p| p % 2).collect();
    let mut ledger = Ledger::new();
    let mut rng = DetRng::new(SEED ^ 0xBE50);
    let report = run_ben_or_event(
        N,
        &inputs,
        &byz,
        F,
        ByzPlan::Equivocate(0, 1),
        CoinMode::Common { seed: SEED },
        net,
        64,
        &mut ledger,
        &mut rng,
    );
    vec![
        name.into(),
        report.result.decisions.len().into(),
        report.all_decided.into(),
        report.result.unanimous().map_or("-".into(), |&v| v.into()),
        report.result.rounds.into(),
        report.result.messages.into(),
        report.dropped.into(),
        report.virtual_time.into(),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("x_event_runtime: {msg}");
            return ExitCode::from(2);
        }
    };

    let pool = WavePool::new(args.threads);
    let mut now_table = Table::new([
        "scenario",
        "steps",
        "joins",
        "leaves",
        "rejected",
        "sent",
        "delivered",
        "dropped",
        "waves",
        "max_width",
        "rounds_serial",
        "rounds_par",
        "wave_slack_rounds",
        "population",
        "messages",
    ]);
    for (name, net) in scenarios() {
        now_table.row(run_now(name, net, &pool));
    }
    let mut ben_or_table = Table::new([
        "scenario",
        "decided",
        "all_decided",
        "unanimous",
        "phases",
        "messages",
        "dropped",
        "virtual_time",
    ]);
    for (name, net) in scenarios() {
        ben_or_table.row(run_agreement(name, net));
    }

    println!(
        "# X-EVENT-RUNTIME ({} workers; outputs are worker-count invariant)\n",
        args.threads
    );
    println!("## NOW on the event scheduler\n");
    println!("{}", now_table.to_markdown());
    println!("## Ben-Or on the event scheduler\n");
    println!("{}", ben_or_table.to_markdown());

    let json = Json::object([("now", now_table.json()), ("ben_or", ben_or_table.json())]);
    let out_path = args
        .out
        .unwrap_or_else(|| results_dir().join("x_event_runtime.json"));
    if let Err(e) = std::fs::write(&out_path, json.render()) {
        eprintln!("x_event_runtime: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out_path.display());
    ExitCode::SUCCESS
}
