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
//! The JSON report contains only deterministic outcome fields — no
//! wall-clock, no thread counts — so CI's `event-smoke` job byte-diffs
//! `--threads 1` against `--threads 4`: every outcome is a pure
//! function of `(seed, config)`, never of the worker schedule.

use now_agreement::{run_ben_or_event, ByzPlan, CoinMode};
use now_bench::results_dir;
use now_core::{ExecConfig, NowParams, NowSystem, WavePool};
use now_net::{DetRng, EventNetConfig, Ledger};
use now_sim::{BatchRandomChurn, BatchRun, BatchRunReport, Table};
use std::collections::BTreeSet;
use std::fmt::Write as _;
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

struct NowRow {
    name: &'static str,
    report: BatchRunReport,
    population: u64,
    messages: u64,
}

fn run_now(name: &'static str, net: EventNetConfig, pool: &WavePool) -> NowRow {
    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 220, 0.10, SEED);
    let mut driver = BatchRandomChurn::balanced(WIDTH, 0.10);
    let report = BatchRun::new().exec(ExecConfig::event_in(net, pool)).run(
        &mut sys,
        &mut driver,
        STEPS,
        SEED ^ 0x5EED,
    );
    sys.check_consistency().expect("post-run consistency");
    NowRow {
        name,
        population: sys.population(),
        messages: sys.ledger().total().messages,
        report,
    }
}

struct BenOrRow {
    name: &'static str,
    decided: usize,
    all_decided: bool,
    unanimous: Option<u64>,
    phases: u64,
    messages: u64,
    dropped: u64,
    virtual_time: u64,
}

fn run_agreement(name: &'static str, net: EventNetConfig) -> BenOrRow {
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
    BenOrRow {
        name,
        decided: report.result.decisions.len(),
        all_decided: report.all_decided,
        unanimous: report.result.unanimous().copied(),
        phases: report.result.rounds,
        messages: report.result.messages,
        dropped: report.dropped,
        virtual_time: report.virtual_time,
    }
}

/// Deterministic JSON: stable key order, no wall-clock or thread
/// fields. Byte-identical across `--threads` values by construction.
fn to_json(now_rows: &[NowRow], benor_rows: &[BenOrRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"now\": [\n");
    for (i, r) in now_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"steps\": {}, \"joins\": {}, \"leaves\": {}, \
             \"rejected\": {}, \"sent\": {}, \"delivered\": {}, \"dropped\": {}, \
             \"waves\": {}, \"max_wave_width\": {}, \
             \"rounds_serial\": {}, \"rounds_parallel\": {}, \"wave_slack_rounds\": {}, \
             \"population\": {}, \"messages\": {}}}",
            r.name,
            r.report.steps,
            r.report.joins,
            r.report.leaves,
            r.report.rejected,
            r.report.sent,
            r.report.delivered,
            r.report.dropped,
            r.report.waves,
            r.report.max_wave_width,
            r.report.rounds_serial,
            r.report.rounds_parallel,
            r.report.wave_slack_rounds,
            r.population,
            r.messages,
        );
        s.push_str(if i + 1 < now_rows.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n  \"ben_or\": [\n");
    for (i, r) in benor_rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"decided\": {}, \"all_decided\": {}, \
             \"unanimous\": {}, \"phases\": {}, \"messages\": {}, \"dropped\": {}, \
             \"virtual_time\": {}}}",
            r.name,
            r.decided,
            r.all_decided,
            r.unanimous.map_or("null".into(), |v| v.to_string()),
            r.phases,
            r.messages,
            r.dropped,
            r.virtual_time,
        );
        s.push_str(if i + 1 < benor_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
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
    let now_rows: Vec<NowRow> = scenarios()
        .into_iter()
        .map(|(name, net)| run_now(name, net, &pool))
        .collect();
    let benor_rows: Vec<BenOrRow> = scenarios()
        .into_iter()
        .map(|(name, net)| run_agreement(name, net))
        .collect();

    println!(
        "# X-EVENT-RUNTIME ({} workers; outputs are worker-count invariant)\n",
        args.threads
    );
    println!("## NOW on the event scheduler\n");
    let mut table = Table::new([
        "scenario",
        "steps",
        "joins",
        "leaves",
        "sent",
        "delivered",
        "dropped",
        "waves",
        "max_width",
        "rounds_par",
        "population",
        "messages",
    ]);
    for r in &now_rows {
        table.row([
            r.name.into(),
            r.report.steps.into(),
            r.report.joins.into(),
            r.report.leaves.into(),
            r.report.sent.into(),
            r.report.delivered.into(),
            r.report.dropped.into(),
            r.report.waves.into(),
            r.report.max_wave_width.into(),
            r.report.rounds_parallel.into(),
            r.population.into(),
            r.messages.into(),
        ]);
    }
    println!("{}", table.to_markdown());

    println!("## Ben-Or on the event scheduler\n");
    let mut table = Table::new([
        "scenario",
        "decided",
        "all_decided",
        "unanimous",
        "phases",
        "messages",
        "dropped",
        "virtual_time",
    ]);
    for r in &benor_rows {
        table.row([
            r.name.into(),
            r.decided.into(),
            r.all_decided.into(),
            r.unanimous.map_or("-".into(), |v| v.to_string().into()),
            r.phases.into(),
            r.messages.into(),
            r.dropped.into(),
            r.virtual_time.into(),
        ]);
    }
    println!("{}", table.to_markdown());

    let json = to_json(&now_rows, &benor_rows);
    let out_path = args
        .out
        .unwrap_or_else(|| results_dir().join("x_event_runtime.json"));
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("x_event_runtime: cannot write {}: {e}", out_path.display());
        return ExitCode::from(2);
    }
    println!("wrote {}", out_path.display());
    ExitCode::SUCCESS
}
