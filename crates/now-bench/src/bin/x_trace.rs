//! X-TRACE — the deterministic flight recorder and metrics registry,
//! end to end.
//!
//! Usage: `x_trace [--out-dir <dir>]`
//!
//! Replays a fixed mixed workload — balanced churn and a
//! split-forcing burst on the canonical engine, then lossy event-driven
//! churn — on one system with both observability sinks armed, and
//! writes three artifacts into `--out-dir` (default `results/`; created
//! if missing, and a directory or file that cannot be written exits
//! with code 2, naming it):
//!
//! * `x_trace.trace.json` — the flight recorder's retained ring
//!   (canonical op order) plus the violation dump, if any,
//! * `x_trace.metrics.json` — the metrics registry in canonical
//!   sorted-key JSON,
//! * `x_trace.metrics.prom` — the same registry in Prometheus text
//!   exposition format.
//!
//! All three artifacts contain only deterministic outcome fields — no
//! wall-clock — so CI's `trace-smoke` job byte-diffs two runs, checks
//! them against committed sums and greps them for banned
//! run-environment vocabulary.

use now_adversary::BatchSplitForcing;
use now_bench::{results_dir, write_artifact};
use now_core::{ExecConfig, NowParams, NowSystem};
use now_net::EventNetConfig;
use now_sim::{BatchRandomChurn, BatchRun};
use std::path::PathBuf;
use std::process::ExitCode;

const SEED: u64 = 0x7ACE;
const RING: usize = 1024;

struct Args {
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut out_dir = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--out-dir" => {
                out_dir = Some(PathBuf::from(
                    argv.next().ok_or("--out-dir takes a directory path")?,
                ));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { out_dir })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("x_trace: {msg}");
            return ExitCode::from(2);
        }
    };

    let params = NowParams::for_capacity(1 << 10).expect("params");
    let mut sys = NowSystem::init_fast(params, 220, 0.10, SEED);
    sys.enable_tracing(RING);
    sys.enable_metrics();

    // Segment 1: balanced churn priced in parallel waves.
    let mut churn = BatchRandomChurn::balanced(6, 0.10);
    BatchRun::new().run(&mut sys, &mut churn, 12, SEED ^ 1);

    // Segment 2: split-forcing burst.
    let mut split = BatchSplitForcing::new(5, 0.10);
    BatchRun::new().run(&mut sys, &mut split, 8, SEED ^ 2);

    // Segment 3: lossy event-driven churn (exercises the network
    // events: send / deliver / drop).
    let mut storm = BatchRandomChurn::balanced(6, 0.10);
    let net = EventNetConfig::ideal().with_latency(2).with_drop(0.25);
    BatchRun::new()
        .exec(ExecConfig::event(net))
        .run(&mut sys, &mut storm, 10, SEED ^ 3);

    if let Err(e) = sys.check_consistency() {
        eprintln!("x_trace: post-run consistency check failed: {e}");
        return ExitCode::from(2);
    }

    let rec = sys.flight_recorder().expect("tracing was enabled");
    let metrics = sys.metrics().expect("metrics were enabled");
    let dir = args.out_dir.unwrap_or_else(results_dir);
    let artifacts = [
        (dir.join("x_trace.trace.json"), rec.to_json()),
        (dir.join("x_trace.metrics.json"), metrics.to_json()),
        (dir.join("x_trace.metrics.prom"), metrics.to_prometheus()),
    ];
    for (path, content) in &artifacts {
        if let Err(e) = write_artifact(path, content) {
            eprintln!("x_trace: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }

    println!(
        "recorded {} events ({} retained, {} evicted), {} sent / {} delivered / {} dropped",
        rec.recorded(),
        rec.len(),
        rec.evicted(),
        metrics.counter("now_net_sent_total"),
        metrics.counter("now_net_delivered_total"),
        metrics.counter("now_net_dropped_total"),
    );
    ExitCode::SUCCESS
}
