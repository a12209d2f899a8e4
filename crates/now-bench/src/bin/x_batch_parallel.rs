//! X-BATCH — the parallel-operations footnote, scheduled *and executed*.
//!
//! The paper proves its claims for one join/leave per time step and
//! notes (§2, footnote): *"the analysis can be generalized to several
//! parallel join and leave operations."* We sweep the batch width `w`
//! and measure:
//!
//! * per-operation message cost (should be flat — parallelism does not
//!   change an operation's traffic, only which state it runs on),
//! * round complexity per time step: serial sum vs the scheduled
//!   per-wave maxima, the wave counts, and the per-wave *slack*
//!   (Σ `rounds_total − rounds_max` — the serial rounds the schedule
//!   saves), and
//! * with `--threads N`: the **measured** wall-clock speedup of the
//!   pooled engine over its own 1-thread run, next to the *estimated*
//!   round-complexity speedup — schedule model vs hardware reality on
//!   the same batches.
//!
//! Every run executes the conflict-free waves over cluster footprints:
//! without `--threads` on the driving thread (`ExecConfig::scheduled`),
//! with `--threads N` on an N-thread `WavePool` (`ExecConfig::pooled`:
//! the driving thread and N − 1 workers).
//! The two are bit-identical, so the report does not say which ran.
//!
//! `--smoke` runs a reduced sweep for CI. The CSV and JSON hold the
//! deterministic outcome table only; the wall-clock columns go to a
//! second, advisory table on stdout. So CI can diff the JSON two ways:
//! two runs of the same seed must be byte-identical (`batch-smoke`),
//! and the default run, `--threads 1` and `--threads 4` must be
//! byte-identical (the cross-thread determinism gate).

use now_bench::results_dir;
use now_core::{ExecConfig, Json, NowParams, NowSystem, WavePool};
use now_sim::{BatchRandomChurn, BatchRun, Table};

fn run_once(
    width: usize,
    total_ops: u64,
    clusters: usize,
    capacity: u64,
    exec: ExecConfig<'_>,
) -> (now_sim::BatchRunReport, NowSystem, u64) {
    let params = NowParams::for_capacity(capacity).unwrap();
    let n0 = clusters * params.target_cluster_size();
    let mut sys = NowSystem::init_fast(params, n0, 0.10, 4200 + width as u64);
    let mut driver = BatchRandomChurn::balanced(width, 0.10);
    let steps = total_ops / width as u64;
    let report = BatchRun::new()
        .exec(exec)
        .run(&mut sys, &mut driver, steps, 11 + width as u64);
    sys.check_consistency().unwrap();
    (report, sys, steps)
}

/// Runs the sweep; returns the deterministic outcome table and the
/// advisory wall-clock table.
fn sweep(
    widths: &[usize],
    total_ops: u64,
    clusters: usize,
    capacity: u64,
    threads: Option<usize>,
    smoke: bool,
) -> (Table, Table) {
    let mut table = Table::new([
        "width",
        "steps",
        "ops",
        "msgs_per_op",
        "rounds_serial",
        "rounds_parallel",
        "waves",
        "max_wave_width",
        "wave_slack",
        "est_speedup",
        "binding_violations",
    ]);
    let mut wall = Table::new(["width", "wall_ms", "meas_speedup"]);
    let pool = threads.map(WavePool::new);
    let exec = pool
        .as_ref()
        .map_or(ExecConfig::scheduled(), ExecConfig::pooled);
    for &width in widths {
        let (report, sys, steps) = run_once(width, total_ops, clusters, capacity, exec);
        // Measured speedup: re-run the identical batches single-worker
        // and compare wall clocks (outcomes are bit-identical, so this
        // is the same work, minus the concurrency). Skipped under
        // --smoke: the CI gates byte-diff only the JSON, which excludes
        // wall-clock, so the baseline re-run would be discarded work.
        let meas_speedup = match threads {
            Some(t) if t > 1 && !smoke => {
                let one_worker = WavePool::new(1);
                let (baseline, _, _) = run_once(
                    width,
                    total_ops,
                    clusters,
                    capacity,
                    ExecConfig::pooled(&one_worker),
                );
                assert_eq!(
                    (baseline.joins, baseline.leaves, baseline.rounds_parallel),
                    (report.joins, report.leaves, report.rounds_parallel),
                    "cross-thread determinism violated in sweep"
                );
                baseline.wall_nanos as f64 / report.wall_nanos.max(1) as f64
            }
            _ => 1.0,
        };
        let ops = report.joins + report.leaves;
        let batch_stats = sys.ledger().stats(now_net::CostKind::Batch);
        let msgs_per_op = if ops == 0 {
            0.0
        } else {
            batch_stats.total_messages as f64 / ops as f64
        };
        table.row([
            width.into(),
            steps.into(),
            ops.into(),
            msgs_per_op.into(),
            report.rounds_serial.into(),
            report.rounds_parallel.into(),
            report.waves.into(),
            report.max_wave_width.into(),
            report.wave_slack_rounds.into(),
            report.parallel_speedup().into(),
            report
                .binding_violations(now_core::SecurityMode::Plain)
                .into(),
        ]);
        wall.row([
            width.into(),
            (report.wall_nanos as f64 / 1e6).into(),
            meas_speedup.into(),
        ]);
    }
    (table, wall)
}

fn parse_threads() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--threads").map(|i| {
        args.get(i + 1)
            .and_then(|v| v.parse().ok())
            .expect("--threads takes a positive integer")
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = parse_threads();
    match threads {
        Some(t) => println!(
            "# X-BATCH: parallel join/leave batches (§2 footnote), pooled executor ({t} threads)\n"
        ),
        None => println!("# X-BATCH: parallel join/leave batches (§2 footnote)\n"),
    }
    // A capacity-16 parameterization keeps the overlay degree (5) well
    // below the cluster count, so batches contain genuinely disjoint
    // footprints; the smoke sweep shrinks everything for CI.
    let (table, wall) = if smoke {
        sweep(&[1, 4, 8], 60, 32, 16, threads, true)
    } else {
        sweep(&[1, 2, 4, 8, 16], 480, 64, 16, threads, false)
    };

    println!("{}", table.to_markdown());
    if threads.is_some() {
        println!("wall clock (advisory: kept out of the CSV and JSON, which CI byte-diffs)\n");
        println!("{}", wall.to_markdown());
    }
    println!("expectation: msgs_per_op stays flat across widths (parallelism does not");
    println!("change an op's traffic); waves grow sub-linearly in width — footprint conflicts");
    println!("serialize some operations, so the estimated speedup is the ratio of serial");
    println!("rounds to the per-wave maxima rather than the ideal ×width; wave_slack is the");
    println!("serial rounds the schedule saves. With --threads N the meas_speedup column");
    println!("reports the wall-clock ratio of the 1-thread run to the N-thread run of the");
    println!("*same* batches (outcomes bit-identical, asserted): the schedule's estimate is");
    println!("a round-complexity model, the measurement is what the hardware delivers —");
    println!("wide waves approach min(width, cores), narrow ones ≈ 1, and a single-CPU host");
    println!("(check nproc) pins every measurement to ≈ 1 by physics; under --smoke the");
    println!("baseline re-run is skipped and meas_speedup is a 1.00 placeholder. Binding");
    println!("violations per audited step stay comparable to the width-1 baseline (absolute");
    println!("counts scale with the step count) — the footnote's claim that the analysis");
    println!("survives batching. (At this toy capacity clusters hold ~8 nodes, so τ = 0.1");
    println!("trips thresholds often; that is the k-dependence of Lemma 1, not a scheduler");
    println!("artifact.)");
    table
        .write_csv(&results_dir().join("x_batch_parallel.csv"))
        .unwrap();
    let json = Json::object([
        ("experiment", "x_batch_parallel".into()),
        ("smoke", smoke.into()),
        ("rows", table.json()),
    ]);
    std::fs::write(results_dir().join("x_batch_parallel.json"), json.render()).unwrap();
    println!("wrote results/x_batch_parallel.csv and results/x_batch_parallel.json");
}
