//! X-BATCH — the parallel-operations footnote, scheduled *and executed*.
//!
//! The paper proves its claims for one join/leave per time step and
//! notes (§2, footnote): *"the analysis can be generalized to several
//! parallel join and leave operations."* `NowSystem::step_batch` with
//! `ExecConfig::serial` realizes the generalization as a conflict-free
//! wave schedule over cluster footprints; `ExecConfig::pooled`
//! actually plans each wave's operations on the workers of the sweep's
//! `WavePool`. We sweep the batch width `w` and measure:
//!
//! * per-operation message cost (should be flat — parallelism does not
//!   change traffic; message costs are schedule-invariant),
//! * round complexity per time step: serial sum vs the scheduled
//!   per-wave maxima, the wave counts, and the per-wave *slack*
//!   (Σ `rounds_total − rounds_max` — the serial rounds the schedule
//!   saves), and
//! * with `--threads N`: the **measured** wall-clock speedup of the
//!   threaded executor over its own 1-worker run, next to the
//!   *estimated* round-complexity speedup — schedule model vs hardware
//!   reality on the same batches.
//!
//! `--smoke` runs a reduced sweep for CI. The JSON report contains only
//! deterministic outcome fields (no wall-clock), so CI can diff it
//! two ways: two runs of the same seed must be byte-identical
//! (`batch-smoke`), and `--threads 1` vs `--threads 4` must be
//! byte-identical (the cross-thread determinism gate).

use now_bench::results_dir;
use now_core::{ExecConfig, NowParams, NowSystem, WavePool};
use now_sim::{BatchRandomChurn, BatchRun, Cell, Table};
use std::fmt::Write as _;

struct Row {
    width: usize,
    steps: u64,
    ops: u64,
    msgs_per_op: f64,
    rounds_serial: u64,
    rounds_parallel: u64,
    waves: u64,
    max_wave_width: usize,
    wave_slack: u64,
    est_speedup: f64,
    binding_violations: usize,
    /// Wall-clock of this run, ms (threaded sweeps only; not in JSON).
    wall_ms: f64,
    /// wall(threads=1) / wall(threads=N) on identical batches
    /// (threaded sweeps only; not in JSON).
    meas_speedup: f64,
}

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

fn sweep(
    widths: &[usize],
    total_ops: u64,
    clusters: usize,
    capacity: u64,
    threads: Option<usize>,
    smoke: bool,
) -> Vec<Row> {
    let mut rows = Vec::new();
    let pool = threads.map(WavePool::new);
    let exec = pool
        .as_ref()
        .map_or(ExecConfig::serial(), ExecConfig::pooled);
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
        rows.push(Row {
            width,
            steps,
            ops,
            msgs_per_op,
            rounds_serial: report.rounds_serial,
            rounds_parallel: report.rounds_parallel,
            waves: report.waves,
            max_wave_width: report.max_wave_width,
            wave_slack: report.wave_slack_rounds,
            est_speedup: report.parallel_speedup(),
            binding_violations: report.binding_violations(now_core::SecurityMode::Plain),
            wall_ms: report.wall_nanos as f64 / 1e6,
            meas_speedup,
        });
    }
    rows
}

fn to_json(rows: &[Row], smoke: bool, threaded: bool) -> String {
    // Deterministic outcome fields only: both CI gates byte-diff this
    // file, so wall-clock and thread count must stay out.
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"x_batch_parallel\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    let _ = writeln!(
        out,
        "  \"engine\": \"{}\",",
        if threaded { "threaded" } else { "scheduled" }
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"width\": {}, \"steps\": {}, \"ops\": {}, \
             \"msgs_per_op\": {:.3}, \"rounds_serial\": {}, \
             \"rounds_parallel\": {}, \"waves\": {}, \
             \"max_wave_width\": {}, \"wave_slack\": {}, \
             \"speedup\": {:.4}, \"binding_violations\": {}}}{comma}",
            r.width,
            r.steps,
            r.ops,
            r.msgs_per_op,
            r.rounds_serial,
            r.rounds_parallel,
            r.waves,
            r.max_wave_width,
            r.wave_slack,
            r.est_speedup,
            r.binding_violations,
        );
    }
    out.push_str("  ]\n}\n");
    out
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
            "# X-BATCH: parallel join/leave batches (§2 footnote), pooled executor ({t} workers)\n"
        ),
        None => println!("# X-BATCH: parallel join/leave batches (§2 footnote)\n"),
    }
    // A capacity-16 parameterization keeps the overlay degree (5) well
    // below the cluster count, so batches contain genuinely disjoint
    // footprints; the smoke sweep shrinks everything for CI.
    let rows = if smoke {
        sweep(&[1, 4, 8], 60, 32, 16, threads, true)
    } else {
        sweep(&[1, 2, 4, 8, 16], 480, 64, 16, threads, false)
    };

    let mut headers = vec![
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
    ];
    if threads.is_some() {
        headers.push("wall_ms");
        headers.push("meas_speedup");
    }
    let mut table = Table::new(headers);
    for r in &rows {
        let mut cells: Vec<Cell> = vec![
            r.width.into(),
            r.steps.into(),
            r.ops.into(),
            r.msgs_per_op.into(),
            r.rounds_serial.into(),
            r.rounds_parallel.into(),
            r.waves.into(),
            r.max_wave_width.into(),
            r.wave_slack.into(),
            r.est_speedup.into(),
            r.binding_violations.into(),
        ];
        if threads.is_some() {
            cells.push(r.wall_ms.into());
            cells.push(r.meas_speedup.into());
        }
        table.row(cells);
    }

    println!("{}", table.to_markdown());
    println!("expectation: msgs_per_op stays flat across widths (message costs are");
    println!("schedule-invariant); waves grow sub-linearly in width — footprint conflicts");
    println!("serialize some operations, so the estimated speedup is the ratio of serial");
    println!("rounds to the per-wave maxima rather than the ideal ×width; wave_slack is the");
    println!("serial rounds the schedule saves. With --threads N the meas_speedup column");
    println!("reports the wall-clock ratio of the 1-worker run to the N-worker run of the");
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
    let json_path = results_dir().join("x_batch_parallel.json");
    std::fs::write(&json_path, to_json(&rows, smoke, threads.is_some())).unwrap();
    println!("wrote results/x_batch_parallel.csv and results/x_batch_parallel.json");
}
