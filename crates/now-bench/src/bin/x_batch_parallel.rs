//! X-BATCH — the parallel-operations footnote, priced in waves.
//!
//! The paper proves its claims for one join/leave per time step and
//! notes (§2, footnote): *"the analysis can be generalized to several
//! parallel join and leave operations."* We sweep the batch width `w`
//! and measure:
//!
//! * per-operation message cost (should be flat — batching does not
//!   change an operation's traffic), and
//! * round complexity per time step: serial sum vs the per-wave maxima
//!   of the conflict-free waves over cluster footprints, the wave
//!   counts, and the per-wave *slack* (Σ `rounds_total − rounds_max` —
//!   the serial rounds the waves save).
//!
//! Every run is `ExecConfig::Pooled`: each op runs live, one after
//! another, and the step is priced in waves.
//!
//! `--smoke` runs a reduced sweep for CI. The CSV and JSON hold the
//! deterministic outcome table only, so two runs of the same seed must
//! be byte-identical (`batch-smoke`).

use now_bench::results_dir;
use now_core::{ExecConfig, Json, NowParams, NowSystem};
use now_sim::{BatchRandomChurn, BatchRun, Table};

fn run_once(
    width: usize,
    total_ops: u64,
    clusters: usize,
    capacity: u64,
) -> (now_sim::BatchRunReport, NowSystem, u64) {
    let params = NowParams::for_capacity(capacity).unwrap();
    let n0 = clusters * params.target_cluster_size();
    let mut sys = NowSystem::init_fast(params, n0, 0.10, 4200 + width as u64);
    let mut driver = BatchRandomChurn::balanced(width, 0.10);
    let steps = total_ops / width as u64;
    let report = BatchRun::new().exec(ExecConfig::Pooled).run(
        &mut sys,
        &mut driver,
        steps,
        11 + width as u64,
    );
    sys.check_consistency().unwrap();
    (report, sys, steps)
}

/// Runs the sweep; returns the deterministic outcome table.
fn sweep(widths: &[usize], total_ops: u64, clusters: usize, capacity: u64) -> Table {
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
    for &width in widths {
        let (report, sys, steps) = run_once(width, total_ops, clusters, capacity);
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
            report.binding_violations().into(),
        ]);
    }
    table
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    println!("# X-BATCH: parallel join/leave batches (§2 footnote)\n");
    // A capacity-16 parameterization keeps the overlay degree (5) well
    // below the cluster count, so batches contain genuinely disjoint
    // footprints; the smoke sweep shrinks everything for CI.
    let table = if smoke {
        sweep(&[1, 4, 8], 60, 32, 16)
    } else {
        sweep(&[1, 2, 4, 8, 16], 480, 64, 16)
    };

    println!("{}", table.to_markdown());
    println!("expectation: msgs_per_op stays flat across widths (batching does not change");
    println!("an op's traffic); waves grow sub-linearly in width — footprint conflicts");
    println!("serialize some operations, so the estimated speedup is the ratio of serial");
    println!("rounds to the per-wave maxima rather than the ideal ×width; wave_slack is the");
    println!("serial rounds the waves save. Binding violations per audited step stay");
    println!("comparable to the width-1 baseline (absolute counts scale with the step");
    println!("count) — the footnote's claim that the analysis survives batching. (At this");
    println!("toy capacity clusters hold ~8 nodes, so τ = 0.1 trips thresholds often; that");
    println!("is the k-dependence of Lemma 1, not a pricing artifact.)");
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
