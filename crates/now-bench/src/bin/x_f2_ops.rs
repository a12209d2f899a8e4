//! X-F2 — Figure 2 (maintenance operations).
//!
//! Claim: join/leave/split/merge each cost `polylog(N)` messages and
//! `O(log⁴N)` rounds. We sweep the capacity `N`, hold the *number of
//! clusters* fixed (so only the `logN` scale varies), measure mean costs
//! per operation kind, and fit the polylog exponent
//! `cost ≈ c·(log₂N)^p`.

use now_bench::{polylog_exponent, results_dir, standard_params};
use now_core::NowSystem;
use now_net::CostKind;
use now_sim::{Cell, Table};

fn main() {
    println!("# X-F2: maintenance operation complexity (Figure 2)\n");
    let capacities = [1u64 << 10, 1 << 12, 1 << 14, 1 << 16];
    let kinds = [
        CostKind::Join,
        CostKind::Leave,
        CostKind::Exchange,
        CostKind::RandCl,
    ];
    let mut table = Table::new([
        "capacity",
        "log_n",
        "cluster_size",
        "join_msgs",
        "join_rounds",
        "leave_msgs",
        "exchange_msgs",
        "randcl_msgs",
    ]);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); kinds.len()];

    for (i, &cap) in capacities.iter().enumerate() {
        let params = standard_params(cap, 2);
        let n0 = 12 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 200 + i as u64);
        // Warm up, then measure a fixed op mix.
        for _ in 0..3 {
            sys.join(true);
        }
        let baseline: Vec<_> = kinds.iter().map(|&k| sys.ledger().stats(k)).collect();
        for step in 0..30 {
            if step % 2 == 0 {
                sys.join(step % 10 == 0);
            } else {
                let node = sys.node_ids()[step % sys.population() as usize];
                let _ = sys.leave(node);
            }
        }
        let mut row: Vec<Cell> = vec![
            cap.into(),
            params.log_n().into(),
            params.target_cluster_size().into(),
        ];
        for (j, &kind) in kinds.iter().enumerate() {
            let after = sys.ledger().stats(kind);
            let count = after.count - baseline[j].count;
            let msgs = after.total_messages - baseline[j].total_messages;
            let mean = if count > 0 {
                msgs as f64 / count as f64
            } else {
                0.0
            };
            series[j].push(mean);
            row.push(mean.into());
            if kind == CostKind::Join {
                let rounds = after.total_rounds - baseline[j].total_rounds;
                let mean_rounds = if count > 0 {
                    rounds as f64 / count as f64
                } else {
                    0.0
                };
                row.push(mean_rounds.into());
            }
        }
        table.row(row);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    println!("fitted polylog exponents (cost ≈ c·log^p N):");
    for (j, &kind) in kinds.iter().enumerate() {
        let p = polylog_exponent(&capacities, &series[j]);
        println!("  {:<9} p ≈ {:.2}", kind.name(), p);
    }
    println!("\nexpectation: exponents stay bounded (polylog), join/leave well below linear-in-N growth;");
    println!("paper bounds: randCl O(log⁵N), exchange O(log⁶N), rounds O(log⁴N).");
    table
        .write_csv(&results_dir().join("x_f2_ops.csv"))
        .unwrap();
    println!("wrote results/x_f2_ops.csv");
}
