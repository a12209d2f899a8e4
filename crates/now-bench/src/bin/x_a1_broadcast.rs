//! X-A1 — §6: broadcast `Õ(n)` with clustering vs `O(n²)` without.

use now_apps::broadcast;
use now_bench::{build_system, results_dir, slope};
use now_net::ieee::ln;
use now_sim::baselines::naive_broadcast_cost;
use now_sim::Table;

fn main() {
    println!("# X-A1: broadcast complexity (§6)\n");
    let mut table = Table::new([
        "n",
        "clusters",
        "clustered_msgs",
        "naive_msgs",
        "speedup",
        "rounds",
        "complete",
    ]);
    let mut ns: Vec<f64> = Vec::new();
    let mut costs: Vec<f64> = Vec::new();

    for (i, clusters) in [8usize, 16, 32, 64].into_iter().enumerate() {
        let mut sys = build_system(1 << 12, 2, clusters, 0.10, 600 + i as u64);
        let n = sys.population();
        let origin = sys.cluster_ids()[0];
        let report = broadcast(&mut sys, origin);
        let naive = naive_broadcast_cost(n);
        ns.push(ln(n as f64));
        costs.push(ln(report.messages as f64));
        table.row([
            n.into(),
            sys.cluster_count().into(),
            report.messages.into(),
            naive.into(),
            (naive as f64 / report.messages.max(1) as f64).into(),
            report.rounds.into(),
            report.complete.into(),
        ]);
    }

    let exponent = slope(&ns, &costs);
    println!("{}", table.to_markdown());
    println!("fitted cost exponent: clustered_msgs ≈ n^{exponent:.2} (naive is n^2.00)");
    println!("expectation: exponent ≈ 1 (Õ(n)); speedup grows with n; delivery complete.");
    table
        .write_csv(&results_dir().join("x_a1_broadcast.csv"))
        .unwrap();
    println!("wrote results/x_a1_broadcast.csv");
}
