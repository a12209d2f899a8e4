//! X-POLY — the headline: polynomial size variation.
//!
//! The population walks from near `√N` up toward `N` and back. At each
//! plateau we measure: invariants (honesty, size band), the cluster
//! count adapting (the paper's departure from static-#clusters schemes),
//! the per-join cost (stays polylog — essentially flat in `n`), and the
//! hypothetical *static-#clusters* cluster size (what prior work would
//! have suffered: clusters growing linearly with `n`).

use now_bench::{results_dir, standard_params};
use now_core::NowSystem;
use now_net::ieee::log2;
use now_net::CostKind;
use now_sim::{BatchDriver, BatchRun, GrowthPhase, ShrinkPhase, Table};

fn main() {
    println!("# X-POLY: polynomial size variation (abstract/§1)\n");
    let capacity = 1u64 << 12;
    let tau = 0.10;
    let params = standard_params(capacity, 3);
    let start = 4 * params.target_cluster_size() as u64; // ≈ 2.3·√N
    let mut sys = NowSystem::init_fast(params, start as usize, tau, 60);
    let static_cluster_count = sys.cluster_count() as f64; // prior work: frozen
    println!(
        "N = {capacity}, √N = {}, start n = {start}, band [{}, {}]\n",
        params.min_population(),
        params.min_cluster_size(),
        params.max_cluster_size()
    );

    let plateaus: Vec<u64> = vec![start, 300, 700, 1400, 2800, 1400, 700, 300, start];
    // static_cluster_size: what prior work's frozen cluster count gives.
    let mut table = Table::new([
        "n",
        "clusters",
        "mean_join_msgs",
        "msgs_per_log2m",
        "worst_frac",
        "band_ok",
        "static_cluster_size",
    ]);

    for (i, &target) in plateaus.iter().enumerate() {
        // Move to the plateau.
        let pop = sys.population();
        if target != pop {
            let mut driver: Box<dyn BatchDriver> = if target > pop {
                Box::new(GrowthPhase::new(target, tau))
            } else {
                Box::new(ShrinkPhase::new(target))
            };
            let steps = target.abs_diff(pop) + 4;
            BatchRun::new()
                .audit_every(8)
                .run(&mut sys, driver.as_mut(), steps, 70 + i as u64);
        }
        // Measure join cost at the plateau.
        let before = sys.ledger().stats(CostKind::Join);
        for j in 0..10 {
            sys.join(j % 10 == 9);
        }
        let after = sys.ledger().stats(CostKind::Join);
        let mean_join = (after.total_messages - before.total_messages) as f64
            / (after.count - before.count) as f64;
        let audit = sys.audit();
        // The dominant n-dependence of the join cost is the walk length
        // log²m; normalizing by it exposes the remaining ~constant.
        let log2m = log2((audit.cluster_count + 2) as f64).powi(2);
        table.row([
            audit.population.into(),
            audit.cluster_count.into(),
            mean_join.into(),
            (mean_join / log2m).into(),
            audit.worst_byz_fraction.into(),
            audit.size_bounds_ok.into(),
            (audit.population as f64 / static_cluster_count).into(),
        ]);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    let (joins, leaves, splits, merges) = sys.op_counts();
    println!("totals: {joins} joins, {leaves} leaves, {splits} splits, {merges} merges");
    println!("\nexpectation: cluster count tracks n/(k·logN) (splits on the way up, merges");
    println!("on the way down); the join cost's n-dependence is the walk length log²m plus");
    println!("overlay-degree saturation (msgs_per_log2m flattens), i.e. polylog — while the");
    println!("static_cluster_size column shows prior work's cluster size growing linearly");
    println!("in n, the blow-up NOW's dynamic cluster count avoids.");
    table
        .write_csv(&results_dir().join("x_poly_growth.csv"))
        .unwrap();
    println!("wrote results/x_poly_growth.csv");
}
