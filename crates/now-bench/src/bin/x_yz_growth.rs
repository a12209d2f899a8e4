//! X-YZ — the generalized population band `N^{1/y} ≤ n ≤ N^z`.
//!
//! §2: the headline band `√N ≤ n ≤ N` "can be relaxed to
//! N^{1/y} ≤ n ≤ N^z for all constants y, z > 1". We sweep (y, z)
//! configurations, walk the population from near the widened floor up
//! to the widened ceiling and back (plateau style, as in X-POLY), and
//! verify that
//!
//! * the invariants hold throughout (Theorem 3 does not care where in
//!   the band the population sits — including bands whose ceiling
//!   exceeds N itself), and
//! * per-operation cost stays polylog in N: cluster count scales with
//!   n, but cluster size, walk length, and overlay degree stay tied to
//!   log N.

use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_net::CostKind;
use now_sim::{BatchDriver, BatchRun, GrowthPhase, ShrinkPhase, Table};

fn main() {
    println!("# X-YZ: generalized polynomial band N^(1/y) <= n <= N^z (§2)\n");
    let k = 3usize;
    let tau = 0.10;
    let mut table = Table::new([
        "N",
        "y",
        "z",
        "floor",
        "ceiling",
        "peak_n",
        "join_msgs_at_peak",
        "worst_frac",
        "band_ok",
        "violations",
    ]);

    // Wider bands run at smaller N so total work stays laptop-scale;
    // what matters is the *relative* band width each row exercises.
    for &(capacity, y, z) in &[
        (1u64 << 10, 2.0f64, 1.0f64), // the paper's headline band
        (1 << 10, 3.0, 1.0),          // deeper floor
        (1 << 10, 2.0, 1.2),          // ceiling past N: 1024^1.2 = 4096
        (1 << 8, 3.0, 1.25),          // both relaxed
        (1 << 8, 4.0, 1.3),           // widest: 256^[1/4 .. 1.3] ≈ [4, 1351]
    ] {
        let params = NowParams::new(capacity, k, 1.5, 0.30, 0.05)
            .unwrap()
            .with_population_exponents(y, z)
            .unwrap();
        let floor = params.min_population();
        let ceiling = params.max_population();
        // Protocol needs at least ~2 clusters; start just above that.
        let start = (2 * params.target_cluster_size() as u64).max(floor);
        let mut sys = NowSystem::init_fast(params, start as usize, tau, 5 + y as u64);

        let mut violations = 0usize;
        let mut worst = 0.0f64;
        let mut band_ok = true;
        let mut peak_n = 0u64;
        let mut join_at_peak = 0.0f64;

        // floor-ish → ceiling → floor-ish, measuring at each plateau.
        let up = [start + (ceiling - start) / 2, ceiling];
        let down = [start + (ceiling - start) / 2, start];
        for (i, &target) in up.iter().chain(down.iter()).enumerate() {
            let pop = sys.population();
            let mut driver: Box<dyn BatchDriver> = if target > pop {
                Box::new(GrowthPhase::new(target, tau))
            } else {
                Box::new(ShrinkPhase::new(target))
            };
            let steps = target.abs_diff(pop) + 2;
            let report = BatchRun::new().audit_every(16).run(
                &mut sys,
                driver.as_mut(),
                steps,
                70 + i as u64,
            );
            violations += report.binding_violations();
            worst = worst.max(report.peak_byz_fraction());
            band_ok &= report.final_audit.size_bounds_ok;
            if sys.population() >= peak_n {
                peak_n = sys.population();
                let before = sys.ledger().stats(CostKind::Join);
                for j in 0..8 {
                    sys.join(j == 7);
                }
                let after = sys.ledger().stats(CostKind::Join);
                join_at_peak = (after.total_messages - before.total_messages) as f64
                    / (after.count - before.count) as f64;
                // Return to the plateau.
                for _ in 0..8 {
                    let node = sys.node_ids()[0];
                    let _ = sys.leave(node);
                }
            }
        }

        table.row([
            capacity.into(),
            y.into(),
            z.into(),
            floor.into(),
            ceiling.into(),
            peak_n.into(),
            join_at_peak.into(),
            worst.into(),
            band_ok.into(),
            violations.into(),
        ]);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    println!("expectation: every row reaches its configured ceiling (peak_n = ceiling + ε),");
    println!("including bands with z > 1 whose peak exceeds N itself; join cost at the peak");
    println!("tracks log of the *population* (compare rows at the same N), not its absolute");
    println!("size — the polylog claim across the widened band; band_ok holds and binding");
    println!("violations stay at the τ = 0.10 noise floor in every configuration.");
    table
        .write_csv(&results_dir().join("x_yz_growth.csv"))
        .unwrap();
    println!("wrote results/x_yz_growth.csv");
}
