//! The headline capability: polynomial size variation.
//!
//! The population swings from near √N up toward N and back, twice, while
//! the paper's invariants (cluster honesty, size band, overlay degree +
//! expansion) are audited continuously and the per-operation cost is
//! shown to stay polylogarithmic — the regime where prior work (static
//! cluster counts) degrades into near-linear cluster sizes.
//!
//! Run with: `cargo run --release --example polynomial_growth`

use now_bft::core::{NowParams, NowSystem, SystemAudit};
use now_bft::net::CostKind;
use now_bft::sim::{BatchRun, BatchSawtooth};

fn main() {
    let capacity = 1u64 << 12; // N = 4096, √N = 64
    let params = NowParams::new(capacity, 3, 1.5, 0.10, 0.05).expect("valid parameters");
    let low = 2 * params.min_population(); // stay clear of the hard floor
    let high = 1200u64;
    let mut sys = NowSystem::init_fast(params, low as usize, 0.10, 21);

    println!(
        "N = {capacity}, population will oscillate in [{low}, {high}] (√N = {})",
        params.min_population()
    );

    let mut driver = BatchSawtooth::new(low, high, 1, 0.10);
    // Enough steps for two full up-down sweeps.
    let steps = 2 * 2 * (high - low) + 200;
    let report = BatchRun::new()
        .audit_every(16)
        .run(&mut sys, &mut driver, steps, 5);

    println!(
        "\n{} steps: {} joins, {} leaves, {} splits, {} merges",
        report.steps,
        report.joins,
        report.leaves,
        sys.op_counts().2,
        sys.op_counts().3
    );
    let range = |of: fn(&SystemAudit) -> u64| {
        let values = report.audits.iter().map(of);
        (values.clone().min().unwrap_or(0), values.max().unwrap_or(0))
    };
    let (pop_min, pop_max) = range(|a| a.population);
    println!(
        "population range observed: {pop_min}..{pop_max} (×{:.1} swing)",
        pop_max as f64 / pop_min.max(1) as f64
    );
    let (cc_min, cc_max) = range(|a| a.cluster_count as u64);
    println!(
        "cluster count adapted: {cc_min}..{cc_max} — the dynamic-#clusters departure from prior work"
    );
    println!(
        "worst byz fraction over whole run: {:.3} (1/3 threshold crossings: {})",
        report.peak_byz_fraction(),
        report.count(now_bft::sim::ViolationKind::RandNumCompromised)
    );
    println!(
        "cluster size stayed in [{}, {}]: {}",
        params.min_cluster_size(),
        params.max_cluster_size(),
        report.count(now_bft::sim::ViolationKind::SizeBounds) == 0
    );

    // Per-op cost: polylog(N), independent of where n currently sits.
    println!("\nper-operation mean message costs over the run:");
    for kind in [
        CostKind::Join,
        CostKind::Leave,
        CostKind::Split,
        CostKind::Merge,
    ] {
        let s = sys.ledger().stats(kind);
        if s.count > 0 {
            let log_n = params.log_n();
            println!(
                "  {:<6} ×{:<6} mean {:>12.0}  (= {:>6.1} × log⁴N)",
                kind.name(),
                s.count,
                s.mean_messages(),
                s.mean_messages() / log_n.powi(4)
            );
        }
    }

    let overlay = sys.overlay_audit();
    println!(
        "\noverlay after the swings: {} clusters, degree ≤ {} (cap {}), connected: {}, λ₂ = {:.2}",
        overlay.vertex_count,
        overlay.max_degree,
        params.over().degree_cap(),
        overlay.connected,
        overlay.lambda2
    );
    sys.check_consistency().expect("consistent");
    println!("consistency check: ok");
}
