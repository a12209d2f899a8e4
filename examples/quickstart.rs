//! Quickstart: boot a NOW system, churn it, audit the invariants.
//!
//! Run with: `cargo run --release --example quickstart`

use now_bft::core::{NowParams, NowSystem};
use now_bft::net::CostKind;
use now_bft::sim::{BatchRandomChurn, BatchRun, ViolationKind};

fn main() {
    // A deployment sized for at most N = 2^12 nodes, with clusters of
    // k·logN = 4·12 = 48 members, τ = 0.15 corruption.
    let params = NowParams::new(1 << 12, 4, 1.5, 0.15, 0.05).expect("valid parameters");
    let mut sys = NowSystem::init_fast(params, 480, 0.15, 42);
    println!("booted: {sys:?}");
    println!(
        "cluster size band: [{}, {}] (target {})",
        params.min_cluster_size(),
        params.max_cluster_size(),
        params.target_cluster_size()
    );

    // 400 time steps of balanced churn; every arrival the adversary can
    // afford is corrupted.
    let mut churn = BatchRandomChurn::balanced(1, 0.15);
    let report = BatchRun::new().run(&mut sys, &mut churn, 400, 7);

    println!(
        "\nafter {} steps ({} joins, {} leaves):",
        report.steps, report.joins, report.leaves
    );
    let audit = &report.final_audit;
    println!("  population            : {}", audit.population);
    println!("  byzantine             : {}", audit.byz_population);
    println!("  clusters              : {}", audit.cluster_count);
    println!(
        "  cluster sizes         : {}..{} (mean {:.1})",
        audit.min_cluster_size, audit.max_cluster_size, audit.mean_cluster_size
    );
    println!(
        "  worst byz fraction    : {:.3} (peak over run: {:.3})",
        audit.worst_byz_fraction,
        report.peak_byz_fraction()
    );
    println!(
        "  all clusters > 2/3 honest: {}",
        audit.all_two_thirds_honest()
    );
    let violations: usize = ViolationKind::ALL.iter().map(|&k| report.count(k)).sum();
    println!("  invariant violations  : {violations}");

    let overlay = sys.overlay_audit();
    println!("\noverlay (OVER):");
    println!(
        "  {} clusters, {} edges, degree {}..{}",
        overlay.vertex_count, overlay.edge_count, overlay.min_degree, overlay.max_degree
    );
    println!(
        "  connected: {}, λ₂ = {:.3}, expansion ∈ [{:.3}, {:.3}]",
        overlay.connected, overlay.lambda2, overlay.cheeger_lower, overlay.sweep_upper
    );
    println!(
        "  Property 2 (degree ≤ {}) holds: {}",
        params.over().degree_cap(),
        overlay.degree_bound_holds
    );

    // A group of walks, or a leave's cascade, closes its spans together
    // over one shared cost (`Ledger::end_as`), so the `max` of `randCl`
    // and `exchange` is a whole group's cost.
    println!("\nper-operation costs (messages; max of a span, or of a group closed together):");
    for kind in [
        CostKind::Join,
        CostKind::Leave,
        CostKind::Split,
        CostKind::Merge,
        CostKind::Exchange,
        CostKind::RandCl,
        CostKind::RandNum,
    ] {
        let s = sys.ledger().stats(kind);
        if s.count > 0 {
            println!(
                "  {:<9} ×{:<6} mean {:>12.0} max {:>12}",
                kind.name(),
                s.count,
                s.mean_messages(),
                s.max_messages
            );
        }
    }
    sys.check_consistency().expect("system is consistent");
    println!("\nconsistency check: ok");
}
