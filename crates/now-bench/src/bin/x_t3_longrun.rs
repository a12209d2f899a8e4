//! X-T3 — Theorem 3: all clusters stay > 2/3 honest over a long churn
//! sequence.
//!
//! Claim: whp, at every step of a polynomially long sequence of joins
//! and leaves, every cluster keeps more than two thirds honest members.
//! The "whp" hides the Chernoff constants: at fixed cluster size the
//! violation rate rises sharply as τ approaches 1/3 and falls
//! exponentially in k. This sweep measures exactly that surface —
//! the laptop-scale shape of the theorem — and prints beside it
//! Lemma 1's ideal law at each start shape: the chance that a fresh
//! uniform sample of the target cluster size is at least a third
//! Byzantine, the captures expected among one such sample per step, and
//! the chance that a uniform partition of the start population into the
//! start cluster sizes leaves some cluster captured.

use now_bench::{build_system, results_dir};
use now_sim::ideal_law::{any_captured, capture_tail, expected_captures};
use now_sim::{BatchRandomChurn, BatchRun, Table, ViolationKind};

fn main() {
    println!("# X-T3: long-run cluster honesty (Theorem 3)\n");
    let steps = 1500u64;
    // The three violation columns count audited steps.
    let mut table = Table::new([
        "tau",
        "k",
        "cluster_size",
        "steps",
        "ideal_tail",
        "ideal_captures",
        "ideal_p_any",
        "peak_frac",
        "not_two_thirds",
        "randnum_comp",
        "forgeable",
        "size_violations",
    ]);

    for &tau in &[0.10f64, 0.15, 0.20] {
        for &k in &[2usize, 4, 6] {
            let mut sys = build_system(1 << 12, k, 10, tau, (tau * 1000.0) as u64 + k as u64);
            let cluster = sys.params().target_cluster_size();
            let (n, byz) = (sys.population() as usize, sys.byz_population() as usize);
            let sizes: Vec<usize> = sys.clusters().map(|c| c.size()).collect();
            let mut churn = BatchRandomChurn::balanced(1, tau);
            let report = BatchRun::new().run(&mut sys, &mut churn, steps, 77);
            table.row([
                tau.into(),
                k.into(),
                cluster.into(),
                report.steps.into(),
                capture_tail(n, byz, cluster).into(),
                expected_captures(n, byz, cluster, steps).into(),
                any_captured(n, byz, &sizes).into(),
                report.peak_byz_fraction().into(),
                report.count(ViolationKind::NotTwoThirdsHonest).into(),
                report.count(ViolationKind::RandNumCompromised).into(),
                report.count(ViolationKind::Forgeable).into(),
                report.count(ViolationKind::SizeBounds).into(),
            ]);
            sys.check_consistency().unwrap();
        }
    }

    println!("{}", table.to_markdown());
    println!("expectation: violation steps → 0 as k grows at fixed τ (exponentially, per");
    println!("Lemma 1's Chernoff bound), and rise as τ → 1/3 at fixed k. Forgeable (1/2)");
    println!("violations are rarer than 1/3 crossings at every point of the sweep.");
    println!("ideal_* columns are Lemma 1's exact law at the start shape: P(a fresh uniform");
    println!("sample of cluster_size is at least 1/3 Byzantine), the captures expected among");
    println!("one such sample per step, and P(some cluster of a uniform partition into the");
    println!("start sizes is captured).");
    table
        .write_csv(&results_dir().join("x_t3_longrun.csv"))
        .unwrap();
    println!("wrote results/x_t3_longrun.csv");
}
