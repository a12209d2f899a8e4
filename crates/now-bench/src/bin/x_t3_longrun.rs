//! X-T3 — Theorem 3: all clusters stay > 2/3 honest over a long churn
//! sequence.
//!
//! Claim: whp, at every step of a polynomially long sequence of joins
//! and leaves, every cluster keeps more than two thirds honest members.
//! The "whp" hides the Chernoff constants: at fixed cluster size the
//! violation rate rises sharply as τ approaches 1/3 and falls
//! exponentially in k. This sweep measures exactly that surface —
//! the laptop-scale shape of the theorem.

use now_bench::{build_system, results_dir};
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
            let mut churn = BatchRandomChurn::balanced(1, tau);
            let report = BatchRun::new().run(&mut sys, &mut churn, steps, 77);
            table.row([
                tau.into(),
                k.into(),
                cluster.into(),
                report.steps.into(),
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
    table
        .write_csv(&results_dir().join("x_t3_longrun.csv"))
        .unwrap();
    println!("wrote results/x_t3_longrun.csv");
}
