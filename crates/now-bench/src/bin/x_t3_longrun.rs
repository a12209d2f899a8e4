//! X-T3 — Theorem 3: all clusters stay > 2/3 honest over a long churn
//! sequence.
//!
//! Claim: whp, at every step of a polynomially long sequence of joins
//! and leaves, every cluster keeps more than two thirds honest members.
//! The "whp" hides the Chernoff constants: at fixed cluster size the
//! violation rate rises sharply as τ approaches 1/3 and falls
//! exponentially in k. This sweep measures exactly that surface —
//! the laptop-scale shape of the theorem.

use now_adversary::RandomChurn;
use now_bench::{build_system, results_dir};
use now_sim::{BatchRun, CsvTable, MdTable, ViolationKind};

fn main() {
    println!("# X-T3: long-run cluster honesty (Theorem 3)\n");
    let steps = 1500u64;
    let mut md = MdTable::new([
        "tau",
        "k",
        "cluster",
        "steps",
        "peak_frac",
        "steps_not_2/3",
        "steps_randnum_comp",
        "steps_forgeable",
        "size_violations",
    ]);
    let mut csv = CsvTable::new([
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
            let mut churn = RandomChurn::balanced(tau);
            let report = BatchRun::new().run(&mut sys, &mut churn, steps, 77);
            md.row([
                format!("{tau:.2}"),
                k.to_string(),
                cluster.to_string(),
                report.steps.to_string(),
                format!("{:.3}", report.peak_byz_fraction()),
                report.count(ViolationKind::NotTwoThirdsHonest).to_string(),
                report.count(ViolationKind::RandNumCompromised).to_string(),
                report.count(ViolationKind::Forgeable).to_string(),
                report.count(ViolationKind::SizeBounds).to_string(),
            ]);
            csv.row([
                format!("{tau}"),
                k.to_string(),
                cluster.to_string(),
                report.steps.to_string(),
                format!("{:.6}", report.peak_byz_fraction()),
                report.count(ViolationKind::NotTwoThirdsHonest).to_string(),
                report.count(ViolationKind::RandNumCompromised).to_string(),
                report.count(ViolationKind::Forgeable).to_string(),
                report.count(ViolationKind::SizeBounds).to_string(),
            ]);
            sys.check_consistency().unwrap();
        }
    }

    println!("{}", md.render());
    println!("expectation: violation steps → 0 as k grows at fixed τ (exponentially, per");
    println!("Lemma 1's Chernoff bound), and rise as τ → 1/3 at fixed k. Forgeable (1/2)");
    println!("violations are rarer than 1/3 crossings at every point of the sweep.");
    csv.write_csv(&results_dir().join("x_t3_longrun.csv"))
        .unwrap();
    println!("wrote results/x_t3_longrun.csv");
}
