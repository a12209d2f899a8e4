//! X-R2 — Remark 2: generalized corruption ratios.
//!
//! Claim: for an adversary controlling at most `1/r − ε` of the nodes
//! (`r ≥ 2`), every cluster keeps its Byzantine fraction at most `1/r`.
//! We sweep `r ∈ {3, 4, 5}` (the `r = 2` case additionally needs the
//! cryptographic quorum of Remark 1 — demonstrated separately by the
//! Dolev–Strong substrate, which tolerates any `f`; the system-level
//! simulation keeps the paper's information-theoretic `τ < 1/3` regime).

use now_bench::{results_dir, standard_params};
use now_core::NowSystem;
use now_sim::{BatchRandomChurn, BatchRun, Table};

fn main() {
    println!("# X-R2: generalized ratio bound (Remark 2)\n");
    let steps = 1000u64;
    let k = 8usize;
    // tau = 1/r − ε, bound = 1/r.
    let mut table = Table::new([
        "r",
        "tau",
        "bound",
        "peak_frac",
        "steps_over_bound",
        "over_rate",
        "holds_95",
    ]);

    for r in [3u32, 4, 5] {
        let bound = 1.0 / r as f64;
        let tau = bound - 0.10;
        let params = standard_params(1 << 12, k);
        let n0 = 10 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, tau, 900 + r as u64);
        let mut churn = BatchRandomChurn::balanced(1, tau);
        let report = BatchRun::new().run(&mut sys, &mut churn, steps, 43);
        let over_bound = report
            .audits
            .iter()
            .filter(|a| a.worst_byz_fraction > bound)
            .count();
        let over_rate = over_bound as f64 / steps as f64;
        table.row([
            r.into(),
            tau.into(),
            bound.into(),
            report.peak_byz_fraction().into(),
            over_bound.into(),
            over_rate.into(),
            (over_rate <= 0.05).into(),
        ]);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    println!("expectation: the exceedance rate falls monotonically in r (larger absolute");
    println!("margin ε relative to the cluster-size fluctuation scale ~1/sqrt(k·logN)), and");
    println!("holds_95 (≤ 5% of steps over the bound) passes for r ≥ 4. Remark 2 is whp and");
    println!("asymptotic: r = 3 puts the bound at 1/3 itself, the protocol's thinnest");
    println!("margin, and needs cluster sizes beyond laptop scale for strict containment");
    println!("(cross-check the k-sweep in X-T3: violations fall exponentially in k).");
    table
        .write_csv(&results_dir().join("x_r2_ratio.csv"))
        .unwrap();
    println!("wrote results/x_r2_ratio.csv");
}
