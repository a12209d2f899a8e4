//! X-R1 — Remark 1: cryptographic hardening to τ < 1/2.
//!
//! Claim: *"One can tolerate a fraction of Byzantine nodes up to
//! 1/2 − ε, but then we need to use cryptographic tools to allow for
//! broadcast and Byzantine agreement."*
//!
//! We run identical churn at τ ∈ {0.25, 0.35, 0.40, 0.45} under
//! authenticated parameters (the only mode in which τ ≥ 1/3 is even
//! constructible) and audit **both** targets at every step:
//!
//! * the plain-model target (> 2/3 honest per cluster) — expected to
//!   fail pervasively once τ > 1/3 (the mean composition already sits
//!   past the threshold), and
//! * Remark 1's target (honest strict majority) — expected to hold
//!   except for binomial-tail excursions that shrink with k (Lemma 1's
//!   k-dependence, unchanged by the mode).

use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_sim::{BatchRandomChurn, BatchRun, Table, ViolationKind};

fn main() {
    println!("# X-R1: crypto-hardened tolerance (Remark 1)\n");
    let steps = 600u64;
    let capacity = 1u64 << 12;
    let mut table = Table::new([
        "tau",
        "k",
        "plain_fail_rate",
        "majority_fail_rate",
        "peak_frac",
        "forgeable_steps",
    ]);

    for &tau in &[0.25f64, 0.35, 0.40, 0.45] {
        for &k in &[4usize, 8, 16] {
            let params = NowParams::new_authenticated(capacity, k, 1.5, tau, 0.05)
                .expect("authenticated params valid below 1/2");
            let n0 = 10 * params.target_cluster_size();
            let mut sys = NowSystem::init_fast(params, n0, tau, 7000 + k as u64);
            let mut churn = BatchRandomChurn::balanced(1, tau);
            let report = BatchRun::new().run(&mut sys, &mut churn, steps, 77);
            let plain_rate = report.count(ViolationKind::NotTwoThirdsHonest) as f64 / steps as f64;
            let majority_rate =
                report.count(ViolationKind::NotMajorityHonest) as f64 / steps as f64;
            let forgeable = report.count(ViolationKind::Forgeable);
            table.row([
                tau.into(),
                k.into(),
                plain_rate.into(),
                majority_rate.into(),
                report.peak_byz_fraction().into(),
                forgeable.into(),
            ]);
            sys.check_consistency().unwrap();
        }
    }

    println!("{}", table.to_markdown());
    println!("expectation: at τ = 0.25 both targets hold (plain-regime sanity). Past 1/3 the");
    println!("plain 2/3-honest target fails at nearly every step — no k rescues a mean");
    println!("composition beyond the threshold — while the majority target's failure rate");
    println!("decays with k (Chernoff margin (1/2 − τ)·√(k·logN)) and collapses toward 0 for");
    println!("τ ≤ 0.40, k = 16. τ = 0.45 shows the thin-margin limit Remark 1's ε guards:");
    println!("larger k (beyond laptop scale) is needed for strict containment there.");
    table
        .write_csv(&results_dir().join("x_r1_authenticated.csv"))
        .unwrap();
    println!("wrote results/x_r1_authenticated.csv");
}
