//! X-L23 — Lemmas 2–3: the drift band between full exchanges.
//!
//! Claim (Lemma 2): a cluster below `τ(1+ε/2)` stays below `τ(1+ε)`
//! whp across `O(logN)` member exchanges. Claim (Lemma 3): a cluster
//! between `τ(1+ε/2)` and `τ(1+ε)` drops below `τ(1+ε/2)` within
//! `O(logN)` exchanges. We track one cluster's Byzantine fraction over
//! a long churn run and measure band behavior per k.

use now_adversary::BatchDriver;
use now_bench::{build_system, results_dir};
use now_core::{BatchInput, ExecConfig};
use now_net::DetRng;
use now_sim::{BatchRandomChurn, Table};

fn main() {
    println!("# X-L23: composition drift between exchanges (Lemmas 2–3)\n");
    let tau = 0.15;
    let eps = 0.5; // generous band so both levels are observable
    let low = tau * (1.0 + eps / 2.0);
    let high = tau * (1.0 + eps);
    let steps = 1200u64;
    println!("bands: τ = {tau}, τ(1+ε/2) = {low:.3}, τ(1+ε) = {high:.3}\n");

    // excursions: above τ(1+ε/2); steps_above_high: above τ(1+ε).
    let mut table = Table::new([
        "k",
        "cluster_size",
        "mean_frac",
        "peak_frac",
        "excursions",
        "mean_recovery_steps",
        "steps_above_high",
    ]);

    for k in [2usize, 4, 6] {
        let mut sys = build_system(1 << 12, k, 10, tau, 3000 + k as u64);
        let watched = sys.cluster_ids()[0];
        let mut churn = BatchRandomChurn::balanced(1, tau);
        let mut rng = DetRng::new(31 + k as u64);

        let mut sum = 0.0;
        let mut samples = 0u64;
        let mut peak = 0.0f64;
        let mut above_low_since: Option<u64> = None;
        let mut excursions = 0u64;
        let mut recovery_total = 0u64;
        let mut above_high_steps = 0u64;

        for step in 0..steps {
            let (joins, leaves) = churn.decide_batch(&sys, &mut rng);
            sys.step_batch(
                &BatchInput::from_specs(&joins, &leaves),
                &ExecConfig::Canonical,
            );
            let Some(cluster) = sys.cluster(watched) else {
                break; // merged away; the trace ends here
            };
            let frac = cluster.byz_fraction();
            sum += frac;
            samples += 1;
            peak = peak.max(frac);
            if frac > high {
                above_high_steps += 1;
            }
            match (frac > low, above_low_since) {
                (true, None) => above_low_since = Some(step),
                (false, Some(start)) => {
                    excursions += 1;
                    recovery_total += step - start;
                    above_low_since = None;
                }
                _ => {}
            }
        }
        let mean_recovery = if excursions > 0 {
            recovery_total as f64 / excursions as f64
        } else {
            0.0
        };
        let cluster_size = sys
            .cluster(watched)
            .map(|c| c.size())
            .unwrap_or(sys.params().target_cluster_size());
        table.row([
            k.into(),
            cluster_size.into(),
            (sum / samples.max(1) as f64).into(),
            peak.into(),
            excursions.into(),
            mean_recovery.into(),
            above_high_steps.into(),
        ]);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    println!("expectation (Lemma 3): excursions above τ(1+ε/2) recover within O(logN) steps;");
    println!("expectation (Lemma 2): time spent above τ(1+ε) shrinks rapidly with k.");
    table
        .write_csv(&results_dir().join("x_l23_drift.csv"))
        .unwrap();
    println!("wrote results/x_l23_drift.csv");
}
