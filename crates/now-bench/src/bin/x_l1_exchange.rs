//! X-L1 — Lemma 1: a full exchange resets a cluster's composition.
//!
//! Claim: after a cluster exchanges all of its nodes,
//! `P(p_C > τ(1+ε)) ≤ N^{-γ}`, by a Chernoff bound — so the empirical
//! tail should shrink exponentially in the cluster size (i.e. in `k`).
//! We pollute a cluster to ~70% Byzantine, run one full exchange, and
//! tabulate the post-exchange distribution across many trials.

use now_bench::{build_system, results_dir};
use now_sim::Table;

/// Chernoff: `P(X > (1+ε)τ|C|) ≤ exp(−ε²τ|C|/3)`.
#[expect(
    clippy::disallowed_methods,
    reason = "libm's exp only prints the bound beside the measured tail; no run reads it"
)]
fn chernoff_bound(tau: f64, eps: f64, cluster_size: usize) -> f64 {
    (-eps * eps * tau * cluster_size as f64 / 3.0).exp()
}

fn main() {
    println!("# X-L1: composition after full exchange (Lemma 1)\n");
    let tau = 0.20;
    let eps = 0.5; // tail threshold τ(1+ε) = 0.30
    let trials = 150;
    // empirical_tail is P(p_C > τ(1+ε)) over the trials.
    let mut table = Table::new([
        "k",
        "cluster_size",
        "mean_after",
        "max_after",
        "empirical_tail",
        "chernoff_bound",
    ]);

    for k in [2usize, 4, 6, 8] {
        let mut exceed = 0usize;
        let mut sum = 0.0;
        let mut max_after: f64 = 0.0;
        let mut cluster_size = 0usize;
        for t in 0..trials {
            let mut sys = build_system(1 << 12, k, 24, tau, 1000 + (k * trials + t) as u64);
            let victim = sys.cluster_ids()[0];
            cluster_size = sys.cluster(victim).unwrap().size();
            // Pollute the victim by registry surgery (swap byz in,
            // honest out, size-preserving).
            let byz_nodes = sys.byz_node_ids();
            for b in byz_nodes {
                if sys.cluster(victim).unwrap().byz_fraction() > 0.7 {
                    break;
                }
                if sys.node_cluster(b).unwrap() != victim {
                    if let Some(h) = sys
                        .cluster(victim)
                        .unwrap()
                        .member_vec()
                        .into_iter()
                        .find(|&m| sys.is_honest(m).unwrap())
                    {
                        let other = sys.node_cluster(b).unwrap();
                        sys.force_move(b, victim).unwrap();
                        sys.force_move(h, other).unwrap();
                    }
                }
            }
            sys.exchange_all(victim, false);
            let frac = sys.cluster(victim).unwrap().byz_fraction();
            sum += frac;
            max_after = max_after.max(frac);
            if frac > tau * (1.0 + eps) {
                exceed += 1;
            }
        }
        let tail = exceed as f64 / trials as f64;
        let bound = chernoff_bound(tau, eps, cluster_size);
        table.row([
            k.into(),
            cluster_size.into(),
            (sum / trials as f64).into(),
            max_after.into(),
            tail.into(),
            bound.into(),
        ]);
    }

    println!("{}", table.to_markdown());
    println!("expectation: mean_after ≈ τ = {tau} plus a self-exchange residual of");
    println!("(|C|/n)·(p₀ − τ) — randCl picks C itself with probability |C|/n and the member");
    println!("is then retained; Lemma 1 idealizes this away and it vanishes as n grows.");
    println!("The tail probability decays with k (the Chernoff column is the paper's bound;");
    println!("empirical values sit below it).");
    table
        .write_csv(&results_dir().join("x_l1_exchange.csv"))
        .unwrap();
    println!("wrote results/x_l1_exchange.csv");
}
