//! X-ABL-EX — shuffle-volume ablation.
//!
//! The protocol's `exchange` re-samples **all** members of the affected
//! cluster (Lemma 1 needs the full refresh to reset the composition to
//! a τ-Bernoulli sample); Lemmas 2–3 then bound the drift while only
//! `O(log N)` nodes turn over between refreshes. This ablation caps the
//! per-invocation shuffle volume and charts the trade-off the two
//! regimes span:
//!
//! * cost per join/leave falls roughly linearly in the cap, but
//! * the worst-cluster Byzantine fraction drifts upward as the refresh
//!   weakens, collapsing to the no-shuffle baseline (the §3.3 victim)
//!   at cap 0.
//!
//! The adversary is the §3.3 join–leave attacker — the strategy the
//! shuffling exists to defeat.

use now_adversary::{BatchJoinLeave, ClusterPick, OnePerStep};
use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_sim::{BatchRun, Table, ViolationKind};

fn main() {
    println!("# X-ABL-EX: exchange volume ablation (Lemmas 1-3 trade-off)\n");
    let capacity = 1u64 << 12;
    let k = 4usize;
    let steps = 600u64;
    let tau = 0.20;
    let mut table = Table::new([
        "cap",
        "join_msgs",
        "leave_msgs",
        "peak_frac",
        "randnum_compromised_steps",
        "captured_steps",
    ]);

    // cap = usize::MAX encodes "no cap" (full exchange, the protocol).
    for &cap in &[0usize, 1, 2, 4, 8, 16, usize::MAX] {
        let params = NowParams::new(capacity, k, 1.5, 0.30, 0.05)
            .unwrap()
            .with_shuffle(cap > 0)
            .with_exchange_cap((cap > 0 && cap != usize::MAX).then_some(cap));
        let n0 = 10 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, tau, 31_000 + cap as u64 % 997);
        let mut adv = OnePerStep::new(BatchJoinLeave::new(1, tau).with_pick(ClusterPick::First));
        let report = BatchRun::new().run(&mut sys, &mut adv, steps, 13);
        let join_msgs = sys.ledger().stats(now_net::CostKind::Join).mean_messages();
        let leave_msgs = sys.ledger().stats(now_net::CostKind::Leave).mean_messages();
        let compromised = report.count(ViolationKind::RandNumCompromised);
        let captured = report.count(ViolationKind::Forgeable);
        let label = if cap == usize::MAX {
            "all".to_string()
        } else {
            cap.to_string()
        };
        table.row([
            label.into(),
            join_msgs.into(),
            leave_msgs.into(),
            report.peak_byz_fraction().into(),
            compromised.into(),
            captured.into(),
        ]);
        sys.check_consistency().unwrap();
    }

    println!("{}", table.to_markdown());
    println!("expectation: cap 0 (no shuffle) is the §3.3 victim — the attacker saturates");
    println!("its target (peak_frac well past 1/2, captured_steps > 0). The defense then");
    println!("turns out to be nearly *binary*: even cap 1 (one uniform replacement per");
    println!("operation) already denies capture outright, and further volume only trims");
    println!("the transient 1/3-threshold excursions (randnum_compromised_steps) while the");
    println!("per-operation cost grows linearly in the cap (~20x from cap 1 to 'all').");
    println!("What the full exchange uniquely buys is Lemma 1's one-shot reset — the");
    println!("composition returns to Binomial(|C|, τ) within a single operation — which is");
    println!("the step Theorem 3's alternating-subsequence argument leans on after a");
    println!("leave's non-uniform spillover; the capped variants only guarantee the slower");
    println!("Lemma 2-3 drift recovery.");
    table
        .write_csv(&results_dir().join("x_abl_exchange.csv"))
        .unwrap();
    println!("wrote results/x_abl_exchange.csv");
}
