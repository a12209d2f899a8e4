//! X-RC — `randCl` samples clusters size-biased (`|C|/n`), at polylog
//! cost.
//!
//! Claim (§3.1): the biased CTRW outputs cluster `C` with probability
//! `|C|/n` (a uniformly random node's cluster), with expected cost
//! `O(log⁵N)` messages and `O(log⁴N)` rounds. We sweep the walk-length
//! factor to show the distribution converging (TV distance falling) as
//! walks lengthen, with the cost rising — the operating point trade-off.

use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_net::CostKind;
use now_sim::Table;
use std::collections::BTreeMap;

fn main() {
    println!("# X-RC: randCl distribution and cost (§3.1)\n");
    let trials = 3000;
    // tv_distance: to the size-biased law |C|/n.
    let mut table = Table::new([
        "walk_factor",
        "tv_distance",
        "mean_msgs",
        "mean_rounds",
        "mean_hops",
        "mean_restarts",
    ]);

    for &factor in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let params = NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05)
            .unwrap()
            .with_walk_length_factor(factor);
        let n0 = 16 * params.target_cluster_size();
        let mut sys = NowSystem::init_fast(params, n0, 0.10, 55);
        // Unbalance sizes so the size bias is observable.
        let ids = sys.cluster_ids();
        for _ in 0..params.target_cluster_size() / 3 {
            let donor = ids[1];
            let m = sys.cluster(donor).unwrap().member_at(0);
            sys.force_move(m, ids[0]).unwrap();
        }
        let start = ids[2];
        let before_rc = sys.ledger().stats(CostKind::RandCl);
        let mut counts: BTreeMap<now_net::ClusterId, u64> = BTreeMap::new();
        let mut hops = 0u64;
        let mut restarts = 0u64;
        for _ in 0..trials {
            let (c, t) = sys.rand_cl_from(start);
            *counts.entry(c).or_default() += 1;
            hops += t.hops;
            restarts += t.restarts;
        }
        let after_rc = sys.ledger().stats(CostKind::RandCl);
        let n = sys.population() as f64;
        let mut tv = 0.0;
        for id in sys.cluster_ids() {
            let expect = sys.cluster(id).unwrap().size() as f64 / n;
            let got = *counts.get(&id).unwrap_or(&0) as f64 / trials as f64;
            tv += (expect - got).abs();
        }
        tv /= 2.0;
        let mean_msgs = (after_rc.total_messages - before_rc.total_messages) as f64 / trials as f64;
        let mean_rounds = (after_rc.total_rounds - before_rc.total_rounds) as f64 / trials as f64;
        table.row([
            factor.into(),
            tv.into(),
            mean_msgs.into(),
            mean_rounds.into(),
            (hops as f64 / trials as f64).into(),
            (restarts as f64 / trials as f64).into(),
        ]);
    }

    println!("{}", table.to_markdown());
    let log_n = 12.0f64;
    println!(
        "paper cost bounds at logN = 12: O(log⁵N) = O({:.0}) messages, O(log⁴N) = O({:.0}) rounds.",
        log_n.powi(5),
        log_n.powi(4)
    );
    println!("expectation: TV sits at/near the sampling noise floor sqrt(#C/(2π·trials))");
    println!("≈ 0.03 even for the shortest walks (the OVER overlay mixes in O(1) relaxation");
    println!("times), while cost grows ~linearly in the factor — so the paper's walk length");
    println!("is conservative here; the default factor 1.0 sits inside its cost envelope.");
    table
        .write_csv(&results_dir().join("x_rc_randcl.csv"))
        .unwrap();
    println!("wrote results/x_rc_randcl.csv");
}
