//! X-RC — `randCl` samples clusters size-biased (`|C|/n`), at polylog
//! cost.
//!
//! Claim (§3.1): the biased CTRW outputs cluster `C` with probability
//! `|C|/n` (a uniformly random node's cluster), with expected cost
//! `O(log⁵N)` messages and `O(log⁴N)` rounds. We sweep the walk-length
//! factor to show the distribution converging as walks lengthen — the
//! exact total-variation distance of the walk's output law from `|C|/n`
//! ([`ctrw_law`], worst start) falling, printed beside the `1/N²` the
//! walk is sized for — with the cost, measured on real walks, rising:
//! the operating point trade-off. The binary exits nonzero if the TV
//! does not fall from each factor to the next until it reaches the
//! law's floating-point resolution.

use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_graph::{ctrw_law, total_variation};
use now_net::CostKind;
use now_sim::Table;

/// Below this the exact TV is rounding: `ctrw_law` stops once less than
/// 10⁻¹⁵ of its mass is unaccepted, and sums a term per cluster.
const TV_RESOLUTION: f64 = 1e-14;

fn main() {
    println!("# X-RC: randCl distribution and cost (§3.1)\n");
    let trials = 3000;
    let capacity = 1u64 << 12;
    let one_over_n2 = 1.0 / (capacity as f64 * capacity as f64);
    // tv_distance: exact, from the worst start, to the size-biased law
    // |C|/n; the cost columns average `trials` real walks.
    let mut table = Table::new([
        "walk_factor",
        "tv_distance",
        "one_over_n2",
        "mean_msgs",
        "mean_rounds",
        "mean_hops",
        "mean_restarts",
    ]);

    let mut tvs = Vec::new();
    for &factor in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let params = NowParams::new(capacity, 2, 1.5, 0.30, 0.05)
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

        let (g, vertices) = sys.overlay().to_dense();
        let sizes: Vec<usize> = vertices
            .iter()
            .map(|&c| sys.cluster(c).unwrap().size())
            .collect();
        let n = sys.population() as f64;
        let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / n).collect();
        let duration = params.ctrw_duration(vertices.len());
        let tv = (0..vertices.len())
            .map(|s| {
                let law = ctrw_law(&g, &sizes, params.max_cluster_size(), duration, s);
                total_variation(&law, &target)
            })
            .fold(0.0, f64::max);
        tvs.push(tv);

        let start = ids[2];
        let before_rc = sys.ledger().stats(CostKind::RandCl);
        let mut hops = 0u64;
        let mut restarts = 0u64;
        for _ in 0..trials {
            let (_, t) = sys.rand_cl_from(start);
            hops += t.hops;
            restarts += t.restarts;
        }
        let after_rc = sys.ledger().stats(CostKind::RandCl);
        let mean_msgs = (after_rc.total_messages - before_rc.total_messages) as f64 / trials as f64;
        let mean_rounds = (after_rc.total_rounds - before_rc.total_rounds) as f64 / trials as f64;
        table.row([
            factor.into(),
            tv.into(),
            one_over_n2.into(),
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
    println!("expectation: the exact TV falls steeply as walks lengthen: it is above");
    println!("1/N² at the short factors, below it from the default factor 1.0 on, and at");
    println!("the law's floating-point floor (≈ 10⁻¹⁵) beyond; the cost grows ~linearly");
    println!("in the factor, and the default factor sits inside the paper's cost envelope.");
    table
        .write_csv(&results_dir().join("x_rc_randcl.csv"))
        .unwrap();
    println!("wrote results/x_rc_randcl.csv");
    let stalls = tvs
        .windows(2)
        .position(|w| w[0] > TV_RESOLUTION && w[1] >= w[0]);
    if let Some(i) = stalls {
        eprintln!(
            "x_rc_randcl: the exact TV did not fall from row {} to row {}: {:e} → {:e}",
            i + 1,
            i + 2,
            tvs[i],
            tvs[i + 1]
        );
        std::process::exit(1);
    }
}
