//! X-RC — `randCl` samples clusters size-biased (`|C|/n`), at polylog
//! cost.
//!
//! Claim (§3.1): `randCl` outputs cluster `C` with probability `|C|/n`
//! (a uniformly random node's cluster), with expected cost `O(log⁵N)`
//! messages and `O(log⁴N)` rounds. Two tables, both read off exact laws
//! rather than sampled:
//!
//! 1. Per bench start shape (`init_fast`, seed 1), the hops one `randCl`
//!    call needs to come within total variation `1/N²` of `|C|/n` from
//!    every start: for the paper's biased CTRW ([`ctrw_law`], at the
//!    shortest duration that reaches it from the starts tried) and for
//!    the implemented non-backtracking walk ([`nbrw_law`], at its length
//!    `k` and at `⌊k/1.25⌋`). A call's hops are a walk's hops times the
//!    walks a call takes, both at stationarity: a CTRW makes `mean
//!    degree × duration` hops and is accepted with the mean of `|C| /
//!    max`; a walk makes `k` and is accepted with probability `d_min · n /
//!    (2|E| · max)`. The binary exits nonzero if the walk misses `1/N²` at
//!    `⌊k/1.25⌋` on a shape, or needs more hops there than the CTRW.
//! 2. A sweep of the walk-length factor on a small system: the exact
//!    worst-start TV falls as walks lengthen, printed beside the `1/N²`
//!    the walk is sized for, while the cost, measured on real walks,
//!    rises: the operating point trade-off. The binary exits nonzero if
//!    the TV does not fall from each factor to the next until it reaches
//!    the law's floating-point resolution.

use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_graph::{ctrw_law, nbrw_law, total_variation, Graph};
use now_net::CostKind;
use now_sim::Table;

/// Below this the exact TV is rounding: it sums a term per cluster of
/// laws accurate to about 10⁻¹⁶.
const TV_RESOLUTION: f64 = 1e-14;

/// The start overlay of a system, with its cluster sizes and their
/// target law `|C|/n`.
struct Shape {
    g: Graph,
    sizes: Vec<usize>,
    target: Vec<f64>,
}

impl Shape {
    fn of(sys: &NowSystem) -> Self {
        let (g, vertices) = sys.overlay().to_dense();
        let sizes: Vec<usize> = vertices
            .iter()
            .map(|&c| sys.cluster(c).unwrap().size())
            .collect();
        let n = sizes.iter().sum::<usize>() as f64;
        let target = sizes.iter().map(|&s| s as f64 / n).collect();
        Shape { g, sizes, target }
    }

    /// The non-backtracking walk's worst-start TV at `k` hops a walk.
    fn nbrw_tv(&self, max: usize, k: usize) -> f64 {
        nbrw_law(&self.g, &self.sizes, max, k)
            .iter()
            .map(|law| total_variation(law, &self.target))
            .fold(0.0, f64::max)
    }

    /// The CTRW's worst TV over `starts` at `duration`.
    fn ctrw_tv(&self, max: usize, duration: f64, starts: &[usize]) -> f64 {
        starts
            .iter()
            .map(|&s| {
                total_variation(
                    &ctrw_law(&self.g, &self.sizes, max, duration, s),
                    &self.target,
                )
            })
            .fold(0.0, f64::max)
    }

    /// The 8 evenly spaced vertices and the 8 of least degree, where
    /// a walk mixes slowest.
    fn ctrw_starts(&self) -> Vec<usize> {
        let m = self.g.vertex_count();
        let mut by_degree: Vec<usize> = (0..m).collect();
        by_degree.sort_by_key(|&v| self.g.degree(v));
        let mut starts: Vec<usize> = (0..8).map(|i| i * m / 8).collect();
        starts.extend(by_degree.iter().take(8));
        starts.sort_unstable();
        starts.dedup();
        starts
    }

    /// The shortest CTRW duration whose worst TV over [`Self::ctrw_starts`]
    /// is at most `eps`, to 0.2 %, by bisection on a bracket that
    /// doubles until it holds one.
    fn shortest_ctrw(&self, max: usize, eps: f64) -> f64 {
        let starts = self.ctrw_starts();
        let (mut lo, mut hi) = (0.0, 1.0);
        while self.ctrw_tv(max, hi, &starts) > eps {
            (lo, hi) = (hi, 2.0 * hi);
        }
        while hi - lo > 0.002 * hi {
            let mid = 0.5 * (lo + hi);
            if self.ctrw_tv(max, mid, &starts) > eps {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        hi
    }
}

/// Table 1: the hops per call each walk needs on each bench start
/// shape. Returns the failures.
fn shapes_table() -> Vec<String> {
    // (workload, N, k, clusters, τ of the start), as bench/ builds them.
    let shapes = [
        ("storm_event", 1u64 << 11, 3, 20, 0.10),
        ("steady_*", 1 << 12, 2, 128, 0.05),
        ("grow_wide", 1 << 16, 2, 1_024, 0.05),
    ];
    let mut table = Table::new([
        "workload",
        "clusters",
        "one_over_n2",
        "ctrw_duration",
        "ctrw_hops_per_call",
        "k",
        "tv_at_k",
        "tv_at_k_over_1_25",
        "walks_per_call",
        "nbrw_hops_per_call",
    ]);
    let mut failures = Vec::new();
    for (name, capacity, k_param, clusters, tau0) in shapes {
        let params = NowParams::new(capacity, k_param, 1.5, 0.30, 0.05).unwrap();
        let sys = NowSystem::init_fast(params, clusters * params.target_cluster_size(), tau0, 1);
        let shape = Shape::of(&sys);
        let (m, max) = (shape.g.vertex_count(), params.max_cluster_size());
        let eps = 1.0 / (capacity as f64 * capacity as f64);

        let duration = shape.shortest_ctrw(max, eps);
        let mean_accept = shape
            .sizes
            .iter()
            .map(|&s| s.min(max) as f64 / max as f64)
            .sum::<f64>()
            / m as f64;
        let ctrw_hops = shape.g.mean_degree() * duration / mean_accept;

        let k = params.walk_length(m);
        let (tv_k, tv_margin) = (shape.nbrw_tv(max, k), shape.nbrw_tv(max, k * 4 / 5));
        let accepted: usize = shape.sizes.iter().map(|&s| s.min(max)).sum();
        let walks =
            (2 * shape.g.edge_count() * max) as f64 / (shape.g.min_degree() * accepted) as f64;
        let nbrw_hops = k as f64 * walks;
        if tv_margin > eps {
            failures.push(format!(
                "{name}: the walk's worst-start TV at ⌊k/1.25⌋ = {} hops is {tv_margin:e} > 1/N² = {eps:e}",
                k * 4 / 5
            ));
        }
        if nbrw_hops > ctrw_hops {
            failures.push(format!(
                "{name}: the walk needs {nbrw_hops:.1} hops per call, the CTRW {ctrw_hops:.1}"
            ));
        }
        table.row([
            name.into(),
            m.into(),
            eps.into(),
            duration.into(),
            ctrw_hops.into(),
            k.into(),
            tv_k.into(),
            tv_margin.into(),
            walks.into(),
            nbrw_hops.into(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("expectation: on every shape the walk is within 1/N² already at ⌊k/1.25⌋ hops");
    println!("a walk, and a call takes fewer hops than the paper's CTRW needs for the same");
    println!("TV (its duration bisected over 16 starts: 8 evenly spaced, 8 of least degree).\n");
    table
        .write_csv(&results_dir().join("x_rc_randcl_shapes.csv"))
        .unwrap();
    println!("wrote results/x_rc_randcl_shapes.csv\n");
    failures
}

/// Table 2: the walk-length factor sweep. Returns the failures.
fn factor_sweep() -> Vec<String> {
    let trials = 3000;
    let capacity = 1u64 << 12;
    let one_over_n2 = 1.0 / (capacity as f64 * capacity as f64);
    // tv_distance: exact, from the worst start, to the size-biased law
    // |C|/n; the cost columns average `trials` real walks.
    let mut table = Table::new([
        "walk_factor",
        "k",
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

        let shape = Shape::of(&sys);
        let k = params.walk_length(shape.g.vertex_count());
        let tv = shape.nbrw_tv(params.max_cluster_size(), k);
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
            k.into(),
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
    println!("the law's floating-point floor (≈ 10⁻¹⁶) beyond; the cost grows ~linearly");
    println!("in the factor, and the default factor sits inside the paper's cost envelope.");
    table
        .write_csv(&results_dir().join("x_rc_randcl.csv"))
        .unwrap();
    println!("wrote results/x_rc_randcl.csv");
    tvs.windows(2)
        .enumerate()
        .filter(|(_, w)| w[0] > TV_RESOLUTION && w[1] >= w[0])
        .map(|(i, w)| {
            format!(
                "the exact TV did not fall from row {} to row {}: {:e} → {:e}",
                i + 1,
                i + 2,
                w[0],
                w[1]
            )
        })
        .collect()
}

fn main() {
    println!("# X-RC: randCl distribution and cost (§3.1)\n");
    let mut failures = shapes_table();
    failures.extend(factor_sweep());
    for failure in &failures {
        eprintln!("x_rc_randcl: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
