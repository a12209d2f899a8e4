//! X-ALT — overlay alternatives: OVER vs Law–Siu random cycles.
//!
//! §3: NOW's requirements "could also be ensured by other protocols
//! which differ either in the number of failures they can \[tolerate\]
//! or their degree (e.g. 4 in \[2\] instead of log^{1+α}N in OVER)".
//! The constant-degree construction in the paper's related work is Law
//! & Siu's union of random cycles (\[26\]). We compare, at equal vertex
//! count and under identical add/remove churn:
//!
//! * degree (the resource the alternative saves),
//! * spectral gap λ₂ (the expansion OVER buys with its higher degree),
//! * CTRW mixing: the exact total-variation distance of the endpoint law
//!   from uniform at three walk durations, from the worst start — the
//!   quantity `randCl`'s accuracy and cost actually depend on.

use now_bench::results_dir;
use now_graph::{ctrw_law, total_variation};
use now_net::{ClusterId, DetRng};
use now_over::{CyclesOverlay, OverParams, Overlay};
use now_sim::Table;

fn ids(n: u64) -> Vec<ClusterId> {
    (0..n).map(ClusterId::from_raw).collect()
}

fn main() {
    println!("# X-ALT: OVER vs Law-Siu cycles (§3 overlay-agnosticism)\n");
    let m = 96usize; // overlay vertices (clusters)
    let churn_rounds = 200usize;
    let mut table = Table::new([
        "overlay", "max_deg", "mean_deg", "lambda2", "tv_dur2", "tv_dur8", "tv_dur32",
    ]);

    // Identical churn script applied to each candidate.
    let mut eval = |name: &str, graph: now_graph::Graph| {
        let n = graph.vertex_count();
        let (units, uniform) = (vec![1; n], vec![1.0 / n as f64; n]);
        // The plain CTRW (per-edge rate 1, so holding rate = degree) is
        // randCl's law with every size at the normaliser: its first
        // endpoint is accepted. Its stationary law is uniform over
        // vertices regardless of regularity.
        let [tv2, tv8, tv32] = [2.0f64, 8.0, 32.0].map(|duration| {
            (0..n)
                .map(|s| total_variation(&ctrw_law(&graph, &units, 1, duration, s), &uniform))
                .fold(0.0, f64::max)
        });
        let lambda2 =
            now_graph::algebraic_connectivity(&graph, now_graph::SpectralOptions::default());
        table.row([
            name.into(),
            graph.max_degree().into(),
            graph.mean_degree().into(),
            lambda2.into(),
            tv2.into(),
            tv8.into(),
            tv32.into(),
        ]);
    };

    // OVER, after churn.
    let params = OverParams::for_capacity(1 << 12);
    let mut rng = DetRng::new(7);
    let mut over = Overlay::init_random(&ids(m as u64), params, &mut rng);
    let mut next = 10_000u64;
    for round in 0..churn_rounds {
        if round % 2 == 0 {
            over.add_uniform(ClusterId::from_raw(next), &mut rng);
            next += 1;
        } else {
            let live: Vec<ClusterId> = over.vertices().collect();
            over.remove(live[round % live.len()], &mut rng);
        }
    }
    let (g_over, _) = over.to_dense();
    eval("OVER", g_over);

    // Law–Siu cycles at r ∈ {1, 2, 3}, same churn script.
    for r in [1usize, 2, 3] {
        let mut rng = DetRng::new(7);
        let mut cyc = CyclesOverlay::init(&ids(m as u64), r, &mut rng);
        let mut next = 10_000u64;
        for round in 0..churn_rounds {
            if round % 2 == 0 {
                cyc.insert(ClusterId::from_raw(next), &mut rng);
                next += 1;
            } else {
                let live: Vec<ClusterId> = cyc.vertices().collect();
                cyc.remove(live[round % live.len()]);
            }
        }
        cyc.check_invariants().unwrap();
        let (g_cyc, _) = cyc.to_dense();
        eval(&format!("cycles r={r} (deg<={})", 2 * r), g_cyc);
    }

    println!("{}", table.to_markdown());
    println!("expectation: OVER's log-degree buys a larger λ₂ and near-instant mixing");
    println!("(exact worst-start TV from uniform already ≈ 10⁻⁶ at duration 2, and at");
    println!("the law's floating-point floor, ≈ 10⁻¹⁵, from 8 on); the r = 2 cycles");
    println!("overlay (degree ≤ 4 — the constant the paper quotes for [2]) still mixes,");
    println!("but needs a longer walk for the same TV — the degree/walk-length trade-off");
    println!("that makes randCl's cost O(log⁵N) either way: cheaper hops × more of");
    println!("them. r = 1 is the control: a single cycle's λ₂ vanishes and walks do");
    println!("not mix at any affordable duration.");
    table
        .write_csv(&results_dir().join("x_alt_overlay.csv"))
        .unwrap();
    println!("wrote results/x_alt_overlay.csv");
}
