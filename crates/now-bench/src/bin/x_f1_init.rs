//! X-F1 — Figure 1 (initialization phase).
//!
//! Claim: discovery floods `O(n·e)` message units within the honest
//! diameter; clusterization is the dominant super-linear term (the
//! substituted committee election is accounted at `Õ(n^1.5)`).
//! We run the genuinely executed L0 path (`now_core::init`) and compare
//! the measured discovery cost against the `n·e` envelope.

use now_bench::results_dir;
use now_core::init::{clusterize, discover};
use now_core::NowParams;
use now_graph::gen;
use now_graph::traversal::diameter;
use now_net::ieee::log2;
use now_net::{CostKind, DetRng, Ledger};
use now_sim::Table;
use std::collections::BTreeSet;

fn main() {
    println!("# X-F1: initialization phase (Figure 1)\n");
    let mut table = Table::new([
        "n",
        "e",
        "disc_msgs",
        "two_n_e",
        "ratio",
        "disc_rounds",
        "diameter",
        "clus_msgs",
    ]);

    for (i, n) in [64usize, 128, 256, 512].into_iter().enumerate() {
        let mut rng = DetRng::new(100 + i as u64);
        // Bootstrap graph dense enough to stay connected with byz cuts.
        let p = (4.0 * log2(n as f64) / n as f64).min(0.5);
        let g = gen::erdos_renyi(n, p, &mut rng);
        let byz: BTreeSet<usize> = (0..n / 5).collect(); // 20% silent
        let mut ledger = Ledger::new();
        let out = discover(&g, &byz, &mut ledger);
        assert!(out.complete, "discovery must complete at this density");
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let _cl = clusterize(
            n,
            &byz,
            params.initial_cluster_count(n),
            &mut ledger,
            &mut rng,
        );
        let clus = ledger.stats(CostKind::Clusterization);
        let e = g.edge_count() as u64;
        let envelope = 2 * n as u64 * e; // each id crosses each edge at most once per direction
        let dia = diameter(&g).unwrap_or(0);
        table.row([
            n.into(),
            e.into(),
            out.message_units.into(),
            envelope.into(),
            (out.message_units as f64 / envelope as f64).into(),
            out.rounds.into(),
            dia.into(),
            clus.total_messages.into(),
        ]);
    }

    println!("{}", table.to_markdown());
    println!("expectation: disc_msgs ≤ 2·n·e (ratio < 1; the paper's O(n·e) absorbs the");
    println!("per-direction constant); rounds track the honest-adjacent diameter.");
    table
        .write_csv(&results_dir().join("x_f1_init.csv"))
        .unwrap();
    println!("\nwrote results/x_f1_init.csv");
}
