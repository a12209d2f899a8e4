//! Secure polling under churn — the application of the paper's
//! reference [12] (Gambs et al., SRDS 2012), built on the NOW clusters.
//!
//! A binary poll runs over the cluster overlay while the network churns
//! and the adversary ballots as a bloc. The clustering bounds the
//! adversary's distortion by the number of ballots it actually owns —
//! no tally stuffing, no cluster-level misreporting (the quorum rule
//! blocks it while every cluster keeps its honest majority).
//!
//! Run with: `cargo run --release --example secure_polling`

use now_bft::apps::poll;
use now_bft::core::{NowParams, NowSystem};
use now_bft::sim::{BatchRandomChurn, BatchRun};

fn main() {
    let params = NowParams::new(1 << 12, 4, 1.5, 0.15, 0.05).expect("valid parameters");
    let mut sys = NowSystem::init_fast(params, 600, 0.15, 2024);
    println!(
        "network: {} nodes ({} Byzantine), {} clusters\n",
        sys.population(),
        sys.byz_population(),
        sys.cluster_count()
    );

    // The question: honest nodes split ~60/40 (even ids lean yes);
    // the adversary wants "yes" to win and ballots as a bloc.
    let intent = |n: now_bft::net::NodeId| n.raw() % 5 < 3;

    for round in 0..4 {
        // Poll, then churn, then poll again — the guarantee is per-poll,
        // whatever the interleaving.
        let root = sys.cluster_ids()[0];
        let report = poll(&mut sys, root, intent, true);
        let n = report.yes + report.no;
        println!(
            "poll #{round}: {} ballots over {} clusters",
            n,
            sys.cluster_count()
        );
        println!(
            "  counted  : yes {:>4}  no {:>4}  ({:.1}% yes)",
            report.yes,
            report.no,
            100.0 * report.yes as f64 / n as f64
        );
        println!(
            "  honest   : yes {:>4}  no {:>4}  ({:.1}% yes)",
            report.honest_yes,
            report.honest_no,
            100.0 * report.honest_yes as f64 / (report.honest_yes + report.honest_no) as f64
        );
        println!(
            "  distortion {} ≤ byzantine ballots {}  (complete: {}, {} msgs, {} rounds)",
            report.distortion(),
            sys.byz_population(),
            report.complete,
            report.messages,
            report.rounds
        );
        assert!(report.distortion() <= sys.byz_population());

        // 150 steps of churn between polls.
        let mut churn = BatchRandomChurn::balanced(1, 0.15);
        BatchRun::new()
            .audit_every(10)
            .run(&mut sys, &mut churn, 150, 31 + round);
    }

    sys.check_consistency().expect("system is consistent");
    println!("\nthe adversary never moved the tally by more than its own ballot count.");
}
