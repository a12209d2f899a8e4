//! X-PRESSURE — structural attacks on the split/merge machinery.
//!
//! §3.3's join–leave attack targets cluster *composition*; these
//! adversaries target the *operations* that reshape clusters:
//!
//! * split-forcing floods one cluster with arrivals (every arrival
//!   contacts the target) hoping to seize a split half — a split
//!   partitions the current membership rather than resampling it;
//! * merge-forcing drains a target so it keeps absorbing `randCl`-chosen
//!   victims — maximal structural churn per departure.
//!
//! Measured: operation mix, invariant violations, and the worst
//! composition reached — against both the full protocol and the
//! no-shuffle ablation (where the same pressure is expected to break
//! the target).

use now_adversary::{BatchDriver, BurstChurn, MergeForcing, SplitForcing};
use now_bench::results_dir;
use now_core::{NowParams, NowSystem};
use now_net::ClusterId;
use now_sim::{BatchRandomChurn, BatchRun, Table, ViolationKind};

/// Builds an attack's per-step driver against the target cluster.
type Attack = fn(ClusterId, f64) -> Box<dyn BatchDriver>;

fn main() {
    println!("# X-PRESSURE: split/merge-forcing attacks (§3.3 extension)\n");
    let steps = 500u64;
    let tau = 0.20;
    let mut table = Table::new([
        "attack",
        "shuffle",
        "splits",
        "merges",
        "peak_frac",
        "not_two_thirds_steps",
        "forgeable_steps",
    ]);

    let attacks: [(Attack, &str); 4] = [
        (
            |_, tau| Box::new(BatchRandomChurn::balanced(1, tau)),
            "balanced (control)",
        ),
        (
            |target, tau| Box::new(SplitForcing::new(target, tau)),
            "split-forcing",
        ),
        (
            |target, tau| Box::new(MergeForcing::new(target, tau)),
            "merge-forcing",
        ),
        (|_, tau| Box::new(BurstChurn::new(8, tau)), "burst-8"),
    ];
    for (attack, label) in attacks {
        for shuffle in [true, false] {
            let params = NowParams::new(1 << 12, 4, 1.5, tau, 0.05)
                .unwrap()
                .with_shuffle(shuffle);
            let n0 = 10 * params.target_cluster_size();
            let mut sys = NowSystem::init_fast(params, n0, tau, 23);
            // The attacks target the first cluster.
            let mut driver = attack(sys.cluster_ids()[0], tau);
            let report = BatchRun::new().run(&mut sys, driver.as_mut(), steps, 24);
            let (_, _, splits, merges) = sys.op_counts();
            table.row([
                label.into(),
                shuffle.into(),
                splits.into(),
                merges.into(),
                report.peak_byz_fraction().into(),
                report.count(ViolationKind::NotTwoThirdsHonest).into(),
                report.count(ViolationKind::Forgeable).into(),
            ]);
            sys.check_consistency().unwrap();
        }
    }

    println!("{}", table.to_markdown());
    println!("expectation: the attacks trigger their targeted operations (splits resp.");
    println!("merges > 0) but never capture a cluster (forgeable_steps = 0 everywhere):");
    println!("randCl re-routes the flood and merges re-sample both clusters, so structural");
    println!("pressure buys the adversary nothing beyond the balanced-churn control's");
    println!("numbers. The not-2/3 excursions in the shuffle=true rows track the control:");
    println!("they are the k = 4, τ = 0.20 thin-margin *resampling noise* of Lemma 1 (every");
    println!("exchange redraws a Binomial(|C|, τ) composition; X-T3's k-sweep kills them),");
    println!("not an attack effect. The shuffle=false column splits by churn direction:");
    println!("join-dominated rows (split-forcing, burst) barely move — nothing resamples —");
    println!("while leave-bearing rows (control, merge-forcing) drift *worse* than with");
    println!("shuffling, the §3.3 motivation. And no-shuffle is exactly the configuration");
    println!("the join-leave attacker captures outright (X-JLA, X-ABL-EX).");
    table
        .write_csv(&results_dir().join("x_pressure.csv"))
        .unwrap();
    println!("wrote results/x_pressure.csv");
}
