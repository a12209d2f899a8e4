//! The §3.3 join–leave attack as a campaign: NOW's shuffling vs the
//! no-shuffle baseline — plus a hardened-adversary extension.
//!
//! The adversary fixates on one cluster and cycles its Byzantine nodes
//! out of the network and back in, always contacting the target — here
//! at batch rate through the campaign engine's [`PhaseStyle::JoinLeave`]
//! driver. Without `exchange` shuffling the Byzantine mass accumulates
//! in the target until it is captured; with NOW, every join scatters
//! the host cluster's whole membership and the target hovers near the
//! global corruption rate.
//!
//! Three runs of the *same* campaign (warmup → sustained flood →
//! quiesce), differing only in the system they run on:
//! 1. **baseline** — `shuffle off`: static clustering falls to the
//!    attack;
//! 2. **NOW** — the full protocol absorbs it;
//! 3. **NOW, hardened adversary** (beyond the paper's analysis) — the
//!    campaign runs on a pre-built system carrying a strategic
//!    [`TargetedMalice`] oracle ([`Campaign::run_on`]): if any cluster
//!    transiently reaches the 1/3 `randNum`-compromise threshold, the
//!    adversary exploits it — stalling walks, steering hops, draining
//!    honest members. The defense is Lemma 1's "k large enough"; see
//!    `x_jla_attack` (README § Experiment index) for the k sweep.
//!
//! Run with: `cargo run --release --example join_leave_attack`

use now_bft::adversary::TargetedMalice;
use now_bft::campaign::{Campaign, Phase, PhaseStyle, Trigger};
use now_bft::core::SecurityMode;

fn campaign(shuffle: bool) -> Campaign {
    let mut c = Campaign::new("join-leave-attack", 1 << 12);
    c.k = 4;
    c.l = 2.0;
    c.tau = 0.12;
    c.epsilon = 0.05;
    c.initial_population = 560;
    c.seed = 11;
    c.width = 4;
    c.shuffle = shuffle;
    c.phase(Phase::new(
        "warmup",
        PhaseStyle::Balanced,
        Trigger::Steps(50),
    ))
    .phase(
        Phase::new("flood", PhaseStyle::JoinLeave, Trigger::Steps(500))
            .target(now_bft::adversary::ClusterPick::First),
    )
    .phase(Phase::new("quiesce", PhaseStyle::Quiet, Trigger::Steps(20)))
}

fn summarize(label: &str, report: &now_bft::campaign::CampaignReport) {
    println!("\n=== {label} ===");
    for p in &report.phases {
        println!(
            "  {:>8}: {:>4} steps, peak byz fraction {:.3}, {} binding violations",
            p.name,
            p.run.steps,
            p.run.peak_byz_fraction(),
            p.run.binding_violations()
        );
    }
    let flood = report.phases[1].run.peak_byz_fraction();
    if flood >= 0.5 {
        println!("  CAPTURED: some cluster reached 1/2 Byzantine during the flood");
    } else {
        println!(
            "  never captured (flood peaked at {:.3}, honest majority throughout)",
            flood
        );
    }
}

fn main() {
    // k = 4, l = 2.0: clusters of ~48–96 at N = 2^12. At τ = 0.12 the
    // Chernoff tail from the mean Byzantine share (~12%) to the 1/3
    // threshold is ≈ 4.7σ, so the paper-model runs stay clear of
    // compromise, while the baseline's target accumulates Byzantine
    // mass monotonically until capture.
    let baseline = campaign(false);
    let (report, sys) = baseline.run(1).expect("baseline campaign runs");
    summarize("baseline: no shuffling, batched §3.3 adversary", &report);
    sys.check_consistency().expect("consistent");

    let now = campaign(true);
    let (report, sys) = now.run(1).expect("NOW campaign runs");
    summarize("NOW: shuffling on, batched §3.3 adversary", &report);
    sys.check_consistency().expect("consistent");

    // The hardened run pre-builds the system, installs the strategic
    // in-protocol oracle aimed at the flood's target, then hands the
    // system to the same campaign.
    let hardened = campaign(true);
    let mut sys = hardened.build_system().expect("valid parameters");
    let target = sys.cluster_ids()[0];
    sys.set_malice(Box::new(TargetedMalice::new(target)));
    let report = hardened
        .run_on(&mut sys, 1)
        .expect("hardened campaign runs");
    summarize(
        "NOW: shuffling on, HARDENED adversary (beyond-paper)",
        &report,
    );
    sys.check_consistency().expect("consistent");

    assert_eq!(report.security, SecurityMode::Plain);
    println!("\nshuffling is the defense: the baseline's flood concentrates, NOW's scatters.");
}
