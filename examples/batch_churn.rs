//! Parallel join/leave batches — the paper's §2 footnote, driven by the
//! campaign engine.
//!
//! "The analysis can be generalized to several parallel join and leave
//! operations." Instead of hand-rolling a width sweep, this example
//! declares one [`Campaign`] whose phases re-run balanced churn at
//! growing batch widths on the *same* system: each phase's report
//! carries the wave schedule (counts, widths, slack), so the sweep
//! falls out of the per-phase table. A second, text-defined campaign
//! shows the `scenarios/*.campaign` file format end to end.
//!
//! Run with: `cargo run --release --example batch_churn`

use now_bft::campaign::{Campaign, Phase, PhaseStyle, Trigger};

fn main() {
    // Cluster count ≫ overlay degree is what gives the scheduler room:
    // capacity 16 ⇒ overlay target degree 5, and we run ~64 clusters.
    let mut sweep = Campaign::new("width-sweep", 16);
    sweep.tau = 0.10;
    sweep.initial_population = 512;
    sweep.seed = 99;
    for width in [1usize, 4, 8, 16] {
        sweep = sweep.phase(
            Phase::new(
                format!("width-{width}"),
                PhaseStyle::Balanced,
                Trigger::Steps(400 / width as u64),
            )
            .width(width),
        );
    }

    let (report, sys) = sweep.run(4).expect("valid campaign");
    println!("batch width sweep (400 operations per phase, τ = 0.1, ~64 clusters):\n");
    println!(
        "{:>10} {:>7} {:>14} {:>16} {:>7} {:>10} {:>11}",
        "phase", "steps", "rounds serial", "rounds parallel", "waves", "max width", "wave slack"
    );
    for p in &report.phases {
        let r = &p.run;
        println!(
            "{:>10} {:>7} {:>14} {:>16} {:>7} {:>10} {:>11}",
            p.name,
            r.steps,
            r.rounds_serial,
            r.rounds_parallel,
            r.waves,
            r.max_wave_width,
            r.wave_slack_rounds
        );
    }
    sys.check_consistency().expect("system is consistent");

    // The same engine reads the declarative text format — this is what
    // the scenarios/ corpus and the x_campaign binary run.
    let text = "
campaign mixed-regimes
capacity 16
tau 0.10
initial-population 512
seed 100
width 8

phase churn
  style balanced
  steps 50

phase flood
  style join-leave
  target largest
  steps 30

phase quiesce
  style quiet
  steps 10
";
    let campaign = Campaign::parse(text).expect("well-formed campaign text");
    let (report, sys) = campaign.run(4).expect("campaign runs");
    println!("\ndeclarative campaign `{}`:", report.campaign);
    for p in &report.phases {
        let r = &p.run;
        println!(
            "  {:>8} ({}): {} steps, {} joins, {} leaves, {} waves (≤ {} wide), pop {}→{}",
            p.name,
            p.style,
            r.steps,
            r.joins,
            r.leaves,
            r.waves,
            r.max_wave_width,
            p.pop_start,
            r.final_audit.population
        );
    }
    sys.check_consistency().expect("system is consistent");

    println!("\nparallelism saves rounds, not messages — and Theorem 3 survives it.");
}
