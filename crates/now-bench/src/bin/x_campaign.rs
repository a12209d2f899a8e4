//! X-CAMPAIGN — run a declarative attack campaign file.
//!
//! Usage: `x_campaign <file.campaign> [--threads N] [--out <path>]`
//!
//! Parses the campaign text format (`now-campaign`), runs every phase
//! on one system through the batched wave-scheduled execution path, and
//! emits:
//!
//! * a per-phase markdown table on stdout (steps, churn, wave stats,
//!   violations, population trajectory endpoints), and
//! * the deterministic per-phase JSON report to `--out` (default:
//!   `results/x_campaign_<name>.json`; missing parent directories are
//!   created, and a path that cannot be written exits with code 2,
//!   naming it).
//!
//! The JSON contains only deterministic outcome fields, so CI's
//! `campaign-smoke` job byte-diffs `--threads 1` against `--threads 4`
//! for every file in `scenarios/` — the campaign engine inherits the
//! threaded wave executor's bit-determinism guarantee.
//!
//! Malformed files are reported as typed errors (line number + reason)
//! with exit code 2 — never a panic.

use now_bench::{results_dir, write_artifact};
use now_campaign::Campaign;
use now_core::NowError;
use now_sim::Table;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    file: PathBuf,
    threads: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut file = None;
    let mut threads = 1usize;
    let mut out = None;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--threads" => {
                threads = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threads takes a positive integer")?;
            }
            "--out" => {
                out = Some(PathBuf::from(argv.next().ok_or("--out takes a file path")?));
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            path => {
                if file.replace(PathBuf::from(path)).is_some() {
                    return Err("exactly one campaign file expected".into());
                }
            }
        }
    }
    Ok(Args {
        file: file.ok_or("usage: x_campaign <file.campaign> [--threads N] [--out <path>]")?,
        threads,
        out,
    })
}

fn run(args: &Args) -> Result<(), NowError> {
    let text = std::fs::read_to_string(&args.file).map_err(|e| NowError::CampaignReport {
        reason: format!("cannot read {}: {e}", args.file.display()),
    })?;
    let campaign = Campaign::parse(&text)?;
    let (report, sys) = campaign.run(args.threads)?;
    sys.check_consistency()
        .map_err(|e| NowError::CampaignReport {
            reason: format!("post-run consistency check failed: {e}"),
        })?;

    println!(
        "# X-CAMPAIGN `{}` ({} phases, {} threads)\n",
        report.campaign,
        report.phases.len(),
        args.threads
    );
    let mut table = Table::new([
        "phase",
        "style",
        "steps",
        "fired",
        "joins",
        "leaves",
        "waves",
        "max_width",
        "wave_slack",
        "messages",
        "pop start→end",
        "peak_byz",
        "binding_viol",
    ]);
    for p in &report.phases {
        let r = &p.run;
        table.row([
            p.name.clone().into(),
            p.style.clone().into(),
            r.steps.into(),
            p.trigger_fired.into(),
            r.joins.into(),
            r.leaves.into(),
            r.waves.into(),
            r.max_wave_width.into(),
            r.wave_slack_rounds.into(),
            p.messages.into(),
            format!("{}→{}", p.pop_start, r.final_audit.population).into(),
            r.peak_byz_fraction().into(),
            r.binding_violations().into(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!(
        "totals: {} steps, {} messages, {} binding violations, final population {}",
        report.total_steps(),
        report.total_messages(),
        report.total_binding_violations(),
        sys.population()
    );

    let out_path = args
        .out
        .clone()
        .unwrap_or_else(|| results_dir().join(format!("x_campaign_{}.json", report.campaign)));
    write_artifact(&out_path, &report.to_json()).map_err(|e| NowError::CampaignReport {
        reason: e.to_string(),
    })?;
    println!("wrote {}", out_path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("x_campaign: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("x_campaign: {e}");
            ExitCode::from(2)
        }
    }
}
