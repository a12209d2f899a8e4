//! X-JLA — the §3.3 join–leave attack sweep.
//!
//! Three-way comparison per security parameter `k`:
//! * the no-shuffle **baseline** vs the paper-model adversary (expected:
//!   captured — Byzantine mass only accumulates in the target);
//! * **NOW** vs the paper-model adversary (expected: never captured);
//! * **NOW** vs the *hardened* adversary that exploits transient 1/3
//!   crossings (beyond the paper's analysis — the sticky-threshold
//!   effect; capture times should grow rapidly with k).

use now_adversary::{BatchDriver, BatchJoinLeave, ClusterPick, OnePerStep, TargetedMalice};
use now_bench::results_dir;
use now_core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_net::DetRng;
use now_sim::{baselines::no_shuffle_params, Table};

struct Outcome {
    captured_at: Option<u64>,
    peak: f64,
}

fn attack(params: NowParams, tau: f64, steps: u64, hardened: bool, seed: u64) -> Outcome {
    let n0 = 12 * params.target_cluster_size();
    let mut sys = NowSystem::init_fast(params, n0, tau, seed);
    let target = sys.cluster_ids()[0];
    if hardened {
        sys.set_malice(Box::new(TargetedMalice::new(target)));
    }
    let mut adv = OnePerStep::new(BatchJoinLeave::new(1, tau).with_pick(ClusterPick::First));
    let mut rng = DetRng::new(seed.wrapping_mul(7).wrapping_add(1));
    let mut peak = 0.0f64;
    for step in 0..steps {
        let (joins, leaves) = adv.decide_batch(&sys, &mut rng);
        sys.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::serial(),
        );
        let frac = adv
            .inner()
            .target()
            .and_then(|t| sys.cluster(t))
            .map(|c| c.byz_fraction())
            .unwrap_or(0.0);
        peak = peak.max(frac);
        if frac >= 0.5 {
            return Outcome {
                captured_at: Some(step),
                peak,
            };
        }
    }
    Outcome {
        captured_at: None,
        peak,
    }
}

fn main() {
    println!("# X-JLA: join–leave attack resilience (§3.3)\n");
    let tau = 0.12;
    let steps = 1500u64;
    let mut table = Table::new(["k", "system", "adversary", "captured_at", "peak_frac"]);

    for k in [2usize, 3, 4] {
        let params = NowParams::new(1 << 12, k, 2.0, tau, 0.05).unwrap();
        let configs: [(&str, NowParams, bool); 3] = [
            ("baseline(no-shuffle)", no_shuffle_params(params), false),
            ("NOW", params, false),
            ("NOW", params, true),
        ];
        for (system, p, hardened) in configs {
            let adversary = if hardened { "hardened" } else { "paper-model" };
            let out = attack(p, tau, steps, hardened, 500 + k as u64);
            let captured = out
                .captured_at
                .map(|s| s.to_string())
                .unwrap_or_else(|| "never".into());
            table.row([
                k.into(),
                system.into(),
                adversary.into(),
                captured.into(),
                out.peak.into(),
            ]);
        }
    }

    println!("{}", table.to_markdown());
    println!("expectation: the baseline is captured at every k (monotone accumulation);");
    println!("NOW vs the paper-model adversary is never captured. The hardened adversary");
    println!("captures NOW at every laptop-scale k: it exploits *intra-operation* transient");
    println!("1/3 crossings, whose frequency grows with the per-step shuffle volume (~|C|²");
    println!("compositions per leave cascade) — per-step audits never see them. This is a");
    println!("finding of the reproduction, beyond the paper's per-step analysis: the 1/3");
    println!("threshold is sticky, and suppressing intra-step excursions needs the full");
    println!("asymptotic margin, not just per-snapshot Chernoff tails.");
    table
        .write_csv(&results_dir().join("x_jla_attack.csv"))
        .unwrap();
    println!("wrote results/x_jla_attack.csv");
}
