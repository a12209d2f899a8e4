//! X-ASYNC — removing the synchrony assumption (§6 future work).
//!
//! *"We currently seek schemes to alleviate the need of the assumption
//! of synchronous nodes."* The first brick of any such scheme is an
//! agreement primitive that survives asynchrony; we measure Ben-Or
//! randomized binary consensus on an adversarially delayed `EventNet`:
//!
//! * phases-to-decide and messages as `n` grows, under adversarial
//!   equivocation at the `f < n/5` resilience bound;
//! * robustness to the *delay bound* — the scheduler may stretch any
//!   message by up to `D`; safety must be untouched and termination
//!   should cost only wall-clock (virtual time), not extra phases;
//! * the unanimous-input fast path (decide in phase 0) the validity
//!   proof promises.

use now_agreement::{
    rand_num_async, rand_num_commit_reveal, run_ben_or, run_ben_or_with_coin, ByzPlan, CoinMode,
};
use now_bench::results_dir;
use now_net::{DetRng, Ledger};
use now_sim::Table;
use std::collections::BTreeSet;

fn main() {
    println!("# X-ASYNC: asynchronous Ben-Or consensus (§6 future work)\n");

    // ---- Part A: scaling in n under attack ----
    println!("## A. scaling at the resilience bound (split inputs, equivocator)\n");
    let mut table = Table::new([
        "n",
        "f",
        "decided",
        "mean_phases",
        "max_phases",
        "mean_msgs",
    ]);
    for &n in &[6usize, 11, 16, 21, 31] {
        let f = (n - 1) / 5;
        let byz: BTreeSet<usize> = (1..=f).collect();
        let mut decided = 0u32;
        let mut phase_sum = 0u64;
        let mut phase_max = 0u64;
        let mut msg_sum = 0u64;
        for run in 0..20u64 {
            let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
            let mut ledger = Ledger::new();
            let mut rng = DetRng::new(1000 + run);
            let report = run_ben_or(
                n,
                &inputs,
                &byz,
                f,
                ByzPlan::Equivocate(0, 1),
                20,
                400,
                &mut ledger,
                &mut rng,
            );
            if report.all_decided {
                decided += 1;
            }
            let worst = report
                .decision_phases
                .values()
                .max()
                .copied()
                .unwrap_or(400);
            phase_sum += worst;
            phase_max = phase_max.max(worst);
            msg_sum += report.result.messages;
        }
        table.row([
            n.into(),
            f.into(),
            decided.into(),
            (phase_sum as f64 / 20.0).into(),
            phase_max.into(),
            (msg_sum as f64 / 20.0).into(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("expectation: every run decides (termination w.p. 1 under randomized");
    println!("scheduling); phases stay O(1)-ish in n for the random scheduler while");
    println!("messages grow ≈ n² per phase.\n");
    table
        .write_csv(&results_dir().join("x_async_scaling.csv"))
        .unwrap();

    // ---- Part B: delay-bound robustness ----
    println!("## B. delay-bound robustness (n = 11, f = 2, equivocator)\n");
    let mut table = Table::new(["max_delay", "decided", "mean_phases", "mean_virtual_time"]);
    let n = 11usize;
    let f = 2usize;
    let byz: BTreeSet<usize> = [3, 8].into_iter().collect();
    for &delay in &[1u64, 5, 20, 100, 500] {
        let mut decided = 0u32;
        let mut phase_sum = 0u64;
        let mut vt_sum = 0u64;
        for run in 0..20u64 {
            let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
            let mut ledger = Ledger::new();
            let mut rng = DetRng::new(9000 + run);
            let report = run_ben_or(
                n,
                &inputs,
                &byz,
                f,
                ByzPlan::Equivocate(0, 1),
                delay,
                400,
                &mut ledger,
                &mut rng,
            );
            if report.all_decided {
                decided += 1;
            }
            phase_sum += report
                .decision_phases
                .values()
                .max()
                .copied()
                .unwrap_or(400);
            vt_sum += report.virtual_time;
        }
        table.row([
            delay.into(),
            decided.into(),
            (phase_sum as f64 / 20.0).into(),
            (vt_sum as f64 / 20.0).into(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("expectation: the decided count and phase count are flat in the delay bound");
    println!("(safety and phase-logic never read the clock); only virtual time stretches");
    println!("linearly with it. This is the property that lets the NOW maintenance layer");
    println!("swap its synchronous randNum transport for an asynchronous one without");
    println!("touching the drift analysis — the direction §6 points at.\n");
    table
        .write_csv(&results_dir().join("x_async_delay.csv"))
        .unwrap();

    // ---- Part C: local vs common coin ----
    println!("## C. coin comparison (split inputs, equivocator, 30 runs/cell)\n");
    let mut table = Table::new(["n", "coin", "mean_phases", "p90_phases", "max_phases"]);
    for &n in &[11usize, 21, 31] {
        let f = (n - 1) / 5;
        let byz: BTreeSet<usize> = (1..=f).collect();
        for (coin, label) in [
            (CoinMode::Local, "local (Ben-Or)"),
            (CoinMode::Common { seed: 0xBEAC0 }, "common (Rabin)"),
        ] {
            let mut phases: Vec<u64> = Vec::new();
            for run in 0..30u64 {
                let inputs: Vec<u64> = (0..n as u64).map(|i| i % 2).collect();
                let mut ledger = Ledger::new();
                let mut rng = DetRng::new(40_000 + run);
                let report = run_ben_or_with_coin(
                    n,
                    &inputs,
                    &byz,
                    f,
                    ByzPlan::Equivocate(0, 1),
                    coin,
                    20,
                    400,
                    &mut ledger,
                    &mut rng,
                );
                assert!(report.all_decided, "{label} n={n} run {run} stalled");
                phases.push(
                    report
                        .decision_phases
                        .values()
                        .max()
                        .copied()
                        .unwrap_or(400),
                );
            }
            phases.sort_unstable();
            let mean = phases.iter().sum::<u64>() as f64 / phases.len() as f64;
            let p90 = phases[phases.len() * 9 / 10];
            let max = *phases.last().unwrap();
            table.row([n.into(), label.into(), mean.into(), p90.into(), max.into()]);
        }
    }
    println!("{}", table.to_markdown());
    println!("expectation: the common coin decides in one phase in every run (one shared");
    println!("flip aligns all honest nodes; expected ≤ 2 phases against any scheduler),");
    println!("while local coins need several phases with a heavy tail that grows with n —");
    println!("a split of private flips only heals when enough of them coincide. This is");
    println!("the measured version of the Ben-Or → Rabin upgrade an async-NOW would take.\n");
    table
        .write_csv(&results_dir().join("x_async_coins.csv"))
        .unwrap();

    // ---- Part D: the substitution carried through — async randNum ----
    println!("## D. randNum rebuilt for asynchrony (commit-reveal + common subset)\n");
    let mut table = Table::new([
        "n",
        "f",
        "sync_msgs",
        "async_msgs",
        "ratio",
        "mean_included",
        "agreed_runs",
    ]);
    for &(n, f) in &[(6usize, 1usize), (11, 2), (16, 3)] {
        let byz: BTreeSet<usize> = (1..=f).collect();
        let mut sync_msgs = 0u64;
        let mut async_msgs = 0u64;
        let mut included_sum = 0usize;
        let mut agreed = 0u32;
        for run in 0..10u64 {
            let mut l_sync = Ledger::new();
            let mut rng = DetRng::new(60_000 + run);
            rand_num_commit_reveal(n, 1 << 20, &byz, ByzPlan::Silent, &mut l_sync, &mut rng);
            sync_msgs += l_sync.stats(now_net::CostKind::RandNum).total_messages;

            let mut l_async = Ledger::new();
            let mut rng = DetRng::new(61_000 + run);
            let out = rand_num_async(
                n,
                1 << 20,
                &byz,
                ByzPlan::Equivocate(0, 1),
                15,
                &mut l_async,
                &mut rng,
            );
            async_msgs += out.messages;
            included_sum += out.included.len();
            if out.unanimous().is_some() {
                agreed += 1;
            }
        }
        table.row([
            n.into(),
            f.into(),
            (sync_msgs as f64 / 10.0).into(),
            (async_msgs as f64 / 10.0).into(),
            (async_msgs as f64 / sync_msgs.max(1) as f64).into(),
            (included_sum as f64 / 10.0).into(),
            agreed.into(),
        ]);
    }
    println!("{}", table.to_markdown());
    println!("expectation: the asynchronous randNum agrees in every run (the §6");
    println!("substitution is *possible*) at a constant-factor message overhead over the");
    println!("synchronous commit-reveal — the n inclusion instances each cost ~n² like");
    println!("the broadcast they replace. The included-set size stays ≥ n − f (every");
    println!("honest contribution survives), which is what keeps the output uniform.");
    table
        .write_csv(&results_dir().join("x_async_randnum.csv"))
        .unwrap();
    println!("wrote results/x_async_{{scaling,delay,coins,randnum}}.csv");
}
