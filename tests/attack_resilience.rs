//! Attack-resilience integration tests: the §3.3 comparison and the
//! forced-leave (DoS) countermeasure, across `now-core`,
//! `now-adversary`, and `now-sim`.
//!
//! The tests assert over seed *ensembles* with quantile bands
//! (the pattern established by `endpoint_distribution_is_size_biased`;
//! see ROADMAP "statistical-test robustness"): the median must sit
//! comfortably inside the claimed regime and even the worst seed must
//! stay within the sampling-noise band, so a change to the vendored RNG
//! stream cannot silently invalidate the suite the way a single pinned
//! seed could.

use now_bft::adversary::{
    BatchDriver, BatchForcedLeave, BatchJoinLeave, BatchSplitForcing, ClusterPick, OnePerStep,
};
use now_bft::core::{BatchInput, ExecConfig, NowParams, NowSystem};
use now_bft::net::{ClusterId, DetRng};
use now_bft::sim::baselines::no_shuffle_params;
use now_bft::sim::BatchRun;

fn params() -> NowParams {
    NowParams::new(1 << 10, 3, 2.0, 0.15, 0.05).unwrap()
}

/// Drives `adv` for `steps` one-op steps on the canonical engine,
/// returning the peak Byzantine fraction seen at the adversary's
/// (possibly retargeted) aim cluster, read off the inner driver by
/// `aim`.
fn drive<D: BatchDriver>(
    sys: &mut NowSystem,
    adv: &mut OnePerStep<D>,
    aim: impl Fn(&D) -> Option<ClusterId>,
    steps: u64,
    seed: u64,
) -> f64 {
    let mut rng = DetRng::new(seed);
    let mut peak = 0.0f64;
    for _ in 0..steps {
        let (joins, leaves) = adv.decide_batch(sys, &mut rng);
        sys.step_batch(
            &BatchInput::from_specs(&joins, &leaves),
            &ExecConfig::Canonical,
        );
        if let Some(c) = aim(adv.inner()).and_then(|t| sys.cluster(t)) {
            peak = peak.max(c.byz_fraction());
        }
    }
    peak
}

/// [`drive`]s the §3.3 attacker, one op per step, aimed at the first
/// cluster.
fn join_leave_peak(sys: &mut NowSystem, tau: f64, steps: u64, seed: u64) -> f64 {
    let mut adv = OnePerStep::new(BatchJoinLeave::new(1, tau).with_pick(ClusterPick::First));
    drive(sys, &mut adv, BatchJoinLeave::target, steps, seed)
}

/// Sorted copy, for quantile reads.
fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs
}

/// The §3.3 comparison over 24 seeds `(s, 1000 + s)`, `s = 1..=24`.
///
/// The bands come from two 60-seed ensembles (`s = 1..=60`) of this
/// exact run, one on each side of the change that made the serial
/// engine the wave engine capped at width 1 (per-op substreams instead
/// of the shared stream). Clusters hold ~30 members, so one member is
/// ±0.033 of fraction and a transient graze of 1/3 is granularity, not
/// capture:
///
/// | | shared stream | per-op substreams |
/// |---|---|---|
/// | NOW peak: mean / median | 0.319 / 0.314 | 0.319 / 0.317 |
/// | NOW peak ≥ 1/3 | 19 of 60 | 21 of 60 |
/// | NOW peak: max | 0.387 | 0.406 |
/// | baseline − NOW gap: median | 0.153 | 0.165 |
/// | baseline worse | 58 of 60 | 59 of 60 |
///
/// Over every window of 24 consecutive seeds of either ensemble the
/// median NOW peak lies in 0.303–0.324, 5–10 seeds reach 1/3, the worst
/// seed lies in 0.364–0.406, the median gap is ≥ 0.131 and the baseline
/// is worse on ≥ 23. So the test asserts: median peak < 1/3, at most
/// half the seeds reach 1/3, the worst seed < 0.45 (below the
/// forgeability line 1/2), median gap > 0.05, and the baseline worse on
/// ≥ 90 % of seeds. (The old check on seeds 1–5, "median < 1/3" and
/// "worst < 0.40", fails on the second ensemble: all five of those
/// seeds reach 1/3 there, and seed 3 peaks at 0.406.)
#[test]
fn shuffling_beats_the_join_leave_attack() {
    let steps = 300;
    let tau = 0.15;
    let seeds: Vec<(u64, u64)> = (1..=24).map(|s| (s, 1000 + s)).collect();

    let mut gaps = Vec::new();
    let mut now_peaks = Vec::new();
    let mut baseline_wins = 0usize;
    for &(init_seed, drive_seed) in &seeds {
        let mut baseline = NowSystem::init_fast(no_shuffle_params(params()), 300, tau, init_seed);
        let peak_baseline = join_leave_peak(&mut baseline, tau, steps, drive_seed);

        let mut now = NowSystem::init_fast(params(), 300, tau, init_seed);
        let peak_now = join_leave_peak(&mut now, tau, steps, drive_seed);

        baseline.check_consistency().unwrap();
        now.check_consistency().unwrap();
        if peak_baseline > peak_now {
            baseline_wins += 1;
        }
        gaps.push(peak_baseline - peak_now);
        now_peaks.push(peak_now);
    }
    let gaps = sorted(gaps);
    let now_peaks = sorted(now_peaks);

    // The baseline's target accumulates monotonically; NOW's is reset by
    // every exchange. The gap is the paper's §3.3 argument.
    assert!(
        gaps[gaps.len() / 2] > 0.05,
        "median protection gap too small: {gaps:?}"
    );
    assert!(
        baseline_wins * 10 >= seeds.len() * 9,
        "baseline not clearly worse on {baseline_wins}/{} seeds (gaps {gaps:?})",
        seeds.len()
    );
    assert!(
        now_peaks[now_peaks.len() / 2] < 1.0 / 3.0,
        "NOW median peak crossed 1/3: {now_peaks:?}"
    );
    let crossed = now_peaks.iter().filter(|&&p| p >= 1.0 / 3.0).count();
    assert!(
        crossed * 2 <= seeds.len(),
        "NOW peak reached 1/3 on {crossed}/{} seeds: {now_peaks:?}",
        seeds.len()
    );
    assert!(
        *now_peaks.last().unwrap() < 0.45,
        "NOW worst-seed peak out of band: {now_peaks:?}"
    );
}

#[test]
fn forced_leaves_do_not_concentrate_byzantines() {
    // The DoS adversary evicts honest members of one cluster; NOW's
    // leave-triggered exchanges must keep the cluster's composition near
    // the global rate.
    let tau = 0.15;
    let seeds: [(u64, u64); 5] = [(23, 24), (33, 34), (43, 44), (53, 54), (63, 64)];
    let mut peaks = Vec::new();
    for &(init_seed, drive_seed) in &seeds {
        let mut sys = NowSystem::init_fast(params(), 300, tau, init_seed);
        let target = sys.cluster_ids()[1];
        let first = BatchForcedLeave::new(1, tau).with_pick(ClusterPick::First);
        let mut dos = OnePerStep::new(first.with_target(target));
        let peak = drive(
            &mut sys,
            &mut dos,
            BatchForcedLeave::target,
            200,
            drive_seed,
        );
        sys.check_consistency().unwrap();
        peaks.push(peak);
    }
    let peaks = sorted(peaks);
    // Measured ensemble on the vendored stream:
    // peaks ≈ [0.290, 0.350, 0.375, 0.389, 0.467] — the old single-seed
    // `< 0.45` assertion held only on its pinned seed. The worst seed
    // must stay below the forgeability line (1/2), deep concentration
    // (> 0.40) must stay a ≤ 2-of-5 minority, and the median must stay
    // below 0.40.
    assert!(
        peaks[peaks.len() / 2] < 0.40,
        "forced leaves concentrated byzantines on the median seed: {peaks:?}"
    );
    let deep = peaks.iter().filter(|&&p| p > 0.40).count();
    assert!(
        deep <= 2,
        "forced leaves concentrated > 0.40 on {deep}/5 seeds: {peaks:?}"
    );
    assert!(
        *peaks.last().unwrap() < 0.50,
        "forced leaves crossed the forgeability line on the worst seed: {peaks:?}"
    );
}

/// Runs one batched attack driver for 60 steps on a fresh system and
/// returns `(binding violations, forgeable-cluster violations)` over
/// the audited steps.
fn batched_attack_violations(
    mut driver: Box<dyn BatchDriver>,
    init_seed: u64,
    drive_seed: u64,
) -> (usize, usize) {
    let mut sys = NowSystem::init_fast(params(), 300, 0.15, init_seed);
    let report = BatchRun::new().run(&mut sys, driver.as_mut(), 60, drive_seed);
    sys.check_consistency().unwrap();
    let forgeable = report.count(now_bft::sim::ViolationKind::Forgeable);
    (report.binding_violations(), forgeable)
}

/// Calibrated violation-count bounds for each batched attack driver, as
/// a 5-seed quantile ensemble (module docs): at τ = 0.15 with k = 3
/// (clusters of ~30, 1/3 threshold at 10 Byzantine members) the NOW
/// protocol *absorbs* all three batched attacks — binding violations
/// stay transient grazes of the 1/3 count on a minority of the 60
/// audited steps, and no cluster ever becomes forgeable (> 1/2). The
/// per-driver bounds are ~2× the measured ensembles on the vendored
/// stream (60 steps, width 4): join-leave [2, 4, 6, 6, 8],
/// forced-leave [0, 2, 2, 4, 8], split-forcing [0, 0, 2, 2, 2].
#[test]
fn batched_attacks_stay_within_calibrated_violation_bounds() {
    let seeds: [(u64, u64); 5] = [(71, 72), (73, 74), (75, 76), (77, 78), (79, 80)];
    type MakeDriver = fn() -> Box<dyn BatchDriver>;
    let drivers: [(&str, MakeDriver, usize, usize); 3] = [
        (
            "join-leave",
            || Box::new(BatchJoinLeave::new(4, 0.15).with_pick(ClusterPick::Largest)),
            12, // median bound (measured 6)
            18, // worst-seed bound (measured 8)
        ),
        (
            "forced-leave",
            || Box::new(BatchForcedLeave::new(4, 0.15).with_pick(ClusterPick::Smallest)),
            8,  // median bound (measured 2)
            16, // worst-seed bound (measured 8)
        ),
        (
            "split-forcing",
            || Box::new(BatchSplitForcing::new(4, 0.15).with_pick(ClusterPick::Largest)),
            6,  // median bound (measured 2)
            10, // worst-seed bound (measured 2)
        ),
    ];
    for (name, make, median_bound, worst_bound) in drivers {
        let mut counts = Vec::new();
        for &(init, drive) in &seeds {
            let (binding, forgeable) = batched_attack_violations(make(), init, drive);
            assert_eq!(
                forgeable, 0,
                "{name}: a cluster became forgeable on seed ({init}, {drive})"
            );
            counts.push(binding);
        }
        counts.sort_unstable();
        assert!(
            counts[counts.len() / 2] <= median_bound,
            "{name}: median binding violations beyond the calibrated bound \
             {median_bound}, ensemble {counts:?}"
        );
        assert!(
            *counts.last().unwrap() <= worst_bound,
            "{name}: worst seed beyond the calibrated bound {worst_bound}, \
             ensemble {counts:?}"
        );
    }
}

#[test]
fn no_shuffle_ablation_is_strictly_cheaper_but_weaker() {
    // The ablation trade-off: disabling exchange removes most of the
    // join cost and most of the protection.
    let tau = 0.15;
    let steps = 250;
    let seeds: [(u64, u64); 5] = [(25, 26), (27, 28), (29, 30), (31, 32), (35, 36)];

    let mut protection_gaps = Vec::new();
    let mut cheap_wins = 0usize;
    for &(init_seed, drive_seed) in &seeds {
        let mut cheap = NowSystem::init_fast(no_shuffle_params(params()), 300, tau, init_seed);
        let peak_cheap = join_leave_peak(&mut cheap, tau, steps, drive_seed);
        let cost_cheap = cheap.ledger().total().messages;

        let mut full = NowSystem::init_fast(params(), 300, tau, init_seed);
        let peak_full = join_leave_peak(&mut full, tau, steps, drive_seed);
        let cost_full = full.ledger().total().messages;

        // The cost separation is structural (shuffling dominates every
        // join), not statistical: it must hold on every seed.
        assert!(
            cost_cheap * 10 < cost_full,
            "shuffling is the dominant cost: {cost_cheap} vs {cost_full} (seed {init_seed})"
        );
        if peak_cheap > peak_full {
            cheap_wins += 1;
        }
        protection_gaps.push(peak_cheap - peak_full);
    }
    let gaps = sorted(protection_gaps);
    assert!(
        gaps[gaps.len() / 2] > 0.0,
        "median protection gap missing: {gaps:?}"
    );
    assert!(
        cheap_wins >= seeds.len() - 1,
        "ablation not weaker on {cheap_wins}/{} seeds (gaps {gaps:?})",
        seeds.len()
    );
}

/// Inside Theorem 3's regime nothing is captured (ROADMAP item 22(b)).
/// The shape: N = 2¹⁰, k = 6, l = 2 (clusters of 60, band [30, 120]),
/// 600 nodes, τ = 0.05 Byzantine at the start and in the drivers'
/// budgets, under neutral churn (four random joins or leaves a step)
/// and the §3.3 join–leave attack (one op a step, aimed at the first
/// cluster), 30 steps each on three seeds.
///
/// Lemma 1's ideal law (`now_sim::ideal_law`) prices the ensemble: an
/// audited step whose clusters were fresh uniform samples would hold
/// `cluster_count × max_s capture_tail(population, byz_population, s)`
/// captured clusters in expectation, `s` over the sizes present that
/// step. Summed over every audited step of every run that is ≤ 10⁻³,
/// and no audit of any run finds a cluster at a third or more
/// Byzantine.
#[test]
fn in_regime_churn_and_attack_capture_no_cluster() {
    use now_bft::sim::ideal_law::capture_tail;
    use now_bft::sim::{BatchRandomChurn, ViolationKind};
    const TAU: f64 = 0.05;
    let params = NowParams::new(1 << 10, 6, 2.0, 0.15, 0.05).unwrap();
    type MakeDriver = fn() -> Box<dyn BatchDriver>;
    let drivers: [(&str, MakeDriver); 2] = [
        ("neutral churn", || {
            Box::new(BatchRandomChurn::balanced(4, TAU))
        }),
        ("join-leave", || {
            Box::new(OnePerStep::new(
                BatchJoinLeave::new(2, TAU).with_pick(ClusterPick::First),
            ))
        }),
    ];
    let mut expected = 0.0;
    for (name, make) in drivers {
        for (init_seed, drive_seed) in [(81, 82), (83, 84), (85, 86)] {
            let mut sys = NowSystem::init_fast(params, 600, TAU, init_seed);
            let report = BatchRun::new().run(&mut sys, make().as_mut(), 30, drive_seed);
            sys.check_consistency().unwrap();
            assert_eq!(report.audits.len(), 30, "{name}: every step audited");
            for a in &report.audits {
                let (n, byz) = (a.population as usize, a.byz_population as usize);
                let worst = (a.min_cluster_size..=a.max_cluster_size)
                    .map(|s| capture_tail(n, byz, s))
                    .fold(0.0, f64::max);
                expected += a.cluster_count as f64 * worst;
            }
            assert_eq!(
                report.count(ViolationKind::NotTwoThirdsHonest),
                0,
                "{name}: a cluster was captured on seed ({init_seed}, {drive_seed}), \
                 peak Byzantine fraction {}",
                report.peak_byz_fraction()
            );
        }
    }
    println!("expected captures over the ensemble under Lemma 1's ideal law: {expected:.2e}");
    assert!(
        expected <= 1e-3,
        "the shape is outside the regime: {expected:e}"
    );
}
