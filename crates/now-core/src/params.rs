//! NOW protocol parameters and derived quantities.

use crate::error::NowError;
use now_net::ieee;
use now_over::OverParams;

/// Which quorum/agreement substrate a deployment runs on, and therefore
/// which corruption bound it is sized for.
///
/// The paper's Remark 1: *"One can tolerate a fraction of Byzantine
/// nodes up to 1/2 − ε, but then we need to use cryptographic tools to
/// allow for broadcast and Byzantine agreement."*
///
/// * [`SecurityMode::Plain`] — the default model (§2): no signatures;
///   intra-cluster `randNum` is secure while Byzantine < 1/3 of the
///   cluster, and the target invariant is **strictly more than two
///   thirds honest** per cluster (Lemma 1 / Theorem 3).
/// * [`SecurityMode::Authenticated`] — Remark 1's variant: unforgeable
///   signatures enable authenticated broadcast (Dolev–Strong, in
///   `now_agreement::dolev_strong`) and certificate-carrying quorum
///   messages (`now_agreement::certificate`), so `randNum` and the
///   cluster invariant only need an **honest majority** (Byzantine
///   < 1/2).
///
/// In both modes outright message *forgery* — the adversary alone
/// clearing the "more than half of the cluster" rule — requires
/// Byzantine > 1/2, since honest members never co-sign a forged message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SecurityMode {
    /// Information-theoretic quorums; τ sized below 1/3 (the paper's
    /// main model).
    #[default]
    Plain,
    /// Simulated-signature quorums; τ sized below 1/2 (Remark 1).
    Authenticated,
}

impl SecurityMode {
    /// The corruption supremum this mode is sized for (1/3 or 1/2).
    pub(crate) fn tau_bound(self) -> f64 {
        match self {
            SecurityMode::Plain => 1.0 / 3.0,
            SecurityMode::Authenticated => 0.5,
        }
    }

    /// Whether a cluster with `byz` Byzantine members out of `size`
    /// still runs `randNum` securely under this mode.
    ///
    /// Plain: Byzantine strictly below one third. Authenticated:
    /// Byzantine strictly below one half (honest majority signs the
    /// reveal set).
    pub fn rand_num_secure(self, byz: usize, size: usize) -> bool {
        match self {
            SecurityMode::Plain => 3 * byz < size,
            SecurityMode::Authenticated => 2 * byz < size,
        }
    }

    /// Whether a cluster with `honest` honest members out of `size`
    /// satisfies this mode's target invariant (the property Theorem 3
    /// maintains): strictly more than 2/3 honest in Plain mode,
    /// strictly more than 1/2 honest in Authenticated mode.
    pub fn invariant_holds(self, honest: usize, size: usize) -> bool {
        match self {
            SecurityMode::Plain => 3 * honest > 2 * size,
            SecurityMode::Authenticated => 2 * honest > size,
        }
    }
}

impl std::fmt::Display for SecurityMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SecurityMode::Plain => "plain",
            SecurityMode::Authenticated => "authenticated",
        })
    }
}

/// Static parameters of a NOW deployment.
///
/// The paper's symbols map as follows:
/// * `capacity` = `N`, the maximal network size (population stays within
///   `[N^{1/y}, N^z]`, defaulting to the paper's headline `[√N, N]`);
/// * `k` — the security parameter: clusters target `k·logN` members; the
///   larger `k`, the lower the adversary's chance to tip a cluster;
/// * `l` — the band constant (`l > √2`): split above `l·k·logN`, merge
///   below `k·logN/l`;
/// * `tau` — the corruption bound the deployment is sized for
///   (`τ ≤ 1/3 − ε` in [`SecurityMode::Plain`], `τ ≤ 1/2 − ε` in
///   [`SecurityMode::Authenticated`]; informational — the adversary
///   model lives in `now-adversary`);
/// * `epsilon` — the slack `ε` in the drift analysis (Lemmas 2–3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NowParams {
    capacity: u64,
    k: usize,
    l: f64,
    tau: f64,
    epsilon: f64,
    over: OverParams,
    security: SecurityMode,
    /// Population floor exponent: `n ≥ N^{1/y}` (paper default `y = 2`).
    y: f64,
    /// Population ceiling exponent: `n ≤ N^z` (paper default `z = 1`).
    z: f64,
    walk_length_factor: f64,
    max_walk_restarts: usize,
    shuffle: bool,
    /// Ablation: exchange at most this many members per `exchange`
    /// invocation (`None` = the paper's "all of its nodes").
    exchange_cap: Option<usize>,
}

impl NowParams {
    /// Parameters for a system of maximal size `capacity`, with the
    /// defaults `k = 2`, `l = 1.5`, `τ = 0.30`, `ε = 0.05`.
    ///
    /// # Errors
    /// Returns [`NowError::BadParams`] under the same conditions as
    /// [`NowParams::new`].
    pub fn for_capacity(capacity: u64) -> Result<Self, NowError> {
        Self::new(capacity, 2, 1.5, 0.30, 0.05)
    }

    /// Fully explicit constructor for the paper's main model
    /// ([`SecurityMode::Plain`]).
    ///
    /// # Errors
    /// Returns [`NowError::BadParams`] if `capacity < 16`, `k == 0`,
    /// `l ≤ √2` or an integer band `[min, max]` with `⌈max/2⌉ < min`,
    /// `τ ∉ [0, 1/3)`, `ε ≤ 0`, or `τ·(1+ε) ≥ 1/3` (the regime Lemma 1
    /// needs).
    pub fn new(capacity: u64, k: usize, l: f64, tau: f64, epsilon: f64) -> Result<Self, NowError> {
        Self::build(SecurityMode::Plain, capacity, k, l, tau, epsilon)
    }

    /// Constructor for Remark 1's crypto-hardened variant
    /// ([`SecurityMode::Authenticated`]): signatures buy an honest-
    /// *majority* requirement, so `τ` may range up to `1/2 − ε`.
    ///
    /// # Errors
    /// Returns [`NowError::BadParams`] if `capacity < 16`, `k == 0`,
    /// `l ≤ √2` or an integer band `[min, max]` with `⌈max/2⌉ < min`,
    /// `τ ∉ [0, 1/2)`, `ε ≤ 0`, or `τ·(1+ε) ≥ 1/2`.
    pub fn new_authenticated(
        capacity: u64,
        k: usize,
        l: f64,
        tau: f64,
        epsilon: f64,
    ) -> Result<Self, NowError> {
        Self::build(SecurityMode::Authenticated, capacity, k, l, tau, epsilon)
    }

    fn build(
        security: SecurityMode,
        capacity: u64,
        k: usize,
        l: f64,
        tau: f64,
        epsilon: f64,
    ) -> Result<Self, NowError> {
        let fail = |why: &str| {
            Err(NowError::BadParams {
                reason: why.to_string(),
            })
        };
        if capacity < 16 {
            return fail("capacity must be at least 16");
        }
        if k == 0 {
            return fail("k must be positive");
        }
        if l <= std::f64::consts::SQRT_2 {
            return fail("l must exceed sqrt(2) so split halves stay above the merge bound");
        }
        let bound = security.tau_bound();
        if !(0.0..bound).contains(&tau) {
            return match security {
                SecurityMode::Plain => fail("tau must lie in [0, 1/3)"),
                SecurityMode::Authenticated => {
                    fail("tau must lie in [0, 1/2) in authenticated mode")
                }
            };
        }
        if epsilon <= 0.0 {
            return fail("epsilon must be positive");
        }
        if tau * (1.0 + epsilon) >= bound {
            return match security {
                SecurityMode::Plain => fail("tau(1+epsilon) must stay below 1/3 (Lemma 1 regime)"),
                SecurityMode::Authenticated => {
                    fail("tau(1+epsilon) must stay below 1/2 (Remark 1 regime)")
                }
            };
        }
        let params = NowParams {
            capacity,
            k,
            l,
            tau,
            epsilon,
            over: OverParams::for_capacity(capacity),
            security,
            y: 2.0,
            z: 1.0,
            walk_length_factor: 1.0,
            max_walk_restarts: 64,
            shuffle: true,
            exchange_cap: None,
        };
        // `l > √2` is the real-valued condition; the integer band must
        // also hold it: a just-oversized cluster (max + 1 members)
        // splits into halves of ⌊(max + 1)/2⌋ = ⌈max/2⌉ and one more,
        // and nothing re-checks the smaller one.
        let (min, max) = (params.min_cluster_size(), params.max_cluster_size());
        let half = max.div_ceil(2);
        if half < min {
            return Err(NowError::BadParams {
                reason: format!(
                    "band [{min}, {max}] too narrow: a split of {} members leaves a half \
                     of {half} under the merge bound",
                    max + 1
                ),
            });
        }
        Ok(params)
    }

    /// Generalizes the population band to `N^{1/y} ≤ n ≤ N^z` (the
    /// paper's §2: *"this can be relaxed to N^{1/y} ≤ n ≤ N^z for all
    /// constants y, z > 1"*). The default is the headline band
    /// `(y, z) = (2, 1)`, i.e. `√N ≤ n ≤ N`.
    ///
    /// # Errors
    /// Returns [`NowError::BadParams`] if `y < 1`, `z < 1`, or the
    /// ceiling `N^z` overflows `u64`.
    pub fn with_population_exponents(mut self, y: f64, z: f64) -> Result<Self, NowError> {
        let fail = |why: &str| {
            Err(NowError::BadParams {
                reason: why.to_string(),
            })
        };
        if !(y >= 1.0 && y.is_finite()) {
            return fail("population floor exponent y must be >= 1");
        }
        if !(z >= 1.0 && z.is_finite()) {
            return fail("population ceiling exponent z must be >= 1");
        }
        if ieee::pow(self.capacity as f64, z) > u64::MAX as f64 / 2.0 {
            return fail("population ceiling N^z overflows u64");
        }
        self.y = y;
        self.z = z;
        Ok(self)
    }

    /// **Ablation switch**: disables the `exchange` shuffling in
    /// `join`/`leave`. This reproduces the *static clustering* baseline
    /// the paper argues against in §3.3 — the join–leave attack defeats
    /// it (experiment X-JLA).
    pub fn with_shuffle(mut self, shuffle: bool) -> Self {
        self.shuffle = shuffle;
        self
    }

    /// **Ablation switch**: caps how many members one `exchange`
    /// invocation shuffles (`None` = the paper's "exchanges all of its
    /// nodes"). Lemmas 2–3 analyze the drift when only `O(log N)` nodes
    /// are exchanged between full refreshes — this knob lets the
    /// ablation bench trade shuffle volume against composition drift.
    pub fn with_exchange_cap(mut self, cap: Option<usize>) -> Self {
        self.exchange_cap = cap;
        self
    }

    /// Whether `exchange` shuffling is enabled (default true).
    pub fn shuffle_enabled(&self) -> bool {
        self.shuffle
    }

    /// The per-invocation exchange cap, if any (default `None`).
    pub(crate) fn exchange_cap(&self) -> Option<usize> {
        self.exchange_cap
    }

    /// Overrides the walk-length factor (default 1.0). It scales
    /// [`NowParams::walk_length`] before the rounding up, so a walk on
    /// an overlay of `m` clusters takes `⌈factor · k(m)⌉` hops, at
    /// least 1.
    pub fn with_walk_length_factor(mut self, factor: f64) -> Self {
        self.walk_length_factor = factor.max(0.01);
        self
    }

    /// The capacity `N`.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The quorum/agreement substrate mode (Plain or Authenticated).
    pub fn security(&self) -> SecurityMode {
        self.security
    }

    /// Parameters of the OVER overlay this deployment uses.
    pub fn over(&self) -> OverParams {
        self.over
    }

    /// `log₂ N`.
    pub fn log_n(&self) -> f64 {
        ieee::log2(self.capacity as f64)
    }

    /// Target cluster size `⌈k·logN⌉`.
    pub fn target_cluster_size(&self) -> usize {
        (self.k as f64 * self.log_n()).ceil() as usize
    }

    /// Split threshold: a cluster larger than `⌊l·k·logN⌋` splits.
    pub fn max_cluster_size(&self) -> usize {
        (self.l * self.k as f64 * self.log_n()).floor() as usize
    }

    /// Merge threshold: a cluster smaller than `⌈k·logN/l⌉` merges.
    pub fn min_cluster_size(&self) -> usize {
        (self.k as f64 * self.log_n() / self.l).ceil() as usize
    }

    /// How many clusters an initial population of `n` nodes is dealt
    /// into: `max(⌊n/t⌋, ⌈n/max⌉, 1)` for the target size `t` and the
    /// split threshold `max`. The first term keeps every cluster at
    /// least `t` strong, the second keeps none over the band when `n`
    /// falls between two multiples of `t`.
    pub fn initial_cluster_count(&self, n: usize) -> usize {
        (n / self.target_cluster_size())
            .max(n.div_ceil(self.max_cluster_size()))
            .max(1)
    }

    /// Lower bound on the population (`N^{1/y}`, default `√N`) the model
    /// assumes.
    pub fn min_population(&self) -> u64 {
        ieee::pow(self.capacity as f64, 1.0 / self.y).floor() as u64
    }

    /// Upper bound on the population (`N^z`, default `N`) the model
    /// assumes.
    pub fn max_population(&self) -> u64 {
        ieee::pow(self.capacity as f64, self.z).floor() as u64
    }

    /// Hops per `randCl` walk on an overlay of `m` clusters, scaled by
    /// `walk_length_factor`: with `d` the target degree and `d′ =
    /// max(min(d, m − 1), 3)` the degree an overlay of `m` vertices can
    /// have,
    ///
    /// `k = ⌈factor · WALK_SPAN · (ln m + 4 ln N) / ln(d′ − 1)⌉`, at
    /// least 1.
    ///
    /// A non-backtracking walk on a random graph of degree `d′` mixes in
    /// `log_{d′−1} m` hops, and its distance from stationarity then falls
    /// by about `√(d′ − 1)` a hop, so it reaches total variation `1/N²`
    /// after about `(ln m + 4 ln N) / ln(d′ − 1)` hops. [`WALK_SPAN`]
    /// scales that estimate so that `randCl`'s exact law
    /// (`now_graph::nbrw_law`) is within TV `1/N²` of `|C|/n` from every
    /// start already at `⌊k/1.25⌋` on every overlay README § Walk table
    /// lists. Nodes know `N` and `d`; `m` is the overlay the walk table
    /// was built on.
    pub fn walk_length(&self, m: usize) -> usize {
        let d = self.over.target_degree().min(m.saturating_sub(1)).max(3) as f64;
        let span = ieee::ln(m.max(1) as f64) + 4.0 * ieee::ln(self.capacity as f64);
        let k = self.walk_length_factor * WALK_SPAN * span / ieee::ln(d - 1.0);
        (k.ceil() as usize).max(1)
    }

    /// Cap on biased-walk restarts before `rand_cl` falls back to the
    /// current endpoint (guards against pathological overlays; never hit
    /// in the invariant regime — restarts are geometric with success
    /// probability ≥ `1/l²`).
    pub(crate) fn max_walk_restarts(&self) -> usize {
        self.max_walk_restarts
    }
}

/// The factor on the mixing estimate in [`NowParams::walk_length`]:
/// the least at which `⌊k/1.25⌋` still reaches TV `1/N²` on every
/// overlay README § Walk table measures, rounded up. It binds on
/// `steady_*`'s start overlay, where the walk first reaches the target
/// at 13 hops against an estimate of 14.08, so `k` must be at least 17:
/// a factor above 16/14.08 = 1.1365.
const WALK_SPAN: f64 = 1.14;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_band_ordering() {
        let p = NowParams::for_capacity(1 << 12).unwrap();
        assert!(p.min_cluster_size() < p.target_cluster_size());
        assert!(p.target_cluster_size() < p.max_cluster_size());
        // A split of a just-oversized cluster must land both halves
        // above the merge bound: (max+1)/2 ≥ min requires l > √2.
        assert!(p.max_cluster_size().div_ceil(2) >= p.min_cluster_size());
    }

    #[test]
    fn derived_sizes_for_pow2() {
        let p = NowParams::new(1 << 10, 3, 1.5, 0.25, 0.1).unwrap();
        assert_eq!(p.target_cluster_size(), 30); // 3·10
        assert_eq!(p.max_cluster_size(), 45); // 1.5·30
        assert_eq!(p.min_cluster_size(), 20); // 30/1.5
        assert_eq!(p.min_population(), 32);
        assert_eq!(p.max_population(), 1 << 10);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(
            NowParams::new(8, 2, 1.5, 0.2, 0.1).is_err(),
            "tiny capacity"
        );
        assert!(NowParams::new(1 << 10, 0, 1.5, 0.2, 0.1).is_err(), "zero k");
        assert!(NowParams::new(1 << 10, 2, 1.2, 0.2, 0.1).is_err(), "l ≤ √2");
        assert!(
            NowParams::new(1 << 10, 2, 1.5, 0.34, 0.1).is_err(),
            "tau ≥ 1/3"
        );
        assert!(
            NowParams::new(1 << 10, 2, 1.5, 0.2, 0.0).is_err(),
            "epsilon 0"
        );
        assert!(
            NowParams::new(1 << 10, 2, 1.5, 0.32, 0.2).is_err(),
            "tau(1+eps) ≥ 1/3"
        );
    }

    #[test]
    fn rejects_a_band_whose_split_halves_fall_under_it() {
        // N = 2^10, k = 2, l = 1.42: band [15, 28], and a 29-node
        // cluster would split into 14 + 15.
        let Err(NowError::BadParams { reason }) = NowParams::new(1 << 10, 2, 1.42, 0.2, 0.1) else {
            panic!("a band that cannot hold a split must be rejected");
        };
        assert!(reason.contains("[15, 28]"), "{reason}");
        for l in [1.5, 2.0] {
            for log_n in 4..=16 {
                for k in 1..=6 {
                    assert!(NowParams::new(1 << log_n, k, l, 0.2, 0.1).is_ok());
                }
            }
        }
    }

    #[test]
    fn initial_clusters_start_inside_the_band() {
        for (k, l) in [(2, 1.5), (3, 1.5), (3, 2.0)] {
            let p = NowParams::new(1 << 10, k, l, 0.2, 0.1).unwrap();
            let t = p.target_cluster_size();
            for n in 1..=8 * t {
                let c = p.initial_cluster_count(n);
                let (small, large) = (n / c, n.div_ceil(c));
                assert!(large <= p.max_cluster_size(), "n = {n}: {c} clusters");
                assert!(
                    c == 1 || small >= p.min_cluster_size(),
                    "n = {n}: {c} clusters"
                );
            }
        }
        // Between two multiples of t = 20 (band [14, 30]): 35 nodes
        // start as two clusters, not one oversize cluster.
        let p = NowParams::new(1 << 10, 2, 1.5, 0.2, 0.1).unwrap();
        assert_eq!(p.initial_cluster_count(35), 2);
        assert_eq!(p.initial_cluster_count(60), 3);
    }

    #[test]
    fn error_message_is_informative() {
        let err = NowParams::new(1 << 10, 2, 1.0, 0.2, 0.1).unwrap_err();
        assert!(err.to_string().contains("sqrt(2)"));
    }

    #[test]
    fn walk_length_grows_with_overlay_and_capacity() {
        let p = NowParams::for_capacity(1 << 12).unwrap();
        assert!(p.walk_length(1_000) > p.walk_length(20));
        assert!(p.walk_length(0) >= 1);
        let wide = NowParams::for_capacity(1 << 16).unwrap();
        assert!(wide.walk_length(128) > p.walk_length(128));
    }

    #[test]
    fn walk_factor_override() {
        let p = NowParams::for_capacity(1 << 12).unwrap();
        let k = p.walk_length(50);
        assert!(
            p.with_walk_length_factor(2.0)
                .walk_length(50)
                .abs_diff(2 * k)
                <= 1
        );
        assert_eq!(p.with_walk_length_factor(0.0).walk_length(50), 1);
    }

    // ----- SecurityMode (Remark 1) -----

    #[test]
    fn authenticated_mode_accepts_tau_up_to_half() {
        // τ = 0.4 is invalid in Plain mode but fine in Authenticated.
        assert!(NowParams::new(1 << 10, 2, 1.5, 0.40, 0.05).is_err());
        let p = NowParams::new_authenticated(1 << 10, 2, 1.5, 0.40, 0.05).unwrap();
        assert_eq!(p.security(), SecurityMode::Authenticated);
        assert!((p.tau - 0.40).abs() < 1e-12);
    }

    #[test]
    fn authenticated_mode_still_bounded_below_half() {
        assert!(NowParams::new_authenticated(1 << 10, 2, 1.5, 0.50, 0.05).is_err());
        assert!(
            NowParams::new_authenticated(1 << 10, 2, 1.5, 0.48, 0.1).is_err(),
            "tau(1+eps) ≥ 1/2"
        );
    }

    #[test]
    fn mode_thresholds() {
        use SecurityMode::*;
        // randNum security: 3 byz of 10 — fine in both; 4 of 10 — only auth.
        assert!(Plain.rand_num_secure(3, 10));
        assert!(!Plain.rand_num_secure(4, 10));
        assert!(Authenticated.rand_num_secure(4, 10));
        assert!(!Authenticated.rand_num_secure(5, 10));
        // Invariant: 7 honest of 10 clears plain; 6 of 10 only auth.
        assert!(Plain.invariant_holds(7, 10));
        assert!(!Plain.invariant_holds(6, 10));
        assert!(Authenticated.invariant_holds(6, 10));
        assert!(!Authenticated.invariant_holds(5, 10));
    }

    #[test]
    fn mode_display_and_default() {
        assert_eq!(SecurityMode::default(), SecurityMode::Plain);
        assert_eq!(SecurityMode::Plain.to_string(), "plain");
        assert_eq!(SecurityMode::Authenticated.to_string(), "authenticated");
        assert!((SecurityMode::Plain.tau_bound() - 1.0 / 3.0).abs() < 1e-12);
        assert!((SecurityMode::Authenticated.tau_bound() - 0.5).abs() < 1e-12);
    }

    // ----- Population exponents (§2 relaxation) -----

    #[test]
    fn default_population_band_is_sqrt_to_n() {
        let p = NowParams::for_capacity(1 << 10).unwrap();
        assert_eq!(p.min_population(), 32);
        assert_eq!(p.max_population(), 1024);
    }

    #[test]
    fn generalized_exponents_widen_the_band() {
        let p = NowParams::for_capacity(1 << 10)
            .unwrap()
            .with_population_exponents(3.0, 1.5)
            .unwrap();
        // N^{1/3} = 2^{10/3} ≈ 10.08 → 10; N^{1.5} = 2^15 = 32768.
        assert_eq!(p.min_population(), 10);
        assert_eq!(p.max_population(), 32768);
    }

    #[test]
    fn exponent_validation() {
        let p = NowParams::for_capacity(1 << 10).unwrap();
        assert!(p.with_population_exponents(0.5, 1.0).is_err(), "y < 1");
        assert!(p.with_population_exponents(2.0, 0.9).is_err(), "z < 1");
        assert!(
            p.with_population_exponents(2.0, 7.0).is_err(),
            "2^70 overflows u64"
        );
        assert!(
            p.with_population_exponents(1.0, 1.0).is_ok(),
            "y = z = 1 allowed"
        );
    }

    // ----- Exchange cap ablation -----

    #[test]
    fn exchange_cap_round_trips() {
        let p = NowParams::for_capacity(1 << 10).unwrap();
        assert_eq!(p.exchange_cap(), None);
        let capped = p.with_exchange_cap(Some(5));
        assert_eq!(capped.exchange_cap(), Some(5));
        assert_eq!(capped.with_exchange_cap(None).exchange_cap(), None);
    }

    /// The integers derived without libm are libm's: for capacities
    /// 2⁴…2³⁰ and every shape the tests, the bench and the scenarios
    /// build (`k` 1–8, `l` ∈ {1.42, 1.5, 2}, the population exponents
    /// they pass), the overlay's target degree, the population bounds
    /// (and which exponents are rejected), the size band and the
    /// initial cluster counts; and the init election costs at every
    /// population up to 4 096, and at `2^e` and `3·2^(e−2)` up to
    /// `e` = 30.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm is the reference the ieee-derived integers are checked against"
    )]
    fn derived_integers_are_libms() {
        let mut populations: Vec<usize> = (1..=4_096).collect();
        for e in 12..=30 {
            populations.extend([1 << e, 3 << (e - 2)]);
        }
        for e in 4..=30 {
            let capacity = 1u64 << e;
            let (n, log_n) = (capacity as f64, (capacity as f64).log2());
            let over = OverParams::for_capacity(capacity);
            assert_eq!(
                over.target_degree(),
                log_n.powf(1.1).ceil() as usize,
                "N = 2^{e}"
            );
            for (k, l) in (1..=8).flat_map(|k| [(k, 1.42), (k, 1.5), (k, 2.0)]) {
                let Ok(p) = NowParams::new(capacity, k, l, 0.2, 0.1) else {
                    continue;
                };
                let (target, max) = (
                    (k as f64 * log_n).ceil() as usize,
                    (l * k as f64 * log_n).floor() as usize,
                );
                assert_eq!(p.target_cluster_size(), target);
                assert_eq!(p.max_cluster_size(), max);
                assert_eq!(p.min_cluster_size(), (k as f64 * log_n / l).ceil() as usize);
                for &pop in &populations {
                    let libm = (pop / target).max(pop.div_ceil(max)).max(1);
                    assert_eq!(
                        p.initial_cluster_count(pop),
                        libm,
                        "N = 2^{e}, k {k}, l {l}, n {pop}"
                    );
                }
                for (y, z) in [
                    (2.0, 1.0),
                    (3.0, 1.5),
                    (2.0, 7.0),
                    (2.0, 1.25),
                    (2.0, 1.2),
                    (1.0, 1.0),
                ] {
                    let bounded = p.with_population_exponents(y, z);
                    assert_eq!(bounded.is_ok(), n.powf(z) <= u64::MAX as f64 / 2.0, "N^{z}");
                    if let Ok(q) = bounded {
                        assert_eq!(q.min_population(), n.powf(1.0 / y).floor() as u64);
                        assert_eq!(q.max_population(), n.powf(z).floor() as u64);
                    }
                }
            }
        }
        for &pop in &populations {
            let log_n = (pop.max(2) as f64).log2();
            let election = ((pop as f64).powf(1.5) * log_n).ceil() as u64;
            assert_eq!(
                crate::init::election_cost(pop),
                (election, log_n.ceil() as u64),
                "n {pop}"
            );
            assert_eq!(now_net::ieee::ceil_log2(pop as u64), log_n.ceil() as u64);
            for committee in [1, 2, 8, 24, 60] {
                let walks = committee as f64 * log_n * log_n;
                let libm = (walks.ceil() as u64, (log_n * log_n).ceil() as u64);
                assert_eq!(
                    crate::init_tree::committee_walk_cost(pop, committee),
                    libm,
                    "n {pop}"
                );
            }
        }
    }
}
