//! NOW protocol parameters and derived quantities.

use crate::error::NowError;
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
    pub fn tau_bound(self) -> f64 {
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
    /// `l ≤ √2`, `τ ∉ [0, 1/3)`, `ε ≤ 0`, or `τ·(1+ε) ≥ 1/3` (the
    /// regime Lemma 1 needs).
    pub fn new(capacity: u64, k: usize, l: f64, tau: f64, epsilon: f64) -> Result<Self, NowError> {
        Self::build(SecurityMode::Plain, capacity, k, l, tau, epsilon)
    }

    /// Constructor for Remark 1's crypto-hardened variant
    /// ([`SecurityMode::Authenticated`]): signatures buy an honest-
    /// *majority* requirement, so `τ` may range up to `1/2 − ε`.
    ///
    /// # Errors
    /// Returns [`NowError::BadParams`] if `capacity < 16`, `k == 0`,
    /// `l ≤ √2`, `τ ∉ [0, 1/2)`, `ε ≤ 0`, or `τ·(1+ε) ≥ 1/2`.
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
        Ok(NowParams {
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
        })
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
        if (self.capacity as f64).powf(z) > u64::MAX as f64 / 2.0 {
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
    pub fn exchange_cap(&self) -> Option<usize> {
        self.exchange_cap
    }

    /// Overrides the CTRW duration factor (default 1.0; duration is
    /// `factor · log²(m) / target_degree` for an overlay of `m`
    /// clusters, giving ≈ `factor · log² m` expected hops).
    pub fn with_walk_length_factor(mut self, factor: f64) -> Self {
        self.walk_length_factor = factor.max(0.01);
        self
    }

    /// The capacity `N`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The security parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The band constant `l`.
    pub fn l(&self) -> f64 {
        self.l
    }

    /// The designed-for corruption bound `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// The drift slack `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The quorum/agreement substrate mode (Plain or Authenticated).
    pub fn security(&self) -> SecurityMode {
        self.security
    }

    /// The population floor exponent `y` (`n ≥ N^{1/y}`).
    pub fn population_floor_exponent(&self) -> f64 {
        self.y
    }

    /// The population ceiling exponent `z` (`n ≤ N^z`).
    pub fn population_ceiling_exponent(&self) -> f64 {
        self.z
    }

    /// Parameters of the OVER overlay this deployment uses.
    pub fn over(&self) -> OverParams {
        self.over
    }

    /// `log₂ N`.
    pub fn log_n(&self) -> f64 {
        (self.capacity as f64).log2()
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

    /// Lower bound on the population (`N^{1/y}`, default `√N`) the model
    /// assumes.
    pub fn min_population(&self) -> u64 {
        (self.capacity as f64).powf(1.0 / self.y).floor() as u64
    }

    /// Upper bound on the population (`N^z`, default `N`) the model
    /// assumes.
    pub fn max_population(&self) -> u64 {
        (self.capacity as f64).powf(self.z).floor() as u64
    }

    /// CTRW duration for an overlay of `m` clusters: chosen so the
    /// expected hop count is ≈ `walk_length_factor · log²(m+2)`
    /// (the paper's "walks of length O(log²n)").
    pub fn ctrw_duration(&self, m: usize) -> f64 {
        let log_m = ((m + 2) as f64).log2();
        self.walk_length_factor * log_m * log_m / self.over.target_degree() as f64
    }

    /// Size-bias acceptance normalizer: the walk's endpoint `C` is
    /// accepted with probability `|C| / max_cluster_size` (the static
    /// bound stands in for `max_C |C|`, which the protocol cannot know
    /// exactly; sizes never exceed it while the invariants hold).
    pub fn acceptance_probability(&self, cluster_size: usize) -> f64 {
        acceptance(cluster_size, self.max_cluster_size())
    }

    /// Cap on biased-walk restarts before `rand_cl` falls back to the
    /// current endpoint (guards against pathological overlays; never hit
    /// in the invariant regime — restarts are geometric with success
    /// probability ≥ `1/l²`).
    pub fn max_walk_restarts(&self) -> usize {
        self.max_walk_restarts
    }
}

/// [`NowParams::acceptance_probability`] under a normaliser the caller
/// has already computed: `|C| / max_cluster_size`, clamped to `[0, 1]`.
pub(crate) fn acceptance(cluster_size: usize, max_cluster_size: usize) -> f64 {
    (cluster_size as f64 / max_cluster_size as f64).clamp(0.0, 1.0)
}

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
    fn error_message_is_informative() {
        let err = NowParams::new(1 << 10, 2, 1.0, 0.2, 0.1).unwrap_err();
        assert!(err.to_string().contains("sqrt(2)"));
    }

    #[test]
    fn acceptance_probability_clamped() {
        let p = NowParams::for_capacity(1 << 10).unwrap();
        assert_eq!(p.acceptance_probability(0), 0.0);
        assert_eq!(p.acceptance_probability(10 * p.max_cluster_size()), 1.0);
        let half = p.acceptance_probability(p.max_cluster_size() / 2);
        assert!(half > 0.0 && half < 1.0);
    }

    #[test]
    fn ctrw_duration_grows_with_overlay_size() {
        let p = NowParams::for_capacity(1 << 12).unwrap();
        assert!(p.ctrw_duration(100) > p.ctrw_duration(10));
        assert!(p.ctrw_duration(0) > 0.0);
    }

    #[test]
    fn walk_factor_override() {
        let p = NowParams::for_capacity(1 << 12).unwrap();
        let fast = p.with_walk_length_factor(2.0);
        assert!((fast.ctrw_duration(50) - 2.0 * p.ctrw_duration(50)).abs() < 1e-12);
    }

    // ----- SecurityMode (Remark 1) -----

    #[test]
    fn authenticated_mode_accepts_tau_up_to_half() {
        // τ = 0.4 is invalid in Plain mode but fine in Authenticated.
        assert!(NowParams::new(1 << 10, 2, 1.5, 0.40, 0.05).is_err());
        let p = NowParams::new_authenticated(1 << 10, 2, 1.5, 0.40, 0.05).unwrap();
        assert_eq!(p.security(), SecurityMode::Authenticated);
        assert!((p.tau() - 0.40).abs() < 1e-12);
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
        assert_eq!(p.population_floor_exponent(), 2.0);
        assert_eq!(p.population_ceiling_exponent(), 1.0);
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
}
