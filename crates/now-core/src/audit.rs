//! System-wide invariant measurement.

use crate::params::SecurityMode;
use crate::system::NowSystem;
use now_net::ClusterId;

/// One O(#C) snapshot of the paper's invariants.
///
/// Theorem 3 says: whp, at every time step of a polynomially long churn
/// sequence, **every** cluster has more than two thirds honest members.
/// The audit reports the worst cluster plus the two protocol-relevant
/// threshold counts (1/3: `randNum` compromised; 1/2: messages
/// forgeable), the cluster-size band of the split/merge rules, the
/// overlay's degree spread (the degree `randCl`'s walk length is sized
/// for), and the structural health of the partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemAudit {
    /// Time step at which the audit ran.
    pub time_step: u64,
    /// Current population `n`.
    pub population: u64,
    /// Byzantine nodes currently in the network.
    pub byz_population: u64,
    /// Number of clusters.
    pub cluster_count: usize,
    /// Smallest cluster size.
    pub min_cluster_size: usize,
    /// Largest cluster size.
    pub max_cluster_size: usize,
    /// Mean cluster size.
    pub mean_cluster_size: f64,
    /// Highest Byzantine fraction over all clusters.
    pub worst_byz_fraction: f64,
    /// The cluster attaining it (`None` for an empty system).
    pub worst_cluster: Option<ClusterId>,
    /// Clusters failing the strict > 2/3-honest invariant (the paper's
    /// main-model target; always measured, whatever the mode).
    pub clusters_not_two_thirds_honest: usize,
    /// Clusters failing the honest-strict-majority invariant (Remark 1's
    /// authenticated-mode target; always measured).
    pub clusters_not_majority_honest: usize,
    /// Clusters whose `randNum` is compromised under the deployment's
    /// [`SecurityMode`] (Byzantine ≥ 1/3 in Plain, ≥ 1/2 in
    /// Authenticated).
    pub clusters_rand_num_compromised: usize,
    /// Clusters whose messages the adversary can forge (Byzantine > 1/2;
    /// mode-independent — honest members never co-sign a forgery).
    pub clusters_forgeable: usize,
    /// The substrate mode the deployment runs (determines which of the
    /// two invariant counters is the binding one).
    pub security: SecurityMode,
    /// Whether every cluster size lies within `[k·logN/l, l·k·logN]`
    /// (the merge/split band; a single remaining cluster is exempt from
    /// the lower bound, as merging is impossible).
    pub size_bounds_ok: bool,
    /// Mean overlay degree, `2·|E| / #C` (0 for an empty system).
    pub overlay_mean_degree: f64,
    /// Smallest overlay degree (0 for an empty system).
    pub overlay_min_degree: usize,
    /// Largest overlay degree.
    pub overlay_max_degree: usize,
}

impl SystemAudit {
    /// Measures `sys` (cheap: no spectral work — see
    /// [`NowSystem::overlay_audit`] for Properties 1–2).
    pub(crate) fn measure(sys: &NowSystem) -> Self {
        let mut min_size = usize::MAX;
        let mut max_size = 0usize;
        let mut total = 0usize;
        let mut worst_fraction = 0.0f64;
        let mut worst_cluster = None;
        let mut not_two_thirds = 0usize;
        let mut not_majority = 0usize;
        let mut compromised = 0usize;
        let mut forgeable = 0usize;
        let lo = sys.params().min_cluster_size();
        let hi = sys.params().max_cluster_size();
        let mode = sys.params().security();
        let mut bounds_ok = true;
        let cluster_count = sys.cluster_count();
        let (mut min_degree, mut max_degree, mut degrees) = (usize::MAX, 0usize, 0usize);

        for c in sys.clusters() {
            let size = c.size();
            min_size = min_size.min(size);
            max_size = max_size.max(size);
            total += size;
            let frac = c.byz_fraction();
            if frac > worst_fraction || worst_cluster.is_none() {
                worst_fraction = frac;
                worst_cluster = Some(c.id());
            }
            if !c.two_thirds_honest() {
                not_two_thirds += 1;
            }
            if !c.invariant_holds_in(SecurityMode::Authenticated) {
                not_majority += 1;
            }
            if !c.rand_num_secure_in(mode) {
                compromised += 1;
            }
            if c.forgeable() {
                forgeable += 1;
            }
            if size > hi || (size < lo && cluster_count > 1) {
                bounds_ok = false;
            }
            let degree = sys.overlay().degree(c.id());
            min_degree = min_degree.min(degree);
            max_degree = max_degree.max(degree);
            degrees += degree;
        }
        if cluster_count == 0 {
            min_size = 0;
            min_degree = 0;
        }
        SystemAudit {
            time_step: sys.time_step(),
            population: sys.population(),
            byz_population: sys.byz_population(),
            cluster_count,
            min_cluster_size: min_size,
            max_cluster_size: max_size,
            mean_cluster_size: if cluster_count == 0 {
                0.0
            } else {
                total as f64 / cluster_count as f64
            },
            worst_byz_fraction: worst_fraction,
            worst_cluster,
            clusters_not_two_thirds_honest: not_two_thirds,
            clusters_not_majority_honest: not_majority,
            clusters_rand_num_compromised: compromised,
            clusters_forgeable: forgeable,
            security: mode,
            size_bounds_ok: bounds_ok,
            overlay_mean_degree: if cluster_count == 0 {
                0.0
            } else {
                degrees as f64 / cluster_count as f64
            },
            overlay_min_degree: min_degree,
            overlay_max_degree: max_degree,
        }
    }

    /// The headline invariant: every cluster strictly > 2/3 honest.
    pub fn all_two_thirds_honest(&self) -> bool {
        self.clusters_not_two_thirds_honest == 0
    }

    /// Remark 1's invariant: every cluster has an honest strict
    /// majority.
    pub(crate) fn all_majority_honest(&self) -> bool {
        self.clusters_not_majority_honest == 0
    }

    /// The invariant that binds for this deployment's [`SecurityMode`]:
    /// > 2/3 honest in Plain, honest majority in Authenticated.
    pub fn invariant_ok(&self) -> bool {
        match self.security {
            SecurityMode::Plain => self.all_two_thirds_honest(),
            SecurityMode::Authenticated => self.all_majority_honest(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::params::NowParams;
    use crate::system::NowSystem;

    fn system(n0: usize, tau: f64, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, tau, seed)
    }

    #[test]
    fn audit_of_fresh_system() {
        // τ = 0.1 with clusters of 20: P(a cluster reaches 1/3) is tiny
        // — the k-dependence Lemma 1 quantifies. (At τ = 0.2 and k = 2
        // the binomial tail is *not* negligible; experiment X-T3 sweeps
        // exactly this.)
        let sys = system(200, 0.1, 1);
        let a = sys.audit();
        assert_eq!(a.population, 200);
        assert_eq!(a.byz_population, 20);
        assert_eq!(a.cluster_count, 10);
        assert!(a.size_bounds_ok);
        assert!(a.all_two_thirds_honest(), "random partition at τ=0.1");
        assert_eq!(a.clusters_rand_num_compromised, 0);
        assert_eq!(a.clusters_forgeable, 0);
        assert!(a.worst_byz_fraction < 1.0 / 3.0);
        assert!(a.worst_cluster.is_some());
        assert!((a.mean_cluster_size - 20.0).abs() < 1e-9);
        let overlay = sys.overlay();
        let degrees: Vec<usize> = sys
            .cluster_ids()
            .iter()
            .map(|&c| overlay.degree(c))
            .collect();
        assert_eq!(a.overlay_min_degree, *degrees.iter().min().unwrap());
        assert_eq!(a.overlay_max_degree, *degrees.iter().max().unwrap());
        let edges = overlay.edge_count() as f64;
        assert!((a.overlay_mean_degree - 2.0 * edges / 10.0).abs() < 1e-9);
    }

    #[test]
    fn audit_flags_polluted_cluster() {
        let mut sys = system(200, 0.2, 2);
        let victim = sys.cluster_ids()[0];
        // Stuff byzantine nodes into the victim (registry surgery).
        for b in sys.byz_node_ids() {
            sys.move_node(b, victim);
        }
        let a = sys.audit();
        assert!(a.worst_byz_fraction > 0.5);
        assert_eq!(a.worst_cluster, Some(victim));
        assert!(a.clusters_not_two_thirds_honest >= 1);
        assert!(a.clusters_rand_num_compromised >= 1);
        assert!(a.clusters_forgeable >= 1);
        assert!(!a.size_bounds_ok, "victim is far oversize now");
    }

    #[test]
    fn audit_tracks_band_violations() {
        let mut sys = system(100, 0.0, 3);
        let c = sys.cluster_ids()[0];
        // Drain one cluster below the band by moving members away.
        let other = sys.cluster_ids()[1];
        while sys.cluster(c).unwrap().size() >= sys.params().min_cluster_size() {
            let m = sys.cluster(c).unwrap().member_at(0);
            sys.move_node(m, other);
        }
        assert!(!sys.audit().size_bounds_ok);
    }

    #[test]
    fn single_cluster_exempt_from_lower_bound() {
        let sys = system(18, 0.0, 4); // below target size, one cluster
        let a = sys.audit();
        assert_eq!(a.cluster_count, 1);
        assert!(a.size_bounds_ok, "lone cluster may be small");
    }

    /// At τ = 0.40 (authenticated mode only) the plain 2/3-honest
    /// target is hopeless while the Remark 1 majority target fails only
    /// on binomial tails. Asserted over a 5-seed quantile ensemble
    /// rather than one pinned seed (ROADMAP "statistical-test
    /// robustness"): the old single-seed form asserted
    /// `all_majority_honest` outright, which the vendored stream
    /// satisfies on only 2 of these 5 seeds — it held only on its
    /// pinned seed. Measured ensemble of worst per-cluster Byzantine
    /// fractions: [0.450, 0.450, 0.500, 0.500, 0.525].
    #[test]
    fn authenticated_mode_binds_the_majority_invariant() {
        use crate::params::{NowParams, SecurityMode};
        let params = NowParams::new_authenticated(1 << 10, 4, 1.5, 0.40, 0.05).unwrap();
        let mut worsts = Vec::new();
        let mut majority_holds = 0usize;
        for seed in [21u64, 22, 23, 24, 25] {
            let sys = NowSystem::init_fast(params, 400, 0.40, seed);
            let a = sys.audit();
            assert_eq!(a.security, SecurityMode::Authenticated);
            // Structural on every seed: at 40% corruption some cluster
            // exceeds 1/3 Byzantine, so the plain target fails, and the
            // binding invariant is the majority one by mode.
            assert!(
                !a.all_two_thirds_honest(),
                "plain target unreachable at τ=0.4 (seed {seed})"
            );
            assert_eq!(
                a.invariant_ok(),
                a.all_majority_honest(),
                "authenticated mode binds the majority invariant (seed {seed})"
            );
            if a.all_majority_honest() {
                majority_holds += 1;
            }
            worsts.push(a.worst_byz_fraction);
        }
        worsts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Statistical, quantile-banded: the majority target is reachable
        // (some seeds are fully majority-honest — the plain target never
        // is), the median seed sits at the 1/2 line or under, and even
        // the worst seed stays within a grazing band of it.
        assert!(
            majority_holds >= 1,
            "majority target unreachable on every seed"
        );
        assert!(
            worsts[worsts.len() / 2] <= 0.50 + 1e-9,
            "median worst fraction beyond 1/2: {worsts:?}"
        );
        assert!(
            *worsts.last().unwrap() < 0.60,
            "worst seed deeply captured: {worsts:?}"
        );
    }

    #[test]
    fn plain_mode_binds_the_two_thirds_invariant() {
        let sys = system(200, 0.1, 7);
        let a = sys.audit();
        assert_eq!(a.security, crate::params::SecurityMode::Plain);
        assert_eq!(a.invariant_ok(), a.all_two_thirds_honest());
        assert!(
            a.all_majority_honest(),
            "2/3-honest implies majority-honest"
        );
    }

    #[test]
    fn honest_only_system_has_zero_fractions() {
        let sys = system(150, 0.0, 5);
        let a = sys.audit();
        assert_eq!(a.byz_population, 0);
        assert_eq!(a.worst_byz_fraction, 0.0);
        assert!(a.all_two_thirds_honest());
    }
}
