//! [`NowSystem`] — the live NOW deployment.

use crate::audit::SystemAudit;
use crate::cluster::Cluster;
use crate::error::NowError;
use crate::kernel::Kernel;
use crate::malice::{Malice, NoMalice};
use crate::params::NowParams;
use crate::rand_cl::WalkTable;
use crate::registry::Registry;
use now_graph::sample::shuffle;
use now_net::{ieee, ClusterId, CostKind, DetRng, IdGen, Ledger, NodeId};
use now_over::Overlay;
use rand::Rng;
use std::fmt;

/// The live system: slab-backed membership registry ([`Registry`]), OVER
/// overlay, message ledger, and deterministic randomness.
///
/// All maintenance operations are methods (`join`, `leave`, and the
/// internally triggered `split`/`merge`/`exchange`); every operation's
/// exact message/round cost lands in the [`Ledger`] under its
/// [`CostKind`].
pub struct NowSystem {
    pub(crate) params: NowParams,
    pub(crate) ids: IdGen,
    pub(crate) registry: Registry,
    pub(crate) overlay: Overlay,
    /// The overlay by registry slot, as walks read it: rebuilt where
    /// `overlay` or the cluster slab changes shape, and nowhere else.
    pub(crate) walks: WalkTable,
    pub(crate) ledger: Ledger,
    pub(crate) rng: DetRng,
    pub(crate) malice: Box<dyn Malice>,
    pub(crate) time_step: u64,
    pub(crate) hub: crate::hub::TraceHub,
}

impl fmt::Debug for NowSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NowSystem")
            .field("population", &self.registry.population())
            .field("clusters", &self.registry.cluster_count())
            .field("time_step", &self.time_step)
            .field("op_counts", &self.op_counts())
            .finish_non_exhaustive()
    }
}

impl NowSystem {
    /// Bootstraps a system of `n0` nodes, a fraction `tau` of which the
    /// adversary corrupts (chosen uniformly — the adversary may also be
    /// given the choice explicitly via [`NowSystem::init_with_corruption`]).
    ///
    /// This is the fast (L1) initialization: it produces the *outcome*
    /// of the paper's initialization phase — a uniformly random
    /// partition into [`NowParams::initial_cluster_count`] clusters of
    /// about the target size plus a fresh random overlay — and accounts the phase's costs with the same structure
    /// the genuinely executed path (`crate::init`) exhibits:
    /// discovery ≈ `n·e` message units over `diameter` rounds,
    /// clusterization ≈ committee `randNum` + assignment broadcast.
    ///
    /// # Panics
    /// Panics if `n0 == 0` or `tau ∉ [0, 1)`.
    pub fn init_fast(params: NowParams, n0: usize, tau: f64, seed: u64) -> Self {
        assert!(n0 > 0, "initial population must be positive");
        assert!((0.0..1.0).contains(&tau), "tau must lie in [0,1)");
        let mut rng = DetRng::new(seed);
        let byz_total = (tau * n0 as f64).floor() as usize;
        let mut corrupt = vec![false; n0];
        // Uniformly random corrupted subset.
        let picks = now_graph::sample::sample_distinct(n0, byz_total, &mut rng);
        for i in picks {
            corrupt[i] = true;
        }
        Self::init_with_corruption(params, &corrupt, seed.wrapping_add(1))
    }

    /// Bootstraps with an explicit corruption vector (`corrupt[i]` is
    /// the adversary's choice for the `i`-th initial node) — the paper
    /// lets the adversary pick its τ-fraction at time zero.
    ///
    /// # Panics
    /// Panics if `corrupt` is empty.
    pub fn init_with_corruption(params: NowParams, corrupt: &[bool], seed: u64) -> Self {
        let n0 = corrupt.len();
        assert!(n0 > 0, "initial population must be positive");
        let mut rng = DetRng::new(seed);
        let mut ids = IdGen::new();
        let node_ids: Vec<NodeId> = (0..n0).map(|_| ids.node()).collect();

        // Random permutation, then contiguous blocks — the paper's
        // representative-cluster procedure's outcome.
        let mut order: Vec<usize> = (0..n0).collect();
        shuffle(&mut order, &mut rng);

        let target = params.target_cluster_size();
        let cluster_count = params.initial_cluster_count(n0);
        let mut registry = Registry::new();
        let mut cluster_ids = Vec::with_capacity(cluster_count);
        for _ in 0..cluster_count {
            let cid = ids.cluster();
            registry.create_cluster(cid);
            cluster_ids.push(cid);
        }
        for (pos, &idx) in order.iter().enumerate() {
            // INVARIANT: `pos % cluster_count < cluster_ids.len()` by
            // construction of the id vector above.
            let cid = cluster_ids[pos % cluster_count];
            registry.attach(node_ids[idx], !corrupt[idx], cid);
        }

        let overlay = Overlay::init_random(&cluster_ids, params.over(), &mut rng);

        // Cost accounting for the initialization phase (structure
        // mirrors the L0 path in `crate::init`, which experiment X-F1
        // measures).
        let mut ledger = Ledger::new();
        let n = n0 as u64;
        let log_n = ieee::ceil_log2(n0 as u64);
        let bootstrap_edges = n * log_n / 2;
        ledger.begin(CostKind::Discovery);
        ledger.add_messages(n * bootstrap_edges);
        ledger.add_rounds(log_n + 1);
        ledger.end();
        let c = target as u64;
        ledger.begin(CostKind::Clusterization);
        ledger.add_messages(2 * c * (c - 1).max(1) + c * n + c * c * c);
        ledger.add_rounds(2 + c / 2);
        ledger.end();

        let walks = WalkTable::build(&params, &overlay, &registry);
        NowSystem {
            params,
            ids,
            registry,
            overlay,
            walks,
            ledger,
            rng,
            malice: Box::new(NoMalice),
            time_step: 0,
            hub: crate::hub::TraceHub::default(),
        }
    }

    /// Replaces the in-protocol adversary hook (see [`Malice`]).
    pub fn set_malice(&mut self, malice: Box<dyn Malice>) {
        self.malice = malice;
    }

    /// An independent copy of the system, on `malice`: the same
    /// registry, overlay, ledger, random stream, time step and armed
    /// sinks, so the copy continues exactly where `self` stands. The
    /// adversary hook is the one part that is not copied, since a
    /// [`Malice`] may hold state of its own.
    pub fn fork(&self, malice: Box<dyn Malice>) -> NowSystem {
        NowSystem {
            params: self.params,
            ids: self.ids.clone(),
            registry: self.registry.clone(),
            overlay: self.overlay.clone(),
            walks: self.walks.clone(),
            ledger: self.ledger.clone(),
            rng: self.rng.clone(),
            malice,
            time_step: self.time_step,
            hub: self.hub.clone(),
        }
    }

    /// Static parameters.
    pub fn params(&self) -> NowParams {
        self.params
    }

    /// Completed time steps (one per external join/leave, or one per
    /// batch — see [`NowSystem::step_batch`]).
    pub fn time_step(&self) -> u64 {
        self.time_step
    }

    /// Advances the discrete time variable by one step (batched
    /// operations bump it once for the whole batch).
    pub(crate) fn advance_time_step(&mut self) {
        self.time_step += 1;
    }

    /// Current population `n` (O(1): the registry keeps an exact
    /// counter).
    pub fn population(&self) -> u64 {
        self.registry.population()
    }

    /// Number of Byzantine nodes currently in the network (O(1)).
    pub fn byz_population(&self) -> u64 {
        self.registry.byz_population()
    }

    /// Number of clusters `#C`.
    pub fn cluster_count(&self) -> usize {
        self.registry.cluster_count()
    }

    /// A cluster by id.
    pub fn cluster(&self, id: ClusterId) -> Option<&Cluster> {
        self.registry.cluster(id)
    }

    /// Iterates clusters in id order.
    pub fn clusters(&self) -> impl Iterator<Item = &Cluster> {
        self.registry.clusters()
    }

    /// Live cluster ids in id order.
    pub fn cluster_ids(&self) -> Vec<ClusterId> {
        self.registry.cluster_ids().to_vec()
    }

    /// The overlay Ĝᴿ.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Mutable ledger access: applications book their own spans here.
    /// Replacing the ledger also resets [`NowSystem::op_counts`].
    pub fn ledger_mut(&mut self) -> &mut Ledger {
        &mut self.ledger
    }

    /// The cluster a node currently belongs to.
    ///
    /// # Errors
    /// [`NowError::UnknownNode`] if the node is not in the network.
    pub fn node_cluster(&self, node: NodeId) -> Result<ClusterId, NowError> {
        self.registry
            .get(node)
            .map(|r| r.cluster)
            .ok_or(NowError::UnknownNode { node })
    }

    /// Ground-truth honesty of a live node (simulator's view).
    ///
    /// # Errors
    /// [`NowError::UnknownNode`] if the node is not in the network.
    pub fn is_honest(&self, node: NodeId) -> Result<bool, NowError> {
        self.registry
            .get(node)
            .map(|r| r.honest)
            .ok_or(NowError::UnknownNode { node })
    }

    /// All node ids currently in the network, in id order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.registry.node_ids()
    }

    /// Ids of the Byzantine nodes currently in the network (the
    /// full-information adversary knows these; experiments use this to
    /// drive targeted churn).
    pub fn byz_node_ids(&self) -> Vec<NodeId> {
        self.registry.byz_node_ids()
    }

    /// Number of operations of each kind performed so far:
    /// `(joins, leaves, splits, merges)`, read from the ledger, where
    /// every operation closes exactly one span of its kind (a merge's
    /// re-joins are joins).
    ///
    /// The counts live in the ledger alone, so replacing it through
    /// [`NowSystem::ledger_mut`] resets them. Only tests and the
    /// discovered-bootstrap constructors (`init::init_discovered`,
    /// `init_tree::init_tree_discovered`) do that, the constructors
    /// before any operation runs.
    pub fn op_counts(&self) -> (u64, u64, u64, u64) {
        let count = |kind| self.ledger.stats(kind).count;
        (
            count(CostKind::Join),
            count(CostKind::Leave),
            count(CostKind::Split),
            count(CostKind::Merge),
        )
    }

    /// A uniformly random live cluster — the cluster a joining node
    /// "gets in contact with" when the caller has no preference.
    pub(crate) fn contact_cluster(&mut self) -> ClusterId {
        let idx = self.rng.gen_range(0..self.registry.cluster_count());
        self.registry.cluster_id_at(idx)
    }

    /// Measures the system against the paper's invariants (cheap; O(#C)).
    pub fn audit(&self) -> SystemAudit {
        SystemAudit::measure(self)
    }

    // ------------------------------------------------------------------
    // Observability (now-trace).
    // ------------------------------------------------------------------

    /// Turns on the flight recorder with a ring buffer of `capacity`
    /// events. Every execution engine then records typed protocol
    /// events in the step's run order, so two runs that agree on seeds,
    /// inputs and engine produce byte-identical traces.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.hub.recorder = Some(now_trace::FlightRecorder::new(capacity));
    }

    /// Turns on the metrics registry. Counters, gauges, and histograms
    /// are populated from protocol outcomes only (never the wall
    /// clock), so exported metrics are part of the deterministic
    /// surface.
    pub fn enable_metrics(&mut self) {
        self.hub.metrics = Some(now_trace::MetricsRegistry::new());
    }

    /// The flight recorder, if tracing is enabled.
    pub fn flight_recorder(&self) -> Option<&now_trace::FlightRecorder> {
        self.hub.recorder.as_ref()
    }

    /// The metrics registry, if metrics are enabled.
    pub fn metrics(&self) -> Option<&now_trace::MetricsRegistry> {
        self.hub.metrics.as_ref()
    }

    /// Records an invariant violation into the observability sinks: a
    /// `violation` trace event, a `now_violations_total` increment, and
    /// — once per recorder — a flight-recorder dump filtered to the
    /// offending cluster's causal neighborhood (the cluster plus its
    /// overlay neighbors). `now-sim`'s step loop calls this for each
    /// failing kind on every audited step, not only the first one that
    /// fails: every call emits one event and one increment, and only
    /// the dump is taken once.
    pub fn record_violation(&mut self, kind: &'static str, cluster: Option<ClusterId>) {
        let step = self.time_step;
        let neighborhood: Vec<u64> = match cluster {
            Some(c) => {
                let mut ids = vec![c.raw()];
                ids.extend(self.overlay.neighbors(c).iter().map(|n| n.raw()));
                ids.sort_unstable();
                ids.dedup();
                ids
            }
            None => Vec::new(),
        };
        self.hub.event(
            step,
            now_trace::TraceData::Violation {
                kind,
                cluster: cluster.map(|c| c.raw()),
            },
        );
        self.hub.count("now_violations_total", 1);
        if let Some(rec) = &mut self.hub.recorder {
            rec.capture_dump(step, kind, cluster.map(|c| c.raw()), &neighborhood);
        }
    }

    /// Measures the overlay against Properties 1–2 (spectral; costlier).
    pub fn overlay_audit(&self) -> now_over::OverlayAudit {
        self.overlay.audit()
    }

    // ------------------------------------------------------------------
    // Internal bookkeeping shared by the operation modules.
    // ------------------------------------------------------------------

    pub(crate) fn cluster_ref(&self, id: ClusterId) -> &Cluster {
        // INVARIANT: internal callers resolve ids from the registry's
        // own live sets within the same serial phase.
        self.registry.cluster(id).expect("cluster must exist")
    }

    /// Moves `node` between clusters, keeping the registry's index,
    /// member sets, and counters in sync.
    pub(crate) fn move_node(&mut self, node: NodeId, to: ClusterId) {
        // INVARIANT: internal callers only move nodes they just read
        // from live member vecs.
        self.registry.move_to(node, to).expect("node must be live");
    }

    /// Removes a node from the network; returns its honesty flag.
    pub(crate) fn detach_node(&mut self, node: NodeId) -> Result<bool, NowError> {
        self.registry
            .detach(node)
            .map(|r| r.honest)
            .ok_or(NowError::UnknownNode { node })
    }

    /// The op kernel over the live registry: what the direct API
    /// (and split/merge, which only ever run here) drives.
    pub(crate) fn kernel(&mut self) -> Kernel<'_> {
        Kernel {
            registry: &mut self.registry,
            walks: &self.walks,
            params: self.params,
            ledger: &mut self.ledger,
            rng: &mut self.rng,
            malice: self.malice.as_mut(),
        }
    }

    /// Re-derives the walk table after the overlay or the cluster slab
    /// changed shape: called by split and merge, once each.
    pub(crate) fn rebuild_walks(&mut self) {
        self.walks
            .rebuild(&self.params, &self.overlay, &self.registry);
    }

    /// `randNum` within live cluster `c` over `0..range` (see
    /// [`Kernel::draw`]).
    pub(crate) fn rand_num_in(
        &mut self,
        c: ClusterId,
        range: u64,
        purpose: crate::malice::RandNumPurpose,
    ) -> u64 {
        let mut kernel = self.kernel();
        let at = kernel.security(c);
        kernel.draw(c, range, purpose, at)
    }

    /// **Experiment-only registry surgery**: teleports a node into
    /// `to`, bypassing the protocol. Experiments use this to *construct*
    /// adversarially polluted configurations (e.g. Lemma 1's "cluster at
    /// 70% Byzantine") whose recovery the protocol is then measured on.
    /// Never called by protocol code.
    ///
    /// # Errors
    /// [`NowError::UnknownNode`] / [`NowError::UnknownCluster`] if either
    /// side does not exist.
    pub fn force_move(&mut self, node: NodeId, to: ClusterId) -> Result<(), NowError> {
        if !self.registry.contains(node) {
            return Err(NowError::UnknownNode { node });
        }
        if !self.registry.contains_cluster(to) {
            return Err(NowError::UnknownCluster { cluster: to });
        }
        self.move_node(node, to);
        Ok(())
    }

    /// Public entry point to the cluster-local `randNum` primitive
    /// (ideal functionality; see [`crate::Malice`] for the compromised
    /// path). Used by applications — e.g. the sampling service draws a
    /// uniform member index with it.
    ///
    /// # Panics
    /// Panics if `cluster` is not live.
    pub fn rand_num(&mut self, cluster: ClusterId, range: u64) -> u64 {
        assert!(
            self.registry.contains_cluster(cluster),
            "rand_num: unknown cluster {cluster}"
        );
        self.rand_num_in(cluster, range, crate::malice::RandNumPurpose::Generic)
    }

    /// Deep consistency check used by tests after every operation:
    /// registry indexes ↔ clusters ↔ overlay ↔ walk table all agree,
    /// caches and counters are exact, and the ledger is span-balanced.
    pub fn check_consistency(&self) -> Result<(), String> {
        self.registry.check_invariants()?;
        for &cid in self.registry.cluster_ids() {
            if !self.overlay.contains(cid) {
                return Err(format!("cluster {cid} missing from overlay"));
            }
        }
        if self.overlay.vertex_count() != self.registry.cluster_count() {
            return Err(format!(
                "overlay has {} vertices but {} clusters exist",
                self.overlay.vertex_count(),
                self.registry.cluster_count()
            ));
        }
        if !self.ledger.is_balanced() {
            return Err("ledger has dangling spans".to_string());
        }
        self.overlay.check_invariants()?;
        if self.walks != WalkTable::build(&self.params, &self.overlay, &self.registry) {
            return Err("walk table differs from one derived now".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, 80, 0.2, seed)
    }

    #[test]
    fn init_fast_produces_consistent_system() {
        let sys = small_system(1);
        sys.check_consistency().unwrap();
        assert_eq!(sys.population(), 80);
        assert_eq!(sys.byz_population(), 16);
        // target size 20 → 4 clusters of 20.
        assert_eq!(sys.cluster_count(), 4);
        for c in sys.clusters() {
            assert_eq!(c.size(), 20);
        }
    }

    #[test]
    fn init_accounts_discovery_and_clusterization() {
        let sys = small_system(2);
        let d = sys.ledger().stats(CostKind::Discovery);
        let c = sys.ledger().stats(CostKind::Clusterization);
        assert_eq!(d.count, 1);
        assert!(d.total_messages > 0);
        assert_eq!(c.count, 1);
        assert!(c.total_messages > 0);
    }

    #[test]
    fn init_with_explicit_corruption_respects_choice() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let mut corrupt = vec![false; 60];
        for flag in corrupt.iter_mut().take(10) {
            *flag = true;
        }
        let sys = NowSystem::init_with_corruption(params, &corrupt, 3);
        assert_eq!(sys.byz_population(), 10);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = small_system(7);
        let b = small_system(7);
        assert_eq!(a.node_ids(), b.node_ids());
        assert_eq!(a.cluster_ids(), b.cluster_ids());
        for id in a.cluster_ids() {
            assert_eq!(
                a.cluster(id).unwrap().member_slice(),
                b.cluster(id).unwrap().member_slice()
            );
        }
    }

    #[test]
    fn corruption_is_spread_not_concentrated() {
        // Random partition ⇒ no cluster should be byz-majority at init
        // for τ = 0.2 at these sizes (deterministic given the seed).
        let sys = small_system(4);
        for c in sys.clusters() {
            assert!(
                c.byz_fraction() < 0.5,
                "cluster {} starts at {}",
                c.id(),
                c.byz_fraction()
            );
        }
    }

    #[test]
    fn move_node_keeps_caches_exact() {
        let mut sys = small_system(5);
        let ids = sys.cluster_ids();
        let (a, b) = (ids[0], ids[1]);
        let node = sys.cluster(a).unwrap().member_at(0);
        sys.move_node(node, b);
        assert_eq!(sys.node_cluster(node).unwrap(), b);
        sys.check_consistency().unwrap();
        // Moving to the same cluster is a no-op.
        sys.move_node(node, b);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn detach_then_attach_roundtrip() {
        let mut sys = small_system(6);
        let node = sys.node_ids()[0];
        let home = sys.node_cluster(node).unwrap();
        let honest = sys.is_honest(node).unwrap();
        assert_eq!(sys.detach_node(node).unwrap(), honest);
        assert!(matches!(
            sys.node_cluster(node),
            Err(NowError::UnknownNode { .. })
        ));
        sys.registry.attach(node, honest, home);
        assert_eq!(sys.node_cluster(node).unwrap(), home);
        sys.check_consistency().unwrap();
    }

    #[test]
    fn rand_num_in_is_in_range_and_accounted() {
        let mut sys = small_system(8);
        let c = sys.cluster_ids()[0];
        let before = sys.ledger().stats(CostKind::RandNum);
        for _ in 0..32 {
            let v = sys.rand_num_in(c, 17, crate::malice::RandNumPurpose::Generic);
            assert!(v < 17);
        }
        let after = sys.ledger().stats(CostKind::RandNum);
        assert_eq!(after.count - before.count, 32);
        let size = sys.cluster(c).unwrap().size() as u64;
        assert_eq!(after.max_messages, 2 * size * (size - 1));
    }

    #[test]
    fn contact_cluster_is_live() {
        let mut sys = small_system(9);
        for _ in 0..10 {
            let c = sys.contact_cluster();
            assert!(sys.cluster(c).is_some());
        }
    }

    #[test]
    fn unknown_node_errors() {
        let sys = small_system(10);
        let ghost = NodeId::from_raw(10_000);
        assert!(matches!(
            sys.node_cluster(ghost),
            Err(NowError::UnknownNode { .. })
        ));
        assert!(matches!(
            sys.is_honest(ghost),
            Err(NowError::UnknownNode { .. })
        ));
    }

    #[test]
    fn debug_output_is_informative() {
        let sys = small_system(11);
        let dbg = format!("{sys:?}");
        assert!(dbg.contains("population"));
        assert!(dbg.contains("clusters"));
        assert!(dbg.contains("op_counts: (0, 0, 0, 0)"), "{dbg}");
    }
}
