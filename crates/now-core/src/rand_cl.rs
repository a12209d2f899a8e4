//! `randCl` — size-biased cluster selection by continuous-time random
//! walk on the overlay.
//!
//! Per the paper's §3.1 footnote, a *biased CTRW* from cluster `Cᵢ` is a
//! sequence of CTRWs: at each hop the current cluster collaboratively
//! draws (via `randNum`) the next neighbor and the exponential holding
//! time; when the walk's duration expires at cluster `C`, it is accepted
//! with probability `|C| / max_C'|C'|`, otherwise a fresh CTRW starts
//! from there. The CTRW's uniform stationary law over vertices times the
//! size-biased acceptance yields the target distribution `(|C|/n)` —
//! i.e. a uniformly random *node*'s cluster.
//!
//! Byzantine influence: each hop's collective choices are
//! [`Kernel::draw`]s, so a cluster with ≥ 1/3 Byzantine members lets
//! the adversary steer the hop (and [`crate::Malice`] may redirect it
//! outright). Every hop is also a quorum-validated cluster-to-cluster
//! message, accounted as `|C|·|C'|` message units.
//!
//! Hot path: every join and every exchanged member performs this walk,
//! so one hop is two `randNum` draws, one `ln`, and two O(1) reads —
//! the current cluster's neighbor slice from the overlay and the next
//! cluster's size and Byzantine count from the [`StateView`], which is
//! a direct id → slot lookup on the live registry and on a planner
//! view alike. Nothing is booked per hop, and the walk is
//! monomorphised per state: a hop's costs stay in walk-local variables
//! ([`WalkBooks`] — its `randNum` leaves as a count, a message sum and
//! a peak, and its hand-off messages) and are settled into the ledger
//! once per walk ([`Ledger::leaves`], exactly that many leaf calls).
//! What every walk of an op shares — the CTRW duration and the
//! acceptance normaliser ([`WalkConstants`]) — is computed once per
//! [`Kernel`], so a walk's only libm call is its hops' `ln`. On a
//! `steady_*`-shaped system a hop's marginal cost is ≈ 12.6 ns: the
//! two draws' keystream is ≈ 2.4 ns (`DetRng` inlines to two buffered
//! words of a sixteen-block ChaCha12 refill, AVX-512 where the CPU has
//! it; no call is made on the draw path), the `ln` ≈ 6 ns, and range
//! scaling, the two reads and the tally the rest. A walk's fixed cost
//! in an op is ≈ 68 ns, and the constants alone cost ≈ 43 ns, which is
//! why they are not computed per walk.

use crate::cluster::ClusterSecurity;
use crate::kernel::{Kernel, StateView};
use crate::malice::RandNumPurpose;
use crate::params::{acceptance, NowParams};
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, CostKind, Ledger};

/// Diagnostics of one `randCl` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkTrace {
    /// Total hops across all component CTRWs.
    pub hops: u64,
    /// Number of rejected endpoints (walk restarts).
    pub restarts: u64,
    /// Hops that passed through a `randNum`-compromised cluster.
    pub compromised_hops: u64,
}

/// What every walk of one op shares: the CTRW duration and the
/// acceptance normaliser, both fixed by the overlay's vertex count and
/// the parameters; [`Kernel::new`] computes them once per kernel.
#[derive(Clone, Copy)]
pub(crate) struct WalkConstants {
    /// [`NowParams::ctrw_duration`] of the overlay.
    duration: f64,
    /// [`NowParams::max_cluster_size`], the size an endpoint is
    /// accepted against.
    max_cluster_size: usize,
}

impl WalkConstants {
    /// The constants of walks on an overlay of `vertices` clusters.
    pub(crate) fn new(params: &NowParams, vertices: usize) -> Self {
        WalkConstants {
            duration: params.ctrw_duration(vertices),
            max_cluster_size: params.max_cluster_size(),
        }
    }
}

/// A walk's costs, kept in walk-local variables and settled into the
/// ledger once, when the walk ends: its hand-off messages, and its
/// `randNum` leaves as a count, a sum and a peak
/// ([`Ledger::leaves`]). Nothing reads either before the walk's span
/// closes.
#[derive(Default)]
struct WalkBooks {
    /// The tallied leaves: how many, their summed cost, and their
    /// component-wise largest cost.
    count: u64,
    sum: Cost,
    peak: Cost,
    /// The hand-off messages and rounds.
    hops: Cost,
}

impl WalkBooks {
    #[inline]
    fn leaf(&mut self, cost: Cost) {
        self.count += 1;
        self.sum += cost;
        self.peak.messages = self.peak.messages.max(cost.messages);
        self.peak.rounds = self.peak.rounds.max(cost.rounds);
    }

    fn settle(self, ledger: &mut Ledger) {
        ledger.leaves(CostKind::RandNum, self.count, self.sum, self.peak);
        ledger.add(self.hops);
    }
}

impl<S: StateView> Kernel<'_, S> {
    /// `randCl` from cluster `start`: the selected cluster and the walk
    /// diagnostics. Costs are recorded under [`CostKind::RandCl`]
    /// (inclusive of the per-hop `randNum`s).
    ///
    /// Membership and overlay are immutable while a walk runs, so the
    /// walk borrows neighbor slices and reads cluster sizes in place;
    /// the size and security of the cluster it stands on carry over from
    /// the hop that reached it.
    pub(crate) fn rand_cl(&mut self, start: ClusterId) -> (ClusterId, WalkTrace) {
        self.ledger.begin(CostKind::RandCl);
        let mut books = WalkBooks::default();
        let (end, trace) = self.walk(start, &mut books);
        books.settle(self.ledger);
        self.ledger.end();
        (end, trace)
    }

    /// [`Kernel::draw`], with the leaf booked on the walk's `books`.
    #[inline]
    fn walk_draw(
        &mut self,
        books: &mut WalkBooks,
        c: ClusterId,
        range: u64,
        purpose: RandNumPurpose,
        at: ClusterSecurity,
    ) -> u64 {
        books.leaf(at.rand_num_cost());
        self.draw_value(c, range, purpose, at)
    }

    fn walk(&mut self, start: ClusterId, books: &mut WalkBooks) -> (ClusterId, WalkTrace) {
        let mut trace = WalkTrace {
            hops: 0,
            restarts: 0,
            compromised_hops: 0,
        };
        // Copied out so neighbor slices outlive the `&mut self` draws.
        let overlay = self.overlay;
        let m = overlay.vertex_count();
        if m <= 1 {
            return (start, trace);
        }

        let WalkConstants {
            duration,
            max_cluster_size,
        } = self.walk_constants();
        let mut current = start;
        let mut here = self.security(start);
        // Resolution for fixed-point randomness drawn via randNum.
        const RES: u64 = 1 << 24;

        // Hard per-invocation hop cap: compromised clusters can rush
        // their holding times to ~0 (see `Malice`), so a Byzantine-dense
        // region could otherwise bounce a walk indefinitely without
        // consuming walk-time. Honest walks use ~log²m hops; the cap is
        // far above that and only binds under heavy compromise.
        let hop_cap = 2_000 + 200 * (m as u64);
        for _restart in 0..=self.params.max_walk_restarts() {
            let mut remaining = duration;
            // One CTRW.
            loop {
                if trace.hops >= hop_cap {
                    return (current, trace);
                }
                let nbrs = overlay.neighbors(current);
                let degree = nbrs.len();
                if degree == 0 {
                    break; // isolated vertex absorbs the walk
                }
                // Collaborative holding time: Exp(degree), derived from a
                // randNum draw (compromised clusters control it).
                let u = self.walk_draw(books, current, RES, RandNumPurpose::WalkHoldingTime, here);
                let unit = (u as f64 + 1.0) / (RES as f64 + 1.0);
                let hold = -unit.ln() / degree as f64;
                if hold >= remaining {
                    break; // duration expires while sitting at `current`
                }
                remaining -= hold;
                // Collaborative neighbor choice.
                let idx = self.walk_draw(
                    books,
                    current,
                    degree as u64,
                    RandNumPurpose::WalkNeighborChoice,
                    here,
                ) as usize;
                // INVARIANT: `degree = nbrs.len() > 0` (checked above);
                // `min` clamps the drawn index into bounds.
                let mut next = nbrs[idx.min(degree - 1)];
                if !here.secure_plain {
                    trace.compromised_hops += 1;
                    if let Some(forced) = self.malice.walk_hop(nbrs, self.rng) {
                        if nbrs.contains(&forced) {
                            next = forced;
                        }
                    }
                }
                // Quorum-validated hand-off message C → C'.
                let there = self.security(next);
                books.hops += Cost {
                    messages: here.size * there.size,
                    rounds: 1,
                };
                trace.hops += 1;
                current = next;
                here = there;
            }
            // Size-biased acceptance at the endpoint.
            let p_accept = acceptance(here.size as usize, max_cluster_size);
            let draw = self.walk_draw(books, current, RES, RandNumPurpose::WalkAcceptance, here);
            if (draw as f64 + 0.5) / RES as f64 <= p_accept {
                return (current, trace);
            }
            trace.restarts += 1;
        }
        // Restart cap exhausted (never in the invariant regime; see
        // NowParams::max_walk_restarts) — accept the current endpoint.
        (current, trace)
    }
}

impl NowSystem {
    /// Runs `randCl` starting from cluster `start` on the live system;
    /// returns the selected cluster and the walk diagnostics.
    ///
    /// # Panics
    /// Panics if `start` is not a live cluster.
    pub fn rand_cl_from(&mut self, start: ClusterId) -> (ClusterId, WalkTrace) {
        assert!(
            self.registry.contains_cluster(start),
            "rand_cl_from: unknown cluster {start}"
        );
        self.kernel().rand_cl(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NowParams;
    use std::collections::BTreeMap;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    #[test]
    fn returns_live_cluster() {
        let mut sys = system(200, 1);
        let start = sys.cluster_ids()[0];
        for _ in 0..20 {
            let (c, _) = sys.rand_cl_from(start);
            assert!(sys.cluster(c).is_some());
        }
        sys.check_consistency().unwrap();
    }

    #[test]
    fn single_cluster_short_circuits() {
        let mut sys = system(20, 2); // one cluster
        assert_eq!(sys.cluster_count(), 1);
        let only = sys.cluster_ids()[0];
        let (c, trace) = sys.rand_cl_from(only);
        assert_eq!(c, only);
        assert_eq!(trace.hops, 0);
    }

    #[test]
    fn walk_costs_are_recorded() {
        let mut sys = system(200, 3);
        let start = sys.cluster_ids()[0];
        let before = sys.ledger().stats(CostKind::RandCl);
        let (_, trace) = sys.rand_cl_from(start);
        let after = sys.ledger().stats(CostKind::RandCl);
        assert_eq!(after.count - before.count, 1);
        assert!(trace.hops > 0, "multi-cluster walk should hop");
        assert!(after.total_messages > before.total_messages);
        // Rounds at least one per hop.
        assert!(after.total_rounds - before.total_rounds >= trace.hops);
    }

    #[test]
    fn walk_hop_count_tracks_log_squared() {
        let mut sys = system(400, 4);
        let start = sys.cluster_ids()[0];
        let m = sys.overlay().vertex_count();
        let log_m = ((m + 2) as f64).log2();
        let mut hops = 0u64;
        let mut restarts = 0u64;
        let trials = 30;
        for _ in 0..trials {
            let (_, t) = sys.rand_cl_from(start);
            hops += t.hops;
            restarts += t.restarts;
        }
        let mean_hops = hops as f64 / trials as f64;
        // Expected hops per accepted walk ≈ (1+restarts) · log²m; allow
        // a wide band.
        let per_walk = mean_hops / (1.0 + restarts as f64 / trials as f64);
        assert!(
            per_walk > 0.2 * log_m * log_m && per_walk < 5.0 * log_m * log_m,
            "hops/walk {per_walk} vs log²m {}",
            log_m * log_m
        );
    }

    /// Measures the TV distance between `randCl`'s endpoint frequencies
    /// and the size-biased law on one seeded system, plus the hit counts
    /// of the artificially enlarged/shrunken clusters.
    fn endpoint_tv_for_seed(seed: u64, trials: u64) -> (f64, u64, u64) {
        let mut sys = system(300, seed);
        // Make sizes unequal: move a chunk of members from one cluster
        // to another (bypassing ops; this is a distribution test).
        let ids = sys.cluster_ids();
        let (big, small) = (ids[0], ids[1]);
        for _ in 0..8 {
            let node = sys.cluster(small).unwrap().member_at(0);
            sys.move_node(node, big);
        }
        sys.check_consistency().unwrap();

        let start = ids[2 % ids.len()];
        let mut counts: BTreeMap<now_net::ClusterId, u64> = BTreeMap::new();
        for _ in 0..trials {
            let (c, _) = sys.rand_cl_from(start);
            *counts.entry(c).or_default() += 1;
        }
        let n = sys.population() as f64;
        let mut tv = 0.0;
        for id in sys.cluster_ids() {
            let expect = sys.cluster(id).unwrap().size() as f64 / n;
            let got = *counts.get(&id).unwrap_or(&0) as f64 / trials as f64;
            tv += (expect - got).abs();
        }
        tv /= 2.0;
        let big_hits = *counts.get(&big).unwrap_or(&0);
        let small_hits = *counts.get(&small).unwrap_or(&0);
        (tv, big_hits, small_hits)
    }

    /// The distribution headline: endpoint frequencies match cluster
    /// sizes, i.e. `randCl` samples a uniformly random *node*'s cluster.
    ///
    /// Asserted over a small seed *ensemble* rather than one pinned
    /// seed (see ROADMAP "statistical-test robustness"): the median TV
    /// distance must be comfortably small and even the worst seed must
    /// stay within the sampling-noise band, so a change to the vendored
    /// RNG stream cannot silently invalidate the test.
    #[test]
    fn endpoint_distribution_is_size_biased() {
        let mut tvs = Vec::new();
        let mut bias_ok = 0usize;
        let seeds = [5u64, 6, 7, 8, 9];
        for &seed in &seeds {
            let (tv, big_hits, small_hits) = endpoint_tv_for_seed(seed, 1200);
            tvs.push(tv);
            // The enlarged cluster should out-hit the shrunken one.
            if big_hits > small_hits {
                bias_ok += 1;
            }
        }
        tvs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = tvs[tvs.len() / 2];
        let worst = *tvs.last().unwrap();
        assert!(
            median < 0.08,
            "median TV distance from size-biased law: {median} (ensemble {tvs:?})"
        );
        assert!(
            worst < 0.14,
            "worst-seed TV distance: {worst} (ensemble {tvs:?})"
        );
        assert!(
            bias_ok >= seeds.len() - 1,
            "size bias absent on {}/{} seeds",
            seeds.len() - bias_ok,
            seeds.len()
        );
    }

    #[test]
    fn compromised_hops_are_flagged() {
        let mut sys = system(200, 6);
        // Corrupt one cluster past 1/3 by brute registry surgery:
        // detach honest members until the fraction crosses.
        let victim = sys.cluster_ids()[0];
        let mut moved = 0;
        while sys.cluster(victim).unwrap().rand_num_secure() {
            let honest_member = sys
                .cluster(victim)
                .unwrap()
                .member_vec()
                .into_iter()
                .find(|&m| sys.is_honest(m).unwrap())
                .expect("has honest members");
            let other = sys.cluster_ids()[1];
            sys.move_node(honest_member, other);
            moved += 1;
            assert!(moved < 100, "runaway");
        }
        sys.check_consistency().unwrap();
        // Many walks from the compromised cluster: its own hops count as
        // compromised.
        let mut compromised = 0u64;
        for _ in 0..20 {
            let (_, t) = sys.rand_cl_from(victim);
            compromised += t.compromised_hops;
        }
        assert!(
            compromised > 0,
            "walks through a compromised cluster must be flagged"
        );
    }

    /// A walk's books settle once, inside its span: on a fresh ledger,
    /// each of 200 walks leaves one `RandCl` span that holds everything
    /// booked, one round per hop on top of its draws' rounds, two draws
    /// per hop plus a holding-time and an acceptance draw per component
    /// CTRW, and a peak that is one cluster's `randNum` cost, not a sum —
    /// on a secure system, and on one whose start cluster the adversary
    /// holds past 1/3, where draws go through `Malice`. Cluster sizes
    /// differ, so a walk's leaves differ in cost.
    #[test]
    fn tallied_walks_settle_inside_their_span() {
        for polluted in [false, true] {
            let mut sys = system(300, 12);
            let ids = sys.cluster_ids();
            let shift = |sys: &mut NowSystem, from: ClusterId, to: ClusterId| {
                let honest = sys
                    .cluster(from)
                    .unwrap()
                    .members()
                    .find(|&m| sys.is_honest(m).unwrap())
                    .expect("has honest members");
                sys.move_node(honest, to);
            };
            // Sizes apart: honest members from the cluster with the
            // fewest Byzantine ones, which stays secure.
            let donor = sys
                .clusters()
                .skip(2)
                .min_by_key(|c| c.byz_count())
                .unwrap()
                .id();
            for _ in 0..6 {
                shift(&mut sys, donor, ids[1]);
            }
            while polluted && sys.cluster(ids[0]).unwrap().rand_num_secure() {
                shift(&mut sys, ids[0], ids[1]);
            }
            let secure = sys.clusters().filter(|c| c.rand_num_secure()).count();
            let compromised = if polluted { 1 } else { 0 };
            assert_eq!(secure + compromised, sys.cluster_count(), "setup");
            let draw_costs: Vec<u64> = sys
                .clusters()
                .map(|c| c.security(crate::params::SecurityMode::Plain))
                .map(|at| at.rand_num_cost().messages)
                .collect();

            let (mut restarts, mut compromised) = (0, 0);
            for i in 0..200 {
                *sys.ledger_mut() = Ledger::new();
                let start = ids[if i % 2 == 0 { 0 } else { i % ids.len() }];
                let (_, trace) = sys.rand_cl_from(start);
                restarts += trace.restarts;
                compromised += trace.compromised_hops;
                let l = sys.ledger();
                let (walk, draws) = (l.stats(CostKind::RandCl), l.stats(CostKind::RandNum));
                assert_eq!(walk.count, 1, "walk {i}");
                assert_eq!(walk.total_messages, l.total().messages, "walk {i}");
                assert_eq!(walk.total_rounds, l.total().rounds, "walk {i}");
                assert_eq!(walk.total_rounds - draws.total_rounds, trace.hops);
                let ctrws = trace.restarts + 1;
                assert_eq!(draws.count, 2 * trace.hops + 2 * ctrws, "walk {i}");
                assert!(draw_costs.contains(&draws.max_messages), "walk {i}");
            }
            assert!(restarts > 0, "restarts covered");
            assert_eq!(
                compromised > 0,
                polluted,
                "Malice path covered iff polluted"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown cluster")]
    fn unknown_start_panics() {
        let mut sys = system(100, 7);
        let ghost = now_net::ClusterId::from_raw(99_999);
        let _ = sys.rand_cl_from(ghost);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut sys = system(250, seed);
            let start = sys.cluster_ids()[0];
            let picks: Vec<u64> = (0..10).map(|_| sys.rand_cl_from(start).0.raw()).collect();
            picks
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9), "different seeds should differ");
    }
}
