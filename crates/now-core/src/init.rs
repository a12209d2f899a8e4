//! The NOW initialization phase, genuinely executed (fidelity L0).
//!
//! Per §3.2 of the paper, initialization has two sub-phases, both run
//! here as real per-node protocols over the synchronous network — an
//! [`EventNet`] on the ideal link model, driven a round at a time:
//!
//! 1. **Network discovery** ([`discover`]): flooding over the bootstrap
//!    graph until every honest node knows every identity. Terminates
//!    within the diameter of the graph restricted to edges adjacent to
//!    at least one honest node; costs `O(n·e)` message units (each of
//!    the `n` identities crosses each edge at most once per direction).
//! 2. **Clusterization** ([`clusterize`]): a representative committee of
//!    logarithmic size agrees on a random seed (we run the *real*
//!    commit–reveal `randNum` of [`now_agreement`] among the committee),
//!    derives a uniformly random partition into clusters of about
//!    `k·logN` ([`crate::NowParams::initial_cluster_count`]), and
//!    broadcasts the assignment, which each node accepts from a
//!    majority of the committee.
//!
//! **Substitution note:** the paper elects the committee
//! with the Byzantine agreement of King et al. (`Õ(n√n)` messages),
//! which guarantees a > 2/3-honest committee against the
//! full-information adversary. We inherit that guarantee rather than
//! re-prove it: the simulator draws the committee uniformly (the
//! distribution \[19\] certifies) and *accounts* the `Õ(n√n)` election
//! cost, then executes everything downstream of the election for real.

use crate::error::NowError;
use crate::params::NowParams;
use crate::system::NowSystem;
use now_agreement::outcome::ByzPlan;
use now_agreement::rand_num::rand_num_commit_reveal;
use now_graph::sample::{sample_distinct, shuffle};
use now_graph::Graph;
use now_net::{ieee, CostKind, DetRng, EventNet, EventNetConfig, Ledger};
use std::collections::BTreeSet;

/// Result of the discovery flooding.
#[derive(Debug, Clone)]
pub struct DiscoveryOutcome {
    /// Per-port knowledge at quiescence (`known[p]` = ids `p` knows).
    pub known: Vec<BTreeSet<usize>>,
    /// Rounds until no honest node learned anything new.
    pub rounds: u64,
    /// Message units (identity × edge transmissions) — the paper's
    /// `O(n·e)` quantity.
    pub message_units: u64,
    /// Whether every honest node knows every identity.
    pub complete: bool,
}

/// Runs discovery flooding on `bootstrap` with the given Byzantine set
/// (worst case: Byzantine nodes never relay; they cannot forge ids).
/// Costs are recorded under [`CostKind::Discovery`].
pub fn discover(bootstrap: &Graph, byz: &BTreeSet<usize>, ledger: &mut Ledger) -> DiscoveryOutcome {
    let n = bootstrap.vertex_count();
    ledger.begin(CostKind::Discovery);
    let mut net: EventNet<Vec<u64>> = EventNet::new(n, EventNetConfig::ideal(), 0);
    let mut known: Vec<BTreeSet<usize>> = (0..n)
        .map(|p| {
            let mut s: BTreeSet<usize> = bootstrap.neighbors(p).collect();
            s.insert(p);
            s
        })
        .collect();
    let mut fresh: Vec<Vec<usize>> = known.iter().map(|s| s.iter().copied().collect()).collect();
    let mut units = 0u64;

    loop {
        // Send phase: honest nodes relay everything new.
        let mut sent_any = false;
        for (p, fresh_p) in fresh.iter_mut().enumerate() {
            if byz.contains(&p) || fresh_p.is_empty() {
                continue;
            }
            let packet: Vec<u64> = fresh_p.iter().map(|&id| id as u64).collect();
            for nb in bootstrap.neighbors(p) {
                units += packet.len() as u64;
                net.send(p, nb, packet.clone());
                sent_any = true;
            }
            fresh_p.clear();
        }
        if !sent_any {
            break;
        }
        // Receive phase.
        for (p, inbox) in net.round().into_iter().enumerate() {
            if byz.contains(&p) {
                continue;
            }
            for (_, packet) in inbox {
                for raw in packet {
                    let id = raw as usize;
                    if id < n && known[p].insert(id) {
                        fresh[p].push(id);
                    }
                }
            }
        }
    }

    let rounds = net.now();
    ledger.add_messages(units);
    ledger.add_rounds(rounds);
    ledger.end();

    let complete = (0..n)
        .filter(|p| !byz.contains(p))
        .all(|p| known[p].len() == n);
    DiscoveryOutcome {
        known,
        rounds,
        message_units: units,
        complete,
    }
}

/// Result of the clusterization sub-phase.
#[derive(Debug, Clone)]
pub struct ClusterizeOutcome {
    /// `assignment[p]` = index of the cluster port `p` belongs to.
    pub assignment: Vec<usize>,
    /// Number of clusters formed.
    pub cluster_count: usize,
    /// The committee ports.
    pub committee: Vec<usize>,
    /// The agreed random seed driving the partition.
    pub seed: u64,
}

/// The committee election's cost among `n` nodes: `⌈n^{3/2}·log₂ n⌉`
/// messages and `⌈log₂ n⌉` rounds (`log₂` of at least 2).
pub(crate) fn election_cost(n: usize) -> (u64, u64) {
    let log_n = ieee::log2(n.max(2) as f64);
    let messages = (ieee::pow(n as f64, 1.5) * log_n).ceil() as u64;
    (messages, ieee::ceil_log2(n as u64))
}

/// Runs the clusterization sub-phase among `n` ports with the given
/// Byzantine set: committee election (cost accounted per \[19\], outcome
/// inherited — see module docs), a *real* commit–reveal `randNum` among
/// the committee, a seed-driven random partition into `cluster_count`
/// clusters (callers pass [`crate::NowParams::initial_cluster_count`]),
/// and the assignment broadcast. Costs are recorded under
/// [`CostKind::Clusterization`].
///
/// # Panics
/// Panics if `n == 0` or `cluster_count ∉ 1..=n`.
pub fn clusterize(
    n: usize,
    byz: &BTreeSet<usize>,
    cluster_count: usize,
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> ClusterizeOutcome {
    assert!(n > 0, "clusterize needs nodes");
    assert!(
        (1..=n).contains(&cluster_count),
        "cluster count must lie in 1..=n"
    );
    ledger.begin(CostKind::Clusterization);

    // Committee election: uniform draw (distribution certified by the
    // substituted BA of [19]); its Õ(n√n) message cost is accounted.
    // The committee is as large as the smallest cluster it forms.
    let committee_size = n / cluster_count;
    let committee = sample_distinct(n, committee_size, rng);
    let (messages, rounds) = election_cost(n);
    ledger.add_messages(messages);
    ledger.add_rounds(rounds);

    // Committee-local ports for the real randNum run.
    let committee_byz: BTreeSet<usize> = committee
        .iter()
        .enumerate()
        .filter(|(_, &port)| byz.contains(&port))
        .map(|(local, _)| local)
        .collect();
    let result = rand_num_commit_reveal(
        committee.len(),
        u64::MAX,
        &committee_byz,
        ByzPlan::Silent,
        ledger,
        rng,
    );
    let seed = result
        .unanimous()
        .copied()
        .unwrap_or_else(|| result.decisions.values().next().copied().unwrap_or(0));

    // Seed-driven partition: every committee member derives the same
    // shuffle, so the assignment needs no further agreement.
    let mut order: Vec<usize> = (0..n).collect();
    let mut part_rng = DetRng::new(seed);
    shuffle(&mut order, &mut part_rng);
    let mut assignment = vec![0usize; n];
    for (pos, &port) in order.iter().enumerate() {
        assignment[port] = pos % cluster_count;
    }

    // Assignment broadcast: each committee member tells every node its
    // cluster and composition; receivers take the majority.
    ledger.add_messages(committee.len() as u64 * n as u64);
    ledger.add_rounds(2);

    ledger.end();
    ClusterizeOutcome {
        assignment,
        cluster_count,
        committee,
        seed,
    }
}

/// Full L0 initialization: discovery on `bootstrap`, clusterization, and
/// system construction. `corrupt[p]` is the adversary's choice for port
/// `p`. The resulting system's ledger carries the *measured* discovery
/// and clusterization costs.
///
/// # Errors
/// Returns [`NowError::BadParams`] if `bootstrap` is empty or
/// `corrupt.len()` does not match its vertex count.
pub fn init_discovered(
    params: NowParams,
    bootstrap: &Graph,
    corrupt: &[bool],
    seed: u64,
) -> Result<NowSystem, NowError> {
    let n = bootstrap.vertex_count();
    if n == 0 || corrupt.len() != n {
        return Err(NowError::BadParams {
            reason: format!(
                "bootstrap graph has {n} vertices but corruption vector has {}",
                corrupt.len()
            ),
        });
    }
    let byz: BTreeSet<usize> = (0..n).filter(|&p| corrupt[p]).collect();
    let mut ledger = Ledger::new();
    let mut rng = DetRng::new(seed);

    let discovery = discover(bootstrap, &byz, &mut ledger);
    if !discovery.complete {
        return Err(NowError::BadParams {
            reason: "discovery incomplete: honest nodes are not connected in the bootstrap graph"
                .to_string(),
        });
    }
    let cluster_count = params.initial_cluster_count(n);
    let outcome = clusterize(n, &byz, cluster_count, &mut ledger, &mut rng);

    // Build the system from the measured assignment.
    let mut sys =
        NowSystem::init_with_corruption(params, corrupt, seed.wrapping_mul(31).wrapping_add(7));
    // Replace the fast path's synthetic partition with the measured one:
    // rebuild memberships according to `outcome.assignment`.
    let node_ids = sys.node_ids();
    let cluster_ids = sys.cluster_ids();
    // INVARIANT: both partitions deal `n` nodes into
    // `initial_cluster_count(n)` clusters, so every assignment index
    // names a live cluster.
    assert_eq!(
        cluster_ids.len(),
        outcome.cluster_count,
        "one cluster-count rule"
    );
    for (port, &node) in node_ids.iter().enumerate() {
        let target = cluster_ids[outcome.assignment[port]];
        sys.move_node(node, target);
    }
    // Swap in the measured initialization ledger (the fast path's
    // synthetic init costs are replaced by the real ones).
    *sys.ledger_mut() = ledger;
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_graph::gen;
    use now_graph::traversal::{diameter, is_connected};
    use now_net::DetRng;

    fn er_bootstrap(n: usize, seed: u64) -> Graph {
        let mut rng = DetRng::new(seed);
        // Dense enough that the honest subgraph stays connected.
        gen::erdos_renyi(n, 0.2, &mut rng)
    }

    #[test]
    fn discovery_completes_on_connected_graph() {
        let g = er_bootstrap(60, 1);
        assert!(is_connected(&g));
        let mut ledger = Ledger::new();
        let out = discover(&g, &BTreeSet::new(), &mut ledger);
        assert!(out.complete);
        for k in &out.known {
            assert_eq!(k.len(), 60);
        }
    }

    #[test]
    fn discovery_rounds_bounded_by_diameter() {
        let g = er_bootstrap(80, 2);
        let d = diameter(&g).unwrap() as u64;
        let mut ledger = Ledger::new();
        let out = discover(&g, &BTreeSet::new(), &mut ledger);
        assert!(
            out.rounds <= d + 2,
            "rounds {} exceed diameter {} + 2",
            out.rounds,
            d
        );
    }

    #[test]
    fn discovery_units_scale_with_n_times_e() {
        let g = er_bootstrap(80, 3);
        let bound = 2 * g.vertex_count() as u64 * g.edge_count() as u64;
        let mut ledger = Ledger::new();
        let out = discover(&g, &BTreeSet::new(), &mut ledger);
        assert!(
            out.message_units <= bound,
            "units {} exceed 2·n·e = {bound}",
            out.message_units
        );
        // And at least every identity crossed some edges.
        assert!(out.message_units >= g.vertex_count() as u64);
        let s = ledger.stats(CostKind::Discovery);
        assert_eq!(s.total_messages, out.message_units);
    }

    #[test]
    fn discovery_with_silent_byzantines_still_completes() {
        // Dense ER: removing 20% of relays keeps the honest subgraph
        // connected (whp at this density).
        let g = er_bootstrap(80, 4);
        let byz: BTreeSet<usize> = (0..16).collect();
        let honest_sub = {
            let mut h = Graph::new(80);
            for (u, v) in g.edges() {
                if !byz.contains(&u) && !byz.contains(&v) {
                    h.add_edge(u, v);
                }
            }
            h
        };
        // Precondition of the paper's model: honest nodes connected.
        let honest_ports: Vec<usize> = (16..80).collect();
        let dist = now_graph::traversal::bfs_distances(&honest_sub, honest_ports[0]);
        assert!(honest_ports.iter().all(|&p| dist[p] != usize::MAX));

        let mut ledger = Ledger::new();
        let out = discover(&g, &byz, &mut ledger);
        assert!(out.complete, "honest nodes must still learn everyone");
    }

    #[test]
    fn discovery_incomplete_when_honest_cut() {
        // Path graph with a byzantine cut vertex in the middle.
        let g = gen::path(9);
        let byz: BTreeSet<usize> = [4].into_iter().collect();
        let mut ledger = Ledger::new();
        let out = discover(&g, &byz, &mut ledger);
        assert!(!out.complete, "silent cut vertex blocks flooding");
    }

    #[test]
    fn clusterize_partitions_evenly() {
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(5);
        let out = clusterize(100, &BTreeSet::new(), 5, &mut ledger, &mut rng);
        assert_eq!(out.cluster_count, 5);
        let mut sizes = vec![0usize; 5];
        for &a in &out.assignment {
            sizes[a] += 1;
        }
        assert!(sizes.iter().all(|&s| s == 20), "{sizes:?}");
        assert_eq!(out.committee.len(), 20);
        let s = ledger.stats(CostKind::Clusterization);
        assert_eq!(s.count, 1);
        assert!(s.total_messages > 0);
    }

    #[test]
    fn clusterize_is_deterministic_per_rng() {
        let mut l1 = Ledger::new();
        let mut l2 = Ledger::new();
        let a = clusterize(60, &BTreeSet::new(), 4, &mut l1, &mut DetRng::new(6));
        let b = clusterize(60, &BTreeSet::new(), 4, &mut l2, &mut DetRng::new(6));
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.seed, b.seed);
    }

    #[test]
    fn clusterize_with_byzantine_committee_members() {
        let mut ledger = Ledger::new();
        let mut rng = DetRng::new(7);
        let byz: BTreeSet<usize> = (0..20).collect(); // 20% of 100
        let out = clusterize(100, &byz, 5, &mut ledger, &mut rng);
        // Silent byzantine committee members cannot block the seed.
        assert_eq!(out.assignment.len(), 100);
        assert_eq!(out.cluster_count, 5);
    }

    #[test]
    fn init_discovered_builds_consistent_system() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let g = er_bootstrap(80, 8);
        let corrupt: Vec<bool> = (0..80).map(|i| i % 5 == 0).collect();
        let sys = init_discovered(params, &g, &corrupt, 9).unwrap();
        sys.check_consistency().unwrap();
        assert_eq!(sys.population(), 80);
        assert_eq!(sys.byz_population(), 16);
        // Measured costs present.
        assert!(sys.ledger().stats(CostKind::Discovery).total_messages > 0);
        assert!(sys.ledger().stats(CostKind::Clusterization).total_messages > 0);
    }

    #[test]
    fn init_discovered_rejects_mismatched_inputs() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let g = er_bootstrap(10, 10);
        let corrupt = vec![false; 5];
        assert!(init_discovered(params, &g, &corrupt, 1).is_err());
    }

    #[test]
    fn init_discovered_rejects_disconnected_bootstrap() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let mut g = Graph::new(40);
        g.add_edge(0, 1); // the rest are isolated
        let corrupt = vec![false; 40];
        let err = init_discovered(params, &g, &corrupt, 2).unwrap_err();
        assert!(err.to_string().contains("discovery incomplete"));
    }
}
