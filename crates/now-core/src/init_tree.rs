//! Sub-quadratic initialization — the concluding-remark open problem.
//!
//! §6 of the paper: *"Another objective is to devise a procedure for the
//! initialization phase of NOW whose communication cost is o(n²_t0) (as
//! opposed to O(n³_t0))."* This module implements a candidate and
//! measures it (experiment X-INIT2); it is an **extension**, not part of
//! the published protocol.
//!
//! The flooding discovery of [`crate::init`] gives every node global
//! knowledge — necessarily `Ω(n²)` identity-units, since `n` nodes each
//! receive `n − 1` identities. The way below that bound is to drop the
//! *every node* requirement: only a logarithmic **committee** needs
//! global knowledge; ordinary nodes only ever learn their own cluster
//! and its overlay neighborhood (`polylog(N)` identities — exactly the
//! steady-state view NOW maintains anyway).
//!
//! The candidate:
//!
//! 1. **Committee sampling** — a committee of `Θ(logN)` nodes, drawn
//!    uniformly (the honest-majority guarantee is inherited from the
//!    same substituted agreement as in [`crate::init`]; the sampling
//!    cost of the random walks is accounted).
//! 2. **Redundant tree convergecast** ([`tree_discover`]) — each
//!    committee member roots a BFS spanning tree of the bootstrap
//!    graph; identities convergecast up each tree (`O(n·depth)` units
//!    per tree on an expander-like bootstrap, `depth = O(log n)`).
//!    Byzantine interior nodes can *suppress* their subtree (identities
//!    cannot be forged, so suppression is the whole attack); the
//!    committee accepts an identity reported in **more than half** of
//!    the trees. Completeness is therefore probabilistic — measured,
//!    not proved (this is why the problem is open).
//! 3. **Seed agreement + partition** — the committee runs the real
//!    commit–reveal `randNum` and derives the partition, as in
//!    [`crate::init::clusterize`].
//! 4. **Scoped dissemination** — each node receives only its own
//!    cluster's composition and its overlay neighborhood along its tree
//!    paths: `O(polylog)` units per node, `O(n·polylog)` total.
//!
//! Total: `O(n·polylog(n))` message units versus flooding's `O(n·e)`
//! (which is `Ω(n²·polylog)` on the bootstrap densities that keep the
//! honest subgraph connected). Experiment X-INIT2 fits the exponents
//! and charts the completeness/τ/redundancy trade-off.

use crate::error::NowError;
use crate::params::NowParams;
use crate::system::NowSystem;
use now_agreement::outcome::ByzPlan;
use now_agreement::rand_num::rand_num_commit_reveal;
use now_graph::sample::sample_distinct;
use now_graph::Graph;
use now_net::{ieee, CostKind, DetRng, Ledger};
use std::collections::BTreeSet;

/// Result of the redundant tree convergecast ([`tree_discover`]).
#[derive(Debug, Clone)]
pub struct TreeDiscoveryOutcome {
    /// Identity sets gathered by each tree's root, in root order.
    pub per_tree: Vec<BTreeSet<usize>>,
    /// Identities accepted by the per-id majority vote over trees.
    pub accepted: BTreeSet<usize>,
    /// Convergecast rounds (the deepest tree's depth).
    pub rounds: u64,
    /// Identity-units transmitted (the `o(n²)` quantity under test).
    pub message_units: u64,
    /// Whether `accepted` contains every identity in the graph.
    pub complete: bool,
}

/// BFS parent array of `g` rooted at `root` (`parent[root] = root`;
/// unreachable vertices get `usize::MAX`).
///
/// Neighbor exploration order is randomized per call: with a fixed
/// order, the trees rooted at different committee members route
/// through the *same* parents (BFS always picks the first-listed
/// neighbor), so one Byzantine interior would suppress the same victim
/// in every tree and the majority vote would never help. Randomized
/// exploration decorrelates the per-tree path-sets — each node's
/// survival events become close to independent across trees, which is
/// what the redundancy argument needs.
fn bfs_parents(g: &Graph, root: usize, rng: &mut DetRng) -> Vec<usize> {
    let n = g.vertex_count();
    let mut parent = vec![usize::MAX; n];
    let mut queue = std::collections::VecDeque::new();
    parent[root] = root;
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let mut nbrs: Vec<usize> = g.neighbors(u).collect();
        now_graph::sample::shuffle(&mut nbrs, rng);
        for v in nbrs {
            if parent[v] == usize::MAX {
                parent[v] = u;
                queue.push_back(v);
            }
        }
    }
    parent
}

/// Runs the redundant spanning-tree discovery on `bootstrap` with one
/// tree per entry of `roots`. Byzantine nodes (per `byz`) suppress
/// their entire subtree in every tree they are interior to, forwarding
/// only their own identity (the worst case: identities cannot be
/// forged, so omission is the only attack, and omitting *itself* would
/// merely exclude the node from the partition); a Byzantine *root*
/// reports nothing. An identity is accepted when strictly more than
/// half of the trees deliver it.
///
/// Costs land under [`CostKind::Discovery`]. `rng` randomizes each
/// tree's exploration order (see `bfs_parents` — correlated trees would
/// defeat the majority vote).
///
/// # Panics
/// Panics if `roots` is empty or any root is out of range.
pub fn tree_discover(
    bootstrap: &Graph,
    byz: &BTreeSet<usize>,
    roots: &[usize],
    ledger: &mut Ledger,
    rng: &mut DetRng,
) -> TreeDiscoveryOutcome {
    assert!(!roots.is_empty(), "tree discovery needs at least one root");
    let n = bootstrap.vertex_count();
    assert!(roots.iter().all(|&r| r < n), "root out of range");
    ledger.begin(CostKind::Discovery);

    let mut per_tree = Vec::with_capacity(roots.len());
    let mut units = 0u64;
    let mut max_depth = 0u64;

    for &root in roots {
        let parent = bfs_parents(bootstrap, root, rng);
        // Depth ordering for the convergecast: children report before
        // parents.
        let mut depth = vec![usize::MAX; n];
        let mut order: Vec<usize> = Vec::with_capacity(n);
        for v in 0..n {
            if parent[v] == usize::MAX {
                continue;
            }
            let mut d = 0usize;
            let mut cur = v;
            while parent[cur] != cur {
                cur = parent[cur];
                d += 1;
            }
            depth[v] = d;
            order.push(v);
        }
        order.sort_by(|&a, &b| depth[b].cmp(&depth[a]));
        max_depth = max_depth.max(order.iter().map(|&v| depth[v] as u64).max().unwrap_or(0));

        // Convergecast: each honest node forwards its id plus everything
        // its children delivered. A Byzantine interior node swallows its
        // subtree's reports but forwards its *own* id — omitting itself
        // would only get itself excluded from the partition, so the
        // worst case for the protocol is suppression of everyone below.
        let mut gathered: Vec<BTreeSet<usize>> = (0..n).map(|v| BTreeSet::from([v])).collect();
        for &v in &order {
            if v == root {
                continue;
            }
            let packet = if byz.contains(&v) {
                BTreeSet::from([v])
            } else {
                gathered[v].clone()
            };
            units += packet.len() as u64;
            gathered[parent[v]].extend(packet);
        }
        let report = if byz.contains(&root) {
            BTreeSet::new()
        } else {
            std::mem::take(&mut gathered[root])
        };
        per_tree.push(report);
    }

    // Per-identity majority vote across trees.
    let mut votes = vec![0usize; n];
    for report in &per_tree {
        for &id in report {
            votes[id] += 1;
        }
    }
    let accepted: BTreeSet<usize> = (0..n).filter(|&v| 2 * votes[v] > roots.len()).collect();
    // Cross-checking among the roots: each pair exchanges its (hashed)
    // report once.
    let t = roots.len() as u64;
    units += t * (t - 1);

    ledger.add_messages(units);
    ledger.add_rounds(max_depth + 2);
    ledger.end();

    let complete = accepted.len() == n;
    TreeDiscoveryOutcome {
        per_tree,
        accepted,
        rounds: max_depth + 2,
        message_units: units,
        complete,
    }
}

/// What sampling a committee of `committee_size` among `n` nodes by
/// walks costs: `⌈committee_size·log₂² n⌉` messages and `⌈log₂² n⌉`
/// rounds (`log₂` of at least 2).
pub(crate) fn committee_walk_cost(n: usize, committee_size: usize) -> (u64, u64) {
    let log_n = ieee::log2(n.max(2) as f64);
    let rounds = log_n * log_n;
    (
        (committee_size as f64 * rounds).ceil() as u64,
        rounds.ceil() as u64,
    )
}

/// Full sub-quadratic initialization: committee sampling, redundant
/// tree discovery with `trees` spanning trees, committee `randNum`,
/// seed-driven partition, and *scoped* dissemination (each node learns
/// only its cluster and overlay neighborhood).
///
/// Returns the constructed system; its ledger carries the measured
/// costs ([`CostKind::Discovery`] / [`CostKind::Clusterization`]).
///
/// # Errors
/// * [`NowError::BadParams`] if the inputs are inconsistent (empty
///   graph, mismatched corruption vector, zero trees).
/// * [`NowError::BadParams`] with reason `"tree discovery incomplete"`
///   if suppression defeated the majority vote — the caller may retry
///   with more trees (the trade-off X-INIT2 charts).
pub fn init_tree_discovered(
    params: NowParams,
    bootstrap: &Graph,
    corrupt: &[bool],
    trees: usize,
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
    if trees == 0 {
        return Err(NowError::BadParams {
            reason: "tree discovery needs at least one tree".to_string(),
        });
    }
    let byz: BTreeSet<usize> = (0..n).filter(|&p| corrupt[p]).collect();
    let mut ledger = Ledger::new();
    let mut rng = DetRng::new(seed);

    // Committee sampling: uniform draw (honest-majority distribution
    // inherited as in `crate::init`); the walk cost is polylog per
    // member instead of the flooding/election costs.
    let committee_size = params.target_cluster_size().min(n).max(trees);
    let committee = sample_distinct(n, committee_size, &mut rng);
    let (messages, rounds) = committee_walk_cost(n, committee_size);
    ledger.begin(CostKind::Clusterization);
    ledger.add_messages(messages);
    ledger.add_rounds(rounds);
    ledger.end();

    // Redundant tree discovery rooted at the first `trees` committee
    // members.
    let roots: Vec<usize> = committee.iter().copied().take(trees).collect();
    let discovery = tree_discover(bootstrap, &byz, &roots, &mut ledger, &mut rng);
    if !discovery.complete {
        return Err(NowError::BadParams {
            reason: format!(
                "tree discovery incomplete: {} of {n} identities accepted (suppression won; \
                 retry with more trees)",
                discovery.accepted.len()
            ),
        });
    }

    // Committee seed agreement (real commit–reveal) + partition.
    ledger.begin(CostKind::Clusterization);
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
        &mut ledger,
        &mut rng,
    );
    let part_seed = result
        .unanimous()
        .copied()
        .unwrap_or_else(|| result.decisions.values().next().copied().unwrap_or(0));

    // Scoped dissemination: each node receives its cluster's
    // composition plus the neighboring clusters' (≈ degree+1 cluster
    // rosters of k·logN ids) along a tree path of ≤ depth hops.
    let target = params.target_cluster_size() as u64;
    let degree = params.over().target_degree() as u64;
    let depth = discovery.rounds.max(1);
    ledger.add_messages(n as u64 * target * (degree + 1) * depth / 2);
    ledger.add_rounds(depth);
    ledger.end();

    // Build the system from the seed-driven partition (same procedure
    // as the flooding path: permutation + contiguous blocks).
    let mut sys = NowSystem::init_with_corruption(
        params,
        corrupt,
        part_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    *sys.ledger_mut() = ledger;
    Ok(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_graph::gen;

    fn er_bootstrap(n: usize, seed: u64) -> Graph {
        let mut rng = DetRng::new(seed);
        gen::erdos_renyi(n, 0.2, &mut rng)
    }

    #[test]
    fn honest_tree_discovery_is_complete() {
        let g = er_bootstrap(60, 1);
        let mut ledger = Ledger::new();
        let out = tree_discover(
            &g,
            &BTreeSet::new(),
            &[0, 7, 13],
            &mut ledger,
            &mut DetRng::new(11),
        );
        assert!(out.complete);
        assert_eq!(out.accepted.len(), 60);
        for report in &out.per_tree {
            assert_eq!(report.len(), 60, "each honest root gathers everyone");
        }
    }

    #[test]
    fn tree_discovery_is_subquadratic_on_expanders() {
        // ER at this density has O(log n) depth, so units ≈ n·log n per
        // tree — far below the n²/4 of a flooding lower bound.
        let g = er_bootstrap(200, 2);
        let mut ledger = Ledger::new();
        let out = tree_discover(
            &g,
            &BTreeSet::new(),
            &[0, 1, 2],
            &mut ledger,
            &mut DetRng::new(12),
        );
        assert!(out.complete);
        let n = 200u64;
        assert!(
            out.message_units < n * n / 2,
            "units {} should be o(n²) = o({})",
            out.message_units,
            n * n
        );
    }

    #[test]
    fn byzantine_suppression_loses_to_redundancy() {
        // A node is suppressed when its tree path runs through a
        // Byzantine interior in a *majority* of trees; redundancy
        // drives that probability down. Compare 1 tree vs 9 trees
        // under the same two suppressors.
        let g = er_bootstrap(80, 3);
        let byz: BTreeSet<usize> = [5, 11].into_iter().collect();
        let mut l1 = Ledger::new();
        let single = tree_discover(&g, &byz, &[0], &mut l1, &mut DetRng::new(13));
        let mut l9 = Ledger::new();
        let nine = tree_discover(
            &g,
            &byz,
            &[0, 1, 2, 3, 4, 6, 7, 8, 9],
            &mut l9,
            &mut DetRng::new(14),
        );
        assert!(
            nine.accepted.len() >= single.accepted.len(),
            "redundancy must not hurt: {} vs {}",
            nine.accepted.len(),
            single.accepted.len()
        );
        assert!(
            nine.complete,
            "9-tree majority must survive 2 suppressors at this density: {} of 80",
            nine.accepted.len()
        );
    }

    #[test]
    fn byzantine_root_contributes_nothing() {
        let g = er_bootstrap(40, 4);
        let byz: BTreeSet<usize> = [0].into_iter().collect();
        let mut ledger = Ledger::new();
        let out = tree_discover(&g, &byz, &[0, 1, 2], &mut ledger, &mut DetRng::new(15));
        assert!(out.per_tree[0].is_empty(), "byz root reports nothing");
        assert!(!out.per_tree[1].is_empty());
    }

    #[test]
    fn single_tree_with_byz_cut_is_incomplete() {
        // Path graph: a silent middle vertex suppresses half the line in
        // the single tree rooted at one end.
        let g = gen::path(9);
        let byz: BTreeSet<usize> = [4].into_iter().collect();
        let mut ledger = Ledger::new();
        let out = tree_discover(&g, &byz, &[0], &mut ledger, &mut DetRng::new(16));
        assert!(!out.complete);
        assert!(out.accepted.len() < 9);
    }

    #[test]
    fn init_tree_discovered_builds_consistent_system() {
        // 10% corruption with 9-fold redundancy usually completes; a
        // node whose *neighborhood* is Byzantine-heavy can still lose
        // the per-id vote, in which case the documented retry path
        // (more trees, fresh randomized traversals) is the remedy —
        // exercised here exactly as a caller would.
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let g = er_bootstrap(80, 5);
        let corrupt: Vec<bool> = (0..80).map(|i| i % 10 == 0).collect();
        let sys = (0..4)
            .find_map(|attempt| {
                init_tree_discovered(params, &g, &corrupt, 9 + 4 * attempt, 6 + attempt as u64).ok()
            })
            .expect("some retry with more trees completes");
        sys.check_consistency().unwrap();
        assert_eq!(sys.population(), 80);
        assert_eq!(sys.byz_population(), 8);
        assert!(sys.ledger().stats(CostKind::Discovery).total_messages > 0);
        assert!(sys.ledger().stats(CostKind::Clusterization).total_messages > 0);
    }

    #[test]
    fn tree_init_is_cheaper_than_flooding_at_scale() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let n = 300usize;
        let g = er_bootstrap(n, 7);
        let corrupt = vec![false; n];
        let flood = crate::init::init_discovered(params, &g, &corrupt, 8).unwrap();
        let tree = init_tree_discovered(params, &g, &corrupt, 5, 8).unwrap();
        let flood_units = flood.ledger().stats(CostKind::Discovery).total_messages;
        let tree_units = tree.ledger().stats(CostKind::Discovery).total_messages;
        assert!(
            tree_units * 10 < flood_units,
            "tree {tree_units} should be ≪ flooding {flood_units}"
        );
    }

    #[test]
    fn init_tree_rejects_bad_inputs() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let g = er_bootstrap(10, 9);
        assert!(init_tree_discovered(params, &g, &[false; 5], 3, 1).is_err());
        assert!(init_tree_discovered(params, &g, &[false; 10], 0, 1).is_err());
    }

    #[test]
    fn incomplete_discovery_reports_retry_hint() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let g = gen::path(20);
        let mut corrupt = vec![false; 20];
        corrupt[10] = true; // cut vertex
        let err = init_tree_discovered(params, &g, &corrupt, 1, 333).unwrap_err();
        assert!(err.to_string().contains("incomplete"));
    }

    #[test]
    #[should_panic(expected = "at least one root")]
    fn tree_discover_rejects_empty_roots() {
        let g = er_bootstrap(10, 10);
        let mut ledger = Ledger::new();
        let _ = tree_discover(&g, &BTreeSet::new(), &[], &mut ledger, &mut DetRng::new(17));
    }
}
