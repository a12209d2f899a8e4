//! Dense undirected graph used for analysis snapshots.
//!
//! Vertices are `0..n`. The OVER overlay keeps its own keyed adjacency
//! (clusters come and go); for every *measurement* (expansion, degree
//! audit, walk statistics) it exports a dense snapshot into this type.
//! Neighbor sets are ordered (`BTreeSet`) so that iteration order — and
//! therefore every random walk driven by indexed neighbor choice — is
//! deterministic.

use std::collections::BTreeSet;

/// Simple undirected graph on vertices `0..n` without self-loops or
/// parallel edges.
///
/// # Example
/// ```
/// use now_graph::Graph;
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(1).collect::<Vec<_>>(), [0, 2]);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<BTreeSet<usize>>,
    edges: usize,
}

impl Graph {
    /// Creates an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Graph {
            adj: vec![BTreeSet::new(); n],
            edges: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge
    /// was new.
    ///
    /// # Panics
    /// Panics if `u == v` (self-loops are excluded by construction in the
    /// overlay: a cluster is trivially "linked" to itself) or if either
    /// endpoint is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) -> bool {
        assert!(u != v, "self-loop {u}-{v} not allowed");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "edge ({u},{v}) out of range for {} vertices",
            self.adj.len()
        );
        let inserted = self.adj[u].insert(v);
        if inserted {
            self.adj[v].insert(u);
            self.edges += 1;
        }
        inserted
    }

    /// Whether the edge `{u, v}` exists.
    #[cfg(test)]
    pub(crate) fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj.get(u).is_some_and(|s| s.contains(&v))
    }

    /// Degree of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Ordered neighbor set of `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().copied()
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|s| s.len()).max().unwrap_or(0)
    }

    /// Minimum degree over all vertices (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        self.adj.iter().map(|s| s.len()).min().unwrap_or(0)
    }

    /// Mean degree (`2m/n`; 0 for the empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.edges as f64 / self.adj.len() as f64
        }
    }

    /// All edges as `(u, v)` pairs with `u < v`, in lexicographic order.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edges);
        for (u, nbrs) in self.adj.iter().enumerate() {
            for &v in nbrs.iter() {
                if u < v {
                    out.push((u, v));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parallel_edges_are_rejected() {
        let mut g = Graph::new(4);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "parallel edge rejected");
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::new(2);
        g.add_edge(0, 5);
    }

    #[test]
    fn degree_stats() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
        assert!((g.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = Graph::new(0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.min_degree(), 0);
        assert_eq!(g.mean_degree(), 0.0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn edges_lists_each_once() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(0, 2);
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2)]);
    }

    proptest! {
        /// Handshake lemma: sum of degrees is twice the edge count, for
        /// arbitrary edge scripts (repeated edges included).
        #[test]
        fn handshake_lemma(script in proptest::collection::vec((0usize..12, 0usize..12), 0..200)) {
            let mut g = Graph::new(12);
            for (u, v) in script {
                if u != v { g.add_edge(u, v); }
            }
            let degree_sum: usize = (0..12).map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
            // Symmetry: u in N(v) iff v in N(u).
            for u in 0..12 {
                for v in g.neighbors(u) {
                    prop_assert!(g.has_edge(v, u));
                }
            }
        }
    }
}
