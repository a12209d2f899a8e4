//! Breadth-first traversal, connectivity, and distance utilities.
//!
//! The initialization phase of NOW needs the *diameter restricted to
//! edges adjacent to at least one honest node* (the discovery flooding
//! terminates within that many rounds); the tests here and in `now-core`
//! use these primitives to verify that bound.

use crate::graph::Graph;
use std::collections::VecDeque;

/// BFS distances from `start`; unreachable vertices get `usize::MAX`.
///
/// # Panics
/// Panics if `start` is out of range.
pub fn bfs_distances(g: &Graph, start: usize) -> Vec<usize> {
    assert!(start < g.vertex_count(), "start vertex out of range");
    let mut dist = vec![usize::MAX; g.vertex_count()];
    let mut queue = VecDeque::new();
    dist[start] = 0;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Whether the graph is connected (vacuously true for `n ≤ 1`).
pub fn is_connected(g: &Graph) -> bool {
    if g.vertex_count() <= 1 {
        return true;
    }
    let dist = bfs_distances(g, 0);
    dist.iter().all(|&d| d != usize::MAX)
}

/// Exact diameter via all-pairs BFS; `None` if the graph is disconnected
/// or empty.
pub fn diameter(g: &Graph) -> Option<usize> {
    let n = g.vertex_count();
    if n == 0 {
        return None;
    }
    let mut best = 0;
    for s in 0..n {
        let dist = bfs_distances(g, s);
        for &d in &dist {
            if d == usize::MAX {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use now_net::DetRng;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], usize::MAX);
        assert_eq!(d[3], usize::MAX);
    }

    #[test]
    fn connectivity_checks() {
        assert!(is_connected(&gen::ring(6)));
        assert!(is_connected(&Graph::new(1)));
        assert!(is_connected(&Graph::new(0)));
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameters_of_known_graphs() {
        assert_eq!(diameter(&gen::complete(5)), Some(1));
        assert_eq!(diameter(&gen::path(5)), Some(4));
        assert_eq!(diameter(&gen::ring(8)), Some(4));
        assert_eq!(diameter(&gen::star(7)), Some(2));
        let mut g = Graph::new(2);
        assert_eq!(diameter(&g), None, "disconnected");
        g.add_edge(0, 1);
        assert_eq!(diameter(&g), Some(1));
    }

    #[test]
    fn dense_er_is_connected_with_small_diameter() {
        let mut rng = DetRng::new(5);
        let g = gen::erdos_renyi(100, 0.15, &mut rng);
        assert!(is_connected(&g));
        let d = diameter(&g).unwrap();
        assert!(d <= 4, "ER(100, 0.15) should have tiny diameter, got {d}");
    }
}
