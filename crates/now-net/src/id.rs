//! Node and cluster identities.
//!
//! The paper assigns every node a unique, unforgeable identifier. In the
//! simulator, identity is enforced structurally: a [`NodeId`] can only be
//! minted by an [`IdGen`], and message envelopes are stamped by the
//! network ([`crate::EventNet`]) with the true sender, so Byzantine
//! nodes cannot impersonate others.

use std::fmt;

/// Unique identifier of a node (process) in the network.
///
/// Node ids are never reused, even after the node leaves: the adversary's
/// join–leave attack relies on being *recognized* as a fresh node, and the
/// analysis assumes fresh identities per join.
///
/// # Example
/// ```
/// use now_net::IdGen;
/// let mut gen = IdGen::new();
/// let a = gen.node();
/// let b = gen.node();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u64);

impl NodeId {
    /// Raw numeric value (stable within a run; used for indexing/sorting).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Constructs a `NodeId` from a raw value.
    ///
    /// Intended for tests and deserialization of recorded runs; protocol
    /// code should mint ids through [`IdGen`].
    pub fn from_raw(raw: u64) -> Self {
        NodeId(raw)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Unique identifier of a cluster (a vertex of the OVER overlay graph).
///
/// Cluster ids are minted at clusterization and at `split`; they are
/// retired at `merge`. Like node ids they are never reused within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClusterId(u64);

impl ClusterId {
    /// Raw numeric value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Constructs a `ClusterId` from a raw value (tests / replay).
    pub fn from_raw(raw: u64) -> Self {
        ClusterId(raw)
    }
}

impl fmt::Debug for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Monotone id factory for nodes and clusters.
///
/// One `IdGen` per simulated system guarantees global uniqueness.
#[derive(Debug, Clone, Default)]
pub struct IdGen {
    next_node: u64,
    next_cluster: u64,
}

impl IdGen {
    /// Creates a factory starting at zero for both id spaces.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mints a fresh, never-before-issued node id.
    pub fn node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        id
    }

    /// Mints a fresh cluster id.
    pub fn cluster(&mut self) -> ClusterId {
        let id = ClusterId(self.next_cluster);
        self.next_cluster += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn node_ids_unique_and_monotone() {
        let mut gen = IdGen::new();
        let ids: Vec<NodeId> = (0..100).map(|_| gen.node()).collect();
        let set: BTreeSet<_> = ids.iter().copied().collect();
        assert_eq!(set.len(), 100);
        for w in ids.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(gen.node().raw(), 100);
    }

    #[test]
    fn cluster_ids_independent_of_node_ids() {
        let mut gen = IdGen::new();
        let n = gen.node();
        let c = gen.cluster();
        assert_eq!(n.raw(), 0);
        assert_eq!(c.raw(), 0);
        assert_eq!(gen.cluster().raw(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_raw(7).to_string(), "n7");
        assert_eq!(ClusterId::from_raw(3).to_string(), "C3");
        assert_eq!(format!("{:?}", NodeId::from_raw(7)), "n7");
    }

    #[test]
    fn ids_roundtrip_raw() {
        let n = NodeId::from_raw(42);
        assert_eq!(NodeId::from_raw(n.raw()), n);
        let c = ClusterId::from_raw(42);
        assert_eq!(ClusterId::from_raw(c.raw()), c);
    }
}
