//! The inter-cluster quorum threshold.
//!
//! From the paper (§3.2): *"a node receiving a message from all the
//! nodes of a particular cluster considers this message valid if and
//! only if it receives the same message from more than half of the nodes
//! of this cluster."* Together with every cluster having more than two
//! thirds honest members, this rule is what makes clusters usable as
//! reliable super-nodes. No run applies the rule to a batch of votes,
//! so what is kept here is its threshold.
//!
//! The rule's two failure thresholds structure the whole audit story:
//! * Byzantine ≥ 1/3 of a cluster → `randNum` can be biased (the
//!   threshold `now_core`'s `SecurityMode::rand_num_secure` applies to
//!   every draw the simulator makes);
//! * Byzantine > 1/2 of a cluster → the adversary alone clears the
//!   quorum and can forge arbitrary cluster messages
//!   ([`forgery_possible`]).

/// Whether a cluster with `byz` Byzantine members out of `size` can have
/// messages forged in its name (the adversary alone clears `> size/2`).
pub fn forgery_possible(byz: usize, size: usize) -> bool {
    byz >= size / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forgery_threshold_boundaries() {
        assert!(!forgery_possible(0, 1));
        assert!(forgery_possible(1, 1));
        assert!(!forgery_possible(1, 3));
        assert!(forgery_possible(2, 3));
        assert!(forgery_possible(3, 5));
        assert!(!forgery_possible(2, 5));
        assert!(!forgery_possible(5, 10));
        assert!(forgery_possible(6, 10));
    }
}
