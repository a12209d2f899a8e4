//! Shared protocol-outcome types, Byzantine plans, and correctness
//! checkers used by every agreement/broadcast implementation and its
//! tests.

use std::collections::BTreeMap;

/// What each Byzantine node does inside a protocol run.
///
/// These are the canonical attack shapes from the agreement literature;
/// every runner interprets them in its own message space. Equivocation
/// (sending different claims to different receivers) is the attack the
/// quorum rule and signature chains exist to defeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ByzPlan {
    /// Send nothing at all (crash-like, but chosen adversarially).
    Silent,
    /// Always claim this value, to everyone.
    ConstantValue(u64),
    /// Claim the first value to even ports and the second to odd ports.
    Equivocate(u64, u64),
    /// Claim fresh pseudo-random values (seeded by the runner's RNG).
    Random,
}

/// Result of a protocol execution.
///
/// `decisions` holds one entry per **honest** port (Byzantine "outputs"
/// are meaningless). Costs are measured from the network
/// (`now_net::EventNet`), so they reflect messages actually sent,
/// including Byzantine traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolResult<V> {
    /// Decision of each honest port.
    pub decisions: BTreeMap<usize, V>,
    /// Number of synchronous communication rounds used.
    pub rounds: u64,
    /// Number of point-to-point messages sent.
    pub messages: u64,
}

impl<V: PartialEq> ProtocolResult<V> {
    /// The common decision if all honest ports agree, else `None`.
    pub fn unanimous(&self) -> Option<&V> {
        let mut iter = self.decisions.values();
        let first = iter.next()?;
        if iter.all(|v| v == first) {
            Some(first)
        } else {
            None
        }
    }
}

/// Agreement property: every honest port decided the same value.
pub fn check_agreement<V: PartialEq>(result: &ProtocolResult<V>) -> bool {
    result.decisions.is_empty() || result.unanimous().is_some()
}

/// Validity property: if every honest port had the same input `v`, then
/// every honest port decided `v`.
///
/// `inputs[p]` is the input of port `p`; ports in `byz` are ignored.
pub fn check_validity<V: PartialEq + Copy>(
    inputs: &[V],
    byz: &std::collections::BTreeSet<usize>,
    result: &ProtocolResult<V>,
) -> bool {
    let honest_inputs: Vec<V> = inputs
        .iter()
        .enumerate()
        .filter(|(p, _)| !byz.contains(p))
        .map(|(_, v)| *v)
        .collect();
    let Some(&first) = honest_inputs.first() else {
        return true;
    };
    if !honest_inputs.iter().all(|v| *v == first) {
        return true; // precondition not met: vacuously valid
    }
    result.decisions.values().all(|v| *v == first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn result_of(pairs: &[(usize, u64)]) -> ProtocolResult<u64> {
        ProtocolResult {
            decisions: pairs.iter().copied().collect(),
            rounds: 1,
            messages: 0,
        }
    }

    #[test]
    fn unanimous_detects_agreement() {
        assert_eq!(result_of(&[(0, 5), (1, 5)]).unanimous(), Some(&5));
        assert_eq!(result_of(&[(0, 5), (1, 6)]).unanimous(), None);
        assert_eq!(result_of(&[]).unanimous(), None);
    }

    #[test]
    fn agreement_checker() {
        assert!(check_agreement(&result_of(&[(0, 1), (2, 1)])));
        assert!(!check_agreement(&result_of(&[(0, 1), (2, 2)])));
        assert!(check_agreement(&result_of(&[])), "vacuous");
    }

    #[test]
    fn validity_checker_happy_path() {
        let byz: BTreeSet<usize> = [1].into_iter().collect();
        let inputs = vec![7u64, 9, 7];
        let good = result_of(&[(0, 7), (2, 7)]);
        assert!(check_validity(&inputs, &byz, &good));
        let bad = result_of(&[(0, 7), (2, 8)]);
        assert!(!check_validity(&inputs, &byz, &bad));
    }

    #[test]
    fn validity_vacuous_when_honest_inputs_differ() {
        let byz = BTreeSet::new();
        let inputs = vec![1u64, 2];
        let any = result_of(&[(0, 9), (1, 9)]);
        assert!(check_validity(&inputs, &byz, &any));
    }
}
