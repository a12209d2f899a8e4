//! The adversary's in-protocol leverage.
//!
//! The static adversary corrupts nodes; what those nodes can *do* inside
//! the protocol is bounded by cluster composition:
//!
//! * Byzantine ≥ 1/3 of a cluster ⇒ `randNum` there is compromised, so
//!   the adversary steers every choice that cluster makes
//!   collaboratively — walk hops, exchange victims, split partitions.
//! * Byzantine > 1/2 ⇒ the cluster's outgoing messages can be forged
//!   outright (the quorum rule is cleared by the adversary alone).
//!
//! [`Malice`] is the hook the system consults at those moments. In the
//! Theorem-3 regime the hooks are never reachable (no cluster crosses
//! 1/3 whp) — the audits check exactly that — but the *baselines*
//! (no-shuffle clustering) and the attack experiments rely on them.
//!
//! `now-adversary` provides strategic implementations; [`NoMalice`] is
//! the neutral default (uniformly random choices, i.e. a compromised
//! cluster that happens not to coordinate).

use now_net::{ClusterId, DetRng, NodeId};
use rand::Rng;

/// What a `randNum` invocation is *for* — a strategic adversary plays
/// each purpose differently (e.g. it accepts walks that end at its
/// target cluster and rejects them elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandNumPurpose {
    /// One hop of a non-backtracking walk: a draw over the neighbours
    /// the walk may take, in ascending id order but for the one it came
    /// from, whose place the last of them takes (clamped to the last).
    /// At a compromised cluster [`Malice::walk_hop`] may override it.
    WalkHop,
    /// The size-biased acceptance test at a walk endpoint (small draws
    /// accept, large draws reject and restart the walk).
    WalkAcceptance,
    /// Selecting a member index (exchange replacements, sampling).
    MemberIndex,
    /// Seeding a split's random partition.
    SplitSeed,
    /// Anything else (application-level draws).
    Generic,
}

/// Where and why a compromised `randNum` is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandNumContext {
    /// The cluster executing the primitive.
    pub cluster: ClusterId,
    /// What the draw decides.
    pub purpose: RandNumPurpose,
}

/// Decisions delegated to the adversary when a cluster is compromised.
///
/// Implementations receive the full state the paper's full-information
/// adversary is entitled to (it "knows the position of any node at any
/// time"); the simulator passes what each decision needs.
pub trait Malice {
    /// Output of a compromised `randNum` over `0..range`.
    fn rand_num(&mut self, range: u64, ctx: RandNumContext, rng: &mut DetRng) -> u64;

    /// Next hop chosen by a compromised cluster during a walk (`None`
    /// lets the walk proceed honestly). `neighbors` are the legal hops:
    /// every neighbour but the one the walk came from.
    fn walk_hop(&mut self, neighbors: &[ClusterId], rng: &mut DetRng) -> Option<ClusterId>;

    /// Which member a compromised cluster surrenders in an exchange
    /// (`None` = honest uniform choice). `members` come with the
    /// adversary's ground-truth knowledge of honesty.
    fn exchange_victim(&mut self, members: &[(NodeId, bool)], rng: &mut DetRng) -> Option<NodeId>;

    /// Whether this adversary is behaviorally identical to [`NoMalice`]
    /// (uniform `rand_num`, no hop forcing, no victim forcing).
    ///
    /// An exchange shows a compromised partner's members to the
    /// adversary, labelled with their honesty, only when this returns
    /// `false`: a neutral adversary ignores the labels, so they are not
    /// built. Defaults to `false`; only implementations that are
    /// genuinely stateless and neutral should override it.
    fn is_neutral(&self) -> bool {
        false
    }
}

/// Neutral adversary: compromised clusters behave like honest ones with
/// private randomness (uniform draws). Useful as the default and as a
/// control in experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMalice;

impl Malice for NoMalice {
    fn rand_num(&mut self, range: u64, _ctx: RandNumContext, rng: &mut DetRng) -> u64 {
        rng.gen_range(0..range.max(1))
    }

    fn walk_hop(&mut self, _neighbors: &[ClusterId], _rng: &mut DetRng) -> Option<ClusterId> {
        None
    }

    fn exchange_victim(
        &mut self,
        _members: &[(NodeId, bool)],
        _rng: &mut DetRng,
    ) -> Option<NodeId> {
        None
    }

    fn is_neutral(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> RandNumContext {
        RandNumContext {
            cluster: ClusterId::from_raw(0),
            purpose: RandNumPurpose::Generic,
        }
    }

    #[test]
    fn no_malice_is_neutral() {
        let mut m = NoMalice;
        let mut rng = DetRng::new(1);
        let v = m.rand_num(10, ctx(), &mut rng);
        assert!(v < 10);
        assert_eq!(m.walk_hop(&[ClusterId::from_raw(0)], &mut rng), None);
        assert_eq!(
            m.exchange_victim(&[(NodeId::from_raw(0), true)], &mut rng),
            None
        );
    }

    #[test]
    fn no_malice_handles_zero_range() {
        let mut m = NoMalice;
        let mut rng = DetRng::new(2);
        assert_eq!(m.rand_num(0, ctx(), &mut rng), 0, "clamped range");
    }

    #[test]
    fn no_malice_ignores_purpose() {
        let mut m = NoMalice;
        let mut rng = DetRng::new(4);
        for purpose in [
            RandNumPurpose::WalkAcceptance,
            RandNumPurpose::WalkHop,
            RandNumPurpose::SplitSeed,
        ] {
            let c = RandNumContext {
                cluster: ClusterId::from_raw(1),
                purpose,
            };
            assert!(m.rand_num(10, c, &mut rng) < 10);
        }
    }

    #[test]
    fn malice_is_object_safe() {
        let mut boxed: Box<dyn Malice> = Box::new(NoMalice);
        let mut rng = DetRng::new(3);
        assert!(boxed.rand_num(5, ctx(), &mut rng) < 5);
    }
}
