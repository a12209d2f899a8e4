//! The op kernel: Algorithms 1–2 and their three primitives, written
//! once over a [`StateView`].
//!
//! The paper's Figure 2 gives one listing each for join and leave,
//! built from `randCl`, `exchange` and `randNum`. [`Kernel`] is that
//! listing: the walk lives in [`crate::rand_cl`], the shuffle in
//! [`crate::exchange`], join and leave (up to the size check) in
//! [`crate::ops`], and the collective draw and the neighbour
//! notification here. What differs between execution engines is only
//! the membership state the listing reads and edits:
//!
//! * the live [`Registry`] — serial execution: edits land at once, and
//!   the caller runs the split/merge check inline;
//! * the wave planner's copy-on-write view
//!   ([`crate::wave_exec`]) — edits are recorded as effects against a
//!   frozen registry and applied canonically after the wave, and the
//!   size check is deferred with them.
//!
//! Everything else — overlay, ledger, stream, adversary — is borrowed
//! as disjoint fields, so draw order, span nesting and every message
//! count are the same code on both states. Each [`Malice`] hook
//! (`rand_num`, `walk_hop`, `exchange_victim`) is consulted at exactly
//! one site.

use crate::cluster::ClusterSecurity;
use crate::malice::{Malice, RandNumContext, RandNumPurpose};
use crate::params::{NowParams, SecurityMode};
use crate::registry::Registry;
use now_net::{ClusterId, CostKind, DetRng, Ledger, NodeId};
use now_over::Overlay;
use rand::Rng;

/// The membership state an operation runs against. Cluster ids handed
/// to a view are live: they come from the overlay, whose vertices are
/// exactly the live clusters while an operation runs (split and merge
/// happen between operations).
pub(crate) trait StateView {
    /// Size and `randNum` security of `c` — what every walk hop and
    /// every collective draw needs.
    fn security(&self, c: ClusterId, mode: SecurityMode) -> ClusterSecurity;
    /// Members of `c` in ascending id order.
    fn members(&self, c: ClusterId) -> &[NodeId];
    /// The cluster `n` belongs to, `None` once it has departed.
    fn home_of(&self, n: NodeId) -> Option<ClusterId>;
    /// Ground-truth honesty of a present node.
    fn honesty(&self, n: NodeId) -> bool;
    /// Adds a new node to `c`.
    fn attach(&mut self, n: NodeId, honest: bool, c: ClusterId);
    /// Removes a present node from the network.
    fn detach(&mut self, n: NodeId);
    /// Moves a present node into `to` (no-op if it is there already).
    fn relocate(&mut self, n: NodeId, to: ClusterId);
}

impl StateView for Registry {
    #[inline]
    fn security(&self, c: ClusterId, mode: SecurityMode) -> ClusterSecurity {
        // INVARIANT: see `StateView` — ids reaching a view are live.
        self.cluster(c).expect("live cluster").security(mode)
    }

    #[inline]
    fn members(&self, c: ClusterId) -> &[NodeId] {
        // INVARIANT: see `StateView` — ids reaching a view are live.
        self.cluster(c).expect("live cluster").member_slice()
    }

    fn home_of(&self, n: NodeId) -> Option<ClusterId> {
        self.get(n).map(|r| r.cluster)
    }

    fn honesty(&self, n: NodeId) -> bool {
        // INVARIANT: asked only of ids just read from a member slice.
        self.get(n).expect("live member").honest
    }

    fn attach(&mut self, n: NodeId, honest: bool, c: ClusterId) {
        Registry::attach(self, n, honest, c);
    }

    fn detach(&mut self, n: NodeId) {
        // INVARIANT: leave validates its node before the kernel runs.
        Registry::detach(self, n).expect("detaching a live node");
    }

    fn relocate(&mut self, n: NodeId, to: ClusterId) {
        // INVARIANT: exchange moves members it just read from a slice.
        self.move_to(n, to).expect("moving a live node");
    }
}

/// One operation's execution context: the state it edits plus the
/// overlay, ledger, stream and adversary it borrows.
pub(crate) struct Kernel<'k, S: StateView> {
    pub(crate) state: &'k mut S,
    pub(crate) overlay: &'k Overlay,
    pub(crate) params: NowParams,
    pub(crate) ledger: &'k mut Ledger,
    pub(crate) rng: &'k mut DetRng,
    pub(crate) malice: &'k mut dyn Malice,
}

impl<'k, S: StateView> Kernel<'k, S> {
    /// A kernel over `state`, drawing from `rng`: the system's shared
    /// stream on the live registry, the op's own substream on a view.
    pub(crate) fn new(
        state: &'k mut S,
        overlay: &'k Overlay,
        params: NowParams,
        ledger: &'k mut Ledger,
        rng: &'k mut DetRng,
        malice: &'k mut dyn Malice,
    ) -> Self {
        Kernel {
            state,
            overlay,
            params,
            ledger,
            rng,
            malice,
        }
    }

    /// Size and security of `c` under the deployment's mode.
    #[inline]
    pub(crate) fn security(&self, c: ClusterId) -> ClusterSecurity {
        self.state.security(c, self.params.security())
    }

    /// One `randNum` draw over `0..range` by cluster `c`, whose size
    /// and security the caller has already read (`at`): a
    /// [`CostKind::RandNum`] leaf span (`2·|C|·(|C|−1)` messages, 2
    /// rounds), then the draw — from the stream when the cluster is
    /// secure, from [`Malice`] otherwise. `purpose` tells a strategic
    /// adversary what the draw decides.
    #[inline]
    pub(crate) fn draw(
        &mut self,
        c: ClusterId,
        range: u64,
        purpose: RandNumPurpose,
        at: ClusterSecurity,
    ) -> u64 {
        let range = range.max(1);
        self.ledger.leaf(CostKind::RandNum, at.rand_num_cost());
        if at.secure {
            self.rng.gen_range(0..range)
        } else {
            let ctx = RandNumContext {
                cluster: c,
                purpose,
            };
            self.malice.rand_num(range, ctx, self.rng)
        }
    }

    /// Accounts cluster `c` announcing its new composition to every
    /// member of every neighbouring cluster (the view-update step of
    /// join/leave/exchange/split/merge): `Σ_{D ∈ N(C)} |C|·|D|`
    /// messages in one round. Neighbour sizes are read in place.
    pub(crate) fn notify_neighbors(&mut self, c: ClusterId) {
        let size = self.state.members(c).len() as u64;
        let msgs: u64 = self
            .overlay
            .neighbors(c)
            .iter()
            .map(|&nbr| size * self.state.members(nbr).len() as u64)
            .sum();
        self.ledger.add_messages(msgs);
        self.ledger.add_rounds(1);
    }
}
