//! The op kernel: Algorithms 1–2 and their three primitives, written
//! once over the live [`Registry`].
//!
//! The paper's Figure 2 gives one listing each for join and leave,
//! built from `randCl`, `exchange` and `randNum`. [`Kernel`] is that
//! listing: the walk lives in [`crate::rand_cl`], the shuffle in
//! [`crate::exchange`], join and leave (up to the size check) in
//! [`crate::ops`], and the collective draw and the neighbour
//! notification here. Every op runs on the registry itself, and its
//! edits land at once: the direct API ([`crate::NowSystem::join`],
//! [`crate::NowSystem::leave`]) and a merge's re-joins, which run the
//! split/merge check inline, inside the op's span, and every op of a
//! batch ([`crate::wave_exec`]), which runs it right after the op's
//! span has closed.
//!
//! The edits are the paper's three: a node arrives
//! ([`Registry::attach`]), a node departs ([`Kernel::detach`]), and two
//! nodes of different clusters trade places ([`Kernel::swap`], §3.1's
//! `exchange` step: the partner sends one of its own members back "in
//! replacement"). There is no lone move: nothing in Algorithms 1–2
//! changes one cluster's size without an arrival or a departure. The
//! kernel always knows which cluster a node it edits is in — it just
//! read the node from that cluster's member slice, or its caller
//! validated it — so it names the clusters in every edit.
//!
//! Everything else — the walk table (the overlay, read by registry
//! slot), ledger, the walks' lockstep books, stream, adversary — is
//! borrowed as disjoint fields of the system. Each [`Malice`] hook
//! (`rand_num`, `walk_hop`, `exchange_victim`) is consulted at exactly
//! one site.

use crate::cluster::ClusterSecurity;
use crate::malice::{Malice, RandNumContext, RandNumPurpose};
use crate::params::NowParams;
use crate::rand_cl::{Lockstep, WalkTable};
use crate::registry::Registry;
use now_net::{ClusterId, CostKind, DetRng, Ledger, NodeId};
use rand::Rng;

/// One operation's execution context: the registry it edits plus the
/// walk table, ledger, stream and adversary it borrows. Cluster ids the
/// kernel handles are live: they come from the overlay, whose vertices
/// are exactly the live clusters while an operation runs (split and
/// merge happen between operations). So are registry slots: the kernel
/// reads them from the [`WalkTable`] or resolves them with
/// [`Kernel::slot_of`], and the slab cannot change shape while an
/// operation runs.
pub(crate) struct Kernel<'k> {
    pub(crate) registry: &'k mut Registry,
    /// The overlay as walks and notifications read it, by registry
    /// slot, with the walk constants of its shape.
    pub(crate) walks: &'k WalkTable,
    pub(crate) params: NowParams,
    pub(crate) ledger: &'k mut Ledger,
    /// The books a group of walks tallies its shared draws in, lent by
    /// the system like the ledger.
    pub(crate) lockstep: &'k mut Lockstep,
    /// The system's shared stream for the direct API, the op's own
    /// substream in a batch.
    pub(crate) rng: &'k mut DetRng,
    pub(crate) malice: &'k mut dyn Malice,
}

impl Kernel<'_> {
    /// The registry slot of `c`: the one id → slot translation per
    /// cluster an op names (a walk's start, an exchange partner, a
    /// notifying cluster). A walk's hops translate none.
    #[inline]
    pub(crate) fn slot_of(&self, c: ClusterId) -> u32 {
        // INVARIANT: see `Kernel` — ids reaching the kernel are live.
        self.registry.cluster_slot_of(c).expect("live cluster")
    }

    /// Size and security of `c` under the deployment's mode.
    #[inline]
    pub(crate) fn security(&self, c: ClusterId) -> ClusterSecurity {
        self.registry
            .security_at(self.slot_of(c), self.params.security())
    }

    /// Members of `c` in ascending id order.
    #[inline]
    pub(crate) fn members(&self, c: ClusterId) -> &[NodeId] {
        // INVARIANT: see `Kernel` — ids reaching the kernel are live.
        self.registry
            .cluster(c)
            .expect("live cluster")
            .member_slice()
    }

    /// Ground-truth honesty of a present node.
    pub(crate) fn honesty(&self, n: NodeId) -> bool {
        // INVARIANT: asked only of ids just read from a member slice.
        self.registry.get(n).expect("live member").honest
    }

    /// Removes `n`, a member of `from`, from the network.
    pub(crate) fn detach(&mut self, n: NodeId, from: ClusterId) {
        // INVARIANT: leave validates its node before the kernel runs.
        let rec = self.registry.detach(n).expect("detaching a live node");
        debug_assert_eq!(rec.cluster, from);
    }

    /// One exchange step: `x`, a member of `c`, and `y`, a member of
    /// `partner ≠ c`, trade places. Both cluster sizes are unchanged.
    pub(crate) fn swap(&mut self, x: NodeId, c: ClusterId, y: NodeId, partner: ClusterId) {
        // INVARIANT: exchange read `x` from `c`'s member slice just now.
        let from_x = self
            .registry
            .move_to(x, partner)
            .expect("swapping a live node");
        // INVARIANT: exchange read `y` from `partner`'s member slice.
        let from_y = self.registry.move_to(y, c).expect("swapping a live node");
        debug_assert_eq!((from_x, from_y), (c, partner));
    }

    /// One `randNum` draw over `0..range` by cluster `c`, whose size
    /// and security the caller has already read (`at`): a
    /// [`CostKind::RandNum`] leaf span (`2·|C|·(|C|−1)` messages, 2
    /// rounds), then the draw — from the stream when the cluster is
    /// secure, from [`Malice`] otherwise. `purpose` tells a strategic
    /// adversary what the draw decides. A walk books its leaves on its
    /// group's books, settled once per group, and takes only the draw
    /// ([`draw_value`]).
    #[inline]
    pub(crate) fn draw(
        &mut self,
        c: ClusterId,
        range: u64,
        purpose: RandNumPurpose,
        at: ClusterSecurity,
    ) -> u64 {
        self.ledger.leaf(CostKind::RandNum, at.rand_num_cost());
        draw_value(self.rng, self.malice, || c, range, purpose, at)
    }

    /// Accounts cluster `c` announcing its new composition to every
    /// member of every neighbouring cluster (the view-update step of
    /// join/leave/exchange/split/merge): `Σ_{D ∈ N(C)} |C|·|D|`
    /// messages in one round. Neighbour sizes are read in place, by
    /// slot, from `c`'s walk-table row.
    pub(crate) fn notify_neighbors(&mut self, c: ClusterId) {
        let slot = self.slot_of(c);
        let size = self.registry.cluster_in_slot(slot).size() as u64;
        let msgs: u64 = (self.walks.row(slot).iter())
            .map(|&nbr| size * self.registry.cluster_in_slot(nbr).size() as u64)
            .sum();
        self.ledger.add_messages(msgs);
        self.ledger.add_rounds(1);
    }
}

/// The value half of [`Kernel::draw`], leaving the leaf to the caller:
/// from `rng` when the drawing cluster is secure (`at`), from `malice`
/// otherwise. Only the adversary is told which cluster draws, so the
/// caller names it lazily (`cluster`): a walk knows the slot it stands
/// on, and reads that slot's id only for a compromised draw.
#[inline]
pub(crate) fn draw_value(
    rng: &mut DetRng,
    malice: &mut dyn Malice,
    cluster: impl FnOnce() -> ClusterId,
    range: u64,
    purpose: RandNumPurpose,
    at: ClusterSecurity,
) -> u64 {
    let range = range.max(1);
    if at.secure {
        rng.gen_range(0..range)
    } else {
        let ctx = RandNumContext {
            cluster: cluster(),
            purpose,
        };
        malice.rand_num(range, ctx, rng)
    }
}
