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
//! * the live [`Registry`] — the direct API, a merge's re-joins and
//!   every wave of one op: edits land at once. The direct API and the
//!   re-joins run the split/merge check inline, inside the op's span; a
//!   wave of one defers it to after the wave like any other;
//! * the wave planner's copy-on-write view
//!   ([`crate::wave_exec`]) — edits are recorded as effects against a
//!   frozen registry and applied canonically after the wave, and the
//!   size check is deferred with them.
//!
//! The edits are the paper's three: a node arrives ([`StateView::attach`]),
//! a node departs ([`StateView::detach`]), and two nodes of different
//! clusters trade places ([`StateView::swap`], §3.1's `exchange` step:
//! the partner sends one of its own members back "in replacement").
//! There is no lone move: nothing in Algorithms 1–2 changes one
//! cluster's size without an arrival or a departure, and the trait
//! cannot express it. The kernel always knows which cluster a node it
//! edits is in — it just read the node from that cluster's member
//! slice, or its caller validated it — so it names the clusters in
//! every edit and a view needs no per-node home index.
//!
//! Everything else — overlay, ledger, stream, adversary — is borrowed
//! as disjoint fields, so draw order, span nesting and every message
//! count are the same code on both states. Each [`Malice`] hook
//! (`rand_num`, `walk_hop`, `exchange_victim`) is consulted at exactly
//! one site.

use crate::cluster::ClusterSecurity;
use crate::malice::{Malice, RandNumContext, RandNumPurpose};
use crate::params::{NowParams, SecurityMode};
use crate::rand_cl::WalkConstants;
use crate::registry::Registry;
use now_net::{ClusterId, CostKind, DetRng, Ledger, NodeId};
use now_over::Overlay;
use rand::Rng;

/// The membership state an operation runs against. Cluster ids handed
/// to a view are live: they come from the overlay, whose vertices are
/// exactly the live clusters while an operation runs (split and merge
/// happen between operations).
pub(crate) trait StateView {
    /// The registry the state reads through: the live one itself, or
    /// the frozen pre-wave one a planner view overlays. An op looks its
    /// leaver and its contact up here before its first edit.
    fn registry(&self) -> &Registry;
    /// Size and `randNum` security of `c` — what every walk hop and
    /// every collective draw needs.
    fn security(&self, c: ClusterId, mode: SecurityMode) -> ClusterSecurity;
    /// Members of `c` in ascending id order.
    fn members(&self, c: ClusterId) -> &[NodeId];
    /// Ground-truth honesty of a present node.
    fn honesty(&self, n: NodeId) -> bool;
    /// Adds a new node to `c`.
    fn attach(&mut self, n: NodeId, honest: bool, c: ClusterId);
    /// Removes `n`, a member of `from`, from the network.
    fn detach(&mut self, n: NodeId, from: ClusterId);
    /// One exchange step: `x`, a member of `c`, and `y`, a member of
    /// `partner ≠ c`, trade places. Both cluster sizes are unchanged.
    fn swap(&mut self, x: NodeId, c: ClusterId, y: NodeId, partner: ClusterId);
}

impl StateView for Registry {
    fn registry(&self) -> &Registry {
        self
    }

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

    fn honesty(&self, n: NodeId) -> bool {
        // INVARIANT: asked only of ids just read from a member slice.
        self.get(n).expect("live member").honest
    }

    fn attach(&mut self, n: NodeId, honest: bool, c: ClusterId) {
        Registry::attach(self, n, honest, c);
    }

    fn detach(&mut self, n: NodeId, from: ClusterId) {
        // INVARIANT: leave validates its node before the kernel runs.
        let rec = Registry::detach(self, n).expect("detaching a live node");
        debug_assert_eq!(rec.cluster, from);
    }

    fn swap(&mut self, x: NodeId, c: ClusterId, y: NodeId, partner: ClusterId) {
        // INVARIANT: exchange read `x` from `c`'s member slice just now.
        let from_x = self.move_to(x, partner).expect("swapping a live node");
        // INVARIANT: exchange read `y` from `partner`'s member slice.
        let from_y = self.move_to(y, c).expect("swapping a live node");
        debug_assert_eq!((from_x, from_y), (c, partner));
    }
}

/// One operation's execution context: the state it edits plus the
/// overlay, ledger, stream and adversary it borrows.
pub(crate) struct Kernel<'k, S: StateView> {
    pub(crate) state: &'k mut S,
    pub(crate) overlay: &'k Overlay,
    pub(crate) params: NowParams,
    pub(crate) ledger: &'k mut Ledger,
    /// The system's shared stream on the live registry, the op's own
    /// substream on a view.
    pub(crate) rng: &'k mut DetRng,
    pub(crate) malice: &'k mut dyn Malice,
    /// What every walk of the op shares. Private, so that every kernel
    /// is built by [`Kernel::new`], which derives it from `overlay`.
    walk: WalkConstants,
}

impl<'k, S: StateView> Kernel<'k, S> {
    /// The kernel over `state`, with its walk constants computed from
    /// `overlay`, whose vertex count cannot change while the kernel
    /// borrows it.
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
            walk: WalkConstants::new(&params, overlay.vertex_count()),
        }
    }

    /// The constants of this kernel's walks.
    #[inline]
    pub(crate) fn walk_constants(&self) -> WalkConstants {
        self.walk
    }
}

impl<S: StateView> Kernel<'_, S> {
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
    /// adversary what the draw decides. A walk books its leaves itself,
    /// once per walk, and takes only the draw ([`Kernel::draw_value`]).
    #[inline]
    pub(crate) fn draw(
        &mut self,
        c: ClusterId,
        range: u64,
        purpose: RandNumPurpose,
        at: ClusterSecurity,
    ) -> u64 {
        self.ledger.leaf(CostKind::RandNum, at.rand_num_cost());
        self.draw_value(c, range, purpose, at)
    }

    /// The value half of [`Kernel::draw`], leaving the leaf to the
    /// caller.
    #[inline]
    pub(crate) fn draw_value(
        &mut self,
        c: ClusterId,
        range: u64,
        purpose: RandNumPurpose,
        at: ClusterSecurity,
    ) -> u64 {
        let range = range.max(1);
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
