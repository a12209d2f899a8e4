//! Threaded execution of conflict-free waves — the engine that turns
//! the [`crate::batch`] *schedule* into wall-clock parallelism.
//!
//! PR 2's `step_parallel` schedules a batch into footprint-disjoint
//! waves but still executes the operations one after another;
//! `rounds_parallel` is an estimate, not a measurement. This module
//! adds [`NowSystem::step_parallel_threaded`], which actually runs a
//! wave's operations on worker threads while keeping the run
//! **bit-identical at every thread count** — same admitted ids, same
//! population, same ledger totals, same wave schedule whether the batch
//! runs on 1, 2, or 8 workers.
//!
//! # Worker pool
//!
//! Waves execute on a persistent, channel-fed [`WavePool`]: workers
//! spawn **once per pool** (run-scoped in `now-sim`, campaign-scoped in
//! `now-campaign`, batch-scoped for the convenience entry points) and
//! receive wave-plan jobs over per-worker channels — O(threads) thread
//! spawns per run, not the O(waves·threads) the original scoped
//! executor paid, which dominated conflict-heavy batches whose waves
//! are narrow. Workers claim operations through an atomic cursor and
//! write plans into positional slots, so pooled, scoped
//! ([`NowSystem::step_parallel_scoped_specs`], retained as the
//! reference), and sequential planning are bit-identical; property
//! tests and the CI smoke gates pin all three equal.
//!
//! # How determinism survives threading
//!
//! Three mechanisms, mirrored by `vendor/README.md`'s determinism
//! notes:
//!
//! 1. **Plan/apply split.** Each operation is *planned* by a pure
//!    kernel ([`Planner`]) that reads the immutable pre-wave state
//!    (registry + overlay are shared read-only across workers) through
//!    a copy-on-write *view* that overlays the operation's own effects
//!    — snapshot-isolation semantics; a cluster the op has not edited is
//!    read in place from the frozen registry. Planning emits an [`OpPlan`]: the
//!    op's registry effects, its private ledger, and a deferred
//!    split/merge check. Plans are pure functions of `(pre-wave state,
//!    op, substream)`, so the thread that computes one is irrelevant.
//! 2. **Per-operation substreams.** Every operation draws from a
//!    ChaCha12 stream derived via [`DetRng::for_op`] from `(master,
//!    time_step, canonical op index)` — never from the shared system
//!    generator — so thread interleaving cannot perturb anyone's
//!    randomness. The master key is a single draw from the system
//!    stream per batch.
//! 3. **Canonical merge.** Effects, ledger deltas
//!    ([`Ledger::merge_child`]), and deferred maintenance apply on the
//!    driving thread in canonical batch order (departures before
//!    arrivals, each in input order). Footprint-local effects go
//!    through the wave's [`crate::registry::WaveShards`] handles —
//!    whose debug assertions enforce that a handle never escapes its
//!    footprint — and relocations that legitimately escape (exchange
//!    partners are walk-chosen anywhere) use the facade's unconfined
//!    path.
//!
//! # Model semantics (and how they differ from `step_parallel`)
//!
//! The engine defines a *parallel deployment* of the §2-footnote batch:
//! operations of one wave observe the pre-wave state plus their own
//! effects, exactly as genuinely concurrent admissions would; a node
//! claimed by two concurrent relocations resolves to the canonical
//! winner (later-applied move wins; a move of a node that already
//! departed is dropped). Split/merge maintenance runs after the wave
//! whose operations triggered it, accounted as sibling spans of the
//! batch rather than nested inside the triggering operation: first
//! each op's own host/home in canonical order, then a deterministic
//! sweep over every other cluster the wave's effects touched —
//! conflict resolution can net-change the size of clusters that are
//! nobody's host or home, and the size band must hold there too.
//! Because
//! randomness is consumed per-operation instead of from one shared
//! stream, outcomes differ from the serial `step_parallel` path for the
//! same seed — by design; the bit-equality contract is *across thread
//! counts of this engine*, which the property tests pin.
//!
//! A strategic [`Malice`] implementation is a single stateful oracle
//! whose hook-call order is protocol-visible, so non-neutral adversaries
//! plan sequentially in canonical order (the results still do not
//! depend on the requested thread count). The neutral default plans on
//! workers.

use crate::batch::{BatchReport, WaveStats};
use crate::cluster::ClusterSecurity;
use crate::error::NowError;
use crate::malice::{Malice, RandNumContext, RandNumPurpose};
use crate::params::NowParams;
use crate::registry::Registry;
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, CostKind, DetRng, Ledger, NodeId};
use now_over::Overlay;
use now_trace::{SpanTotal, TraceData};
use rand::{Rng, RngCore};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// Canonical normalization of the `threads` knob, shared by **every**
/// entry point that accepts one ([`WavePool::new`], the scoped
/// executor, `now-sim`'s `BatchExec::Threaded`, the campaign runner's
/// per-phase exec knob): `0` means "unspecified" and is treated as 1
/// worker. Centralized so no call site can drift to a different rule.
pub fn normalize_threads(threads: usize) -> usize {
    threads.max(1)
}

/// Monotone count of wave-worker threads this process has ever spawned
/// (pooled workers and legacy scoped workers alike). Tests use the
/// delta around a run to assert the pool's O(threads)-spawns-per-run
/// guarantee; note the counter is process-global, so such assertions
/// must not share a test binary with concurrently spawning tests.
static WAVE_WORKER_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Current value of the process-global wave-worker spawn counter.
pub fn wave_worker_spawn_total() -> u64 {
    WAVE_WORKER_SPAWNS.load(Ordering::Relaxed)
}

/// Process-global nanoseconds the driving thread has spent in the
/// planning phase of [`NowSystem::execute_wave`] (wall clock around the
/// plan dispatch, including the block on pool workers). Benchmarks take
/// deltas around a run to report planning's share of step wall clock.
static WAVE_PLAN_NANOS: SpanTotal = SpanTotal::new();

/// Current value of the process-global planning-phase wall-clock
/// counter, in nanoseconds.
pub fn wave_plan_nanos_total() -> u64 {
    WAVE_PLAN_NANOS.total()
}

/// One batched operation, with the footprint the wave partition was
/// computed from.
pub(crate) struct OpSpec {
    pub(crate) op: PlannedOp,
    pub(crate) footprint: Vec<ClusterId>,
    /// The operation's **canonical index** in the batch (departures
    /// before arrivals, each in input order): the key of its
    /// [`DetRng::for_op`] substream. Stored on the spec so executors
    /// that *reorder* operations (the event engine executes in network
    /// delivery order) still hand every op the stream its canonical
    /// position owns.
    pub(crate) canon: u64,
    /// The cluster the operation coordinates through (the leaver's
    /// home, the joiner's contact): the event engine's delivery port.
    pub(crate) center: ClusterId,
    /// Whether a join's steered contact was already dead at batch
    /// admission and degraded to the uniform draw (always `false` for
    /// leaves). Folded with the plan-time redraw into at most **one**
    /// counted redraw per operation, matching the scheduled engine's
    /// resolve-once-per-op semantics.
    pub(crate) contact_redrawn: bool,
}

pub(crate) enum PlannedOp {
    Leave {
        node: NodeId,
    },
    Join {
        node: NodeId,
        honest: bool,
        contact: ClusterId,
    },
}

/// A registry mutation planned by a kernel, applied canonically later.
enum Effect {
    Detach {
        node: NodeId,
    },
    Attach {
        node: NodeId,
        honest: bool,
        cluster: ClusterId,
    },
    Move {
        node: NodeId,
        to: ClusterId,
    },
}

/// Size-triggered maintenance deferred to the post-wave serial phase.
enum Maintenance {
    /// Re-check the join's host for an oversize split.
    Split(ClusterId),
    /// Re-check the leave's home for an undersize merge.
    Merge(ClusterId),
}

/// The pure result of planning one operation.
struct OpPlan {
    effects: Vec<Effect>,
    ledger: Ledger,
    /// Inclusive cost of the operation's top-level span.
    cost: Cost,
    maintenance: Maintenance,
    /// Whether a steered contact had been dissolved by an earlier
    /// wave's merge and was re-drawn uniformly at plan time.
    contact_redrawn: bool,
}

/// Immutable pre-wave state shared (read-only) across planner threads.
struct WaveCtx<'a> {
    registry: &'a Registry,
    overlay: &'a Overlay,
    params: NowParams,
    recording: bool,
}

/// A cluster the operation has edited: its pre-wave membership overlaid
/// with the operation's own effects.
struct ViewCluster {
    /// Members in ascending id order (mirrors `Cluster`'s set order).
    members: Vec<NodeId>,
    byz: usize,
}

/// Sentinel in [`Planner::view_of_slot`]: the op has not edited the
/// cluster in that slot, so reads go to the frozen registry.
const NO_VIEW: u32 = u32::MAX;

/// The pure planning kernel: interprets one join/leave against the
/// wave context, mirroring the serial operation semantics of
/// [`crate::ops`] / [`crate::exchange`] / [`crate::rand_cl`] — same
/// draw order, same ledger spans — but reading through the op's view
/// and emitting effects instead of mutating shared state.
///
/// Views are copy-on-write: a cluster's member vec is copied the first
/// time the op *edits* it (its host, its exchange partners). Every
/// other read — the sizes and Byzantine counts a walk needs of each
/// cluster it passes through, neighbour sizes for notifications, the
/// member a partner surrenders — borrows the frozen registry.
struct Planner<'c, 'a> {
    ctx: &'c WaveCtx<'a>,
    rng: DetRng,
    ledger: Ledger,
    effects: Vec<Effect>,
    /// `view_of_slot[registry slot]` indexes `views`, or is [`NO_VIEW`].
    view_of_slot: Vec<u32>,
    views: Vec<ViewCluster>,
    /// Deterministic work gate: member ids copied into views and
    /// exchange snapshots.
    #[cfg(test)]
    member_ids_copied: usize,
    /// Home overrides for nodes this op moved (`None` = departed).
    homes: BTreeMap<NodeId, Option<ClusterId>>,
    /// The op's own arrival, if any (honesty is not in the registry yet).
    joiner: Option<(NodeId, bool)>,
    /// Present only when a non-neutral adversary serializes planning.
    malice: Option<&'c mut (dyn Malice + 'static)>,
}

impl<'c, 'a> Planner<'c, 'a> {
    fn new(
        ctx: &'c WaveCtx<'a>,
        rng: DetRng,
        malice: Option<&'c mut (dyn Malice + 'static)>,
    ) -> Self {
        Planner {
            ctx,
            rng,
            ledger: if ctx.recording {
                Ledger::recording()
            } else {
                Ledger::new()
            },
            effects: Vec::new(),
            view_of_slot: vec![NO_VIEW; ctx.registry.cluster_slab_len()],
            views: Vec::new(),
            #[cfg(test)]
            member_ids_copied: 0,
            homes: BTreeMap::new(),
            joiner: None,
            malice,
        }
    }

    // ---------------------------------------------------------------
    // View maintenance.
    // ---------------------------------------------------------------

    fn slot_of(&self, c: ClusterId) -> u32 {
        // INVARIANT: every cluster id reaching a plan comes from this
        // wave's frozen registry and overlay, which only name live
        // clusters (maintenance runs serially between waves).
        self.ctx
            .registry
            .cluster_slot_of(c)
            .expect("plan touches live clusters")
    }

    /// The op's edited copy of the cluster in `slot`, if it has one.
    fn view(&self, slot: u32) -> Option<&ViewCluster> {
        // INVARIANT: `view_of_slot` spans the frozen registry's whole
        // cluster slab, which bounds every slot `slot_of` returns.
        match self.view_of_slot[slot as usize] {
            NO_VIEW => None,
            // INVARIANT: non-sentinel entries are indexes `view_mut`
            // issued as it pushed onto `views`.
            v => Some(&self.views[v as usize]),
        }
    }

    /// The op's editable copy of `c`, made from the frozen registry on
    /// first use.
    fn view_mut(&mut self, c: ClusterId) -> &mut ViewCluster {
        let slot = self.slot_of(c);
        // INVARIANT: `view_of_slot` spans the frozen registry's whole
        // cluster slab, which bounds every slot `slot_of` returns.
        let entry = &mut self.view_of_slot[slot as usize];
        if *entry == NO_VIEW {
            let cluster = self.ctx.registry.cluster_in_slot(slot);
            #[cfg(test)]
            {
                self.member_ids_copied += cluster.size();
            }
            *entry = self.views.len() as u32;
            self.views.push(ViewCluster {
                members: cluster.member_vec(),
                byz: cluster.byz_count(),
            });
        }
        // INVARIANT: the entry was just checked or set to an index
        // into `views`.
        &mut self.views[*entry as usize]
    }

    /// Members of `c` as the op sees them, in ascending id order: the
    /// op's copy if it has edited `c`, the frozen slice otherwise.
    fn members(&self, c: ClusterId) -> &[NodeId] {
        let slot = self.slot_of(c);
        match self.view(slot) {
            Some(v) => &v.members,
            None => self.ctx.registry.cluster_in_slot(slot).member_slice(),
        }
    }

    /// Size and `randNum` security of `c` as the op sees it — what
    /// every walk hop and `randNum` gate needs.
    fn cluster_security(&self, c: ClusterId) -> ClusterSecurity {
        let mode = self.ctx.params.security();
        let slot = self.slot_of(c);
        match self.view(slot) {
            Some(v) => ClusterSecurity::of(v.members.len(), v.byz, mode),
            None => self.ctx.registry.cluster_in_slot(slot).security(mode),
        }
    }

    fn size(&self, c: ClusterId) -> u64 {
        self.members(c).len() as u64
    }

    fn member_at(&self, c: ClusterId, idx: usize) -> NodeId {
        self.members(c)[idx]
    }

    fn contains_member(&self, c: ClusterId, n: NodeId) -> bool {
        self.members(c).binary_search(&n).is_ok()
    }

    fn honesty(&self, n: NodeId) -> bool {
        if let Some((joiner, honest)) = self.joiner {
            if joiner == n {
                return honest;
            }
        }
        // INVARIANT: honesty is only queried for members of the wave's
        // own view clusters (plus the joiner handled above), all of
        // which are registered for the whole wave.
        self.ctx
            .registry
            .get(n)
            .expect("honesty of a live node")
            .honest
    }

    fn home_of(&self, n: NodeId) -> Option<ClusterId> {
        match self.homes.get(&n) {
            Some(over) => *over,
            None => self.ctx.registry.get(n).map(|r| r.cluster),
        }
    }

    fn insert_member(&mut self, c: ClusterId, n: NodeId, honest: bool) {
        let v = self.view_mut(c);
        let pos = v
            .members
            .binary_search(&n)
            .expect_err("member absent from view");
        v.members.insert(pos, n);
        if !honest {
            v.byz += 1;
        }
    }

    fn remove_member(&mut self, c: ClusterId, n: NodeId, honest: bool) {
        let v = self.view_mut(c);
        // INVARIANT: callers only remove a node from the cluster the
        // view itself reported as its home, so the sorted member vec
        // must contain it.
        let pos = v.members.binary_search(&n).expect("member present in view");
        v.members.remove(pos);
        if !honest {
            v.byz -= 1;
        }
    }

    fn attach_node(&mut self, n: NodeId, honest: bool, c: ClusterId) {
        self.joiner = Some((n, honest));
        self.insert_member(c, n, honest);
        self.homes.insert(n, Some(c));
        self.effects.push(Effect::Attach {
            node: n,
            honest,
            cluster: c,
        });
    }

    fn detach_node(&mut self, n: NodeId) {
        // INVARIANT: leave planning pre-validates the leaver against
        // the registry before the wave starts, and no other op in the
        // same wave shares its footprint.
        let from = self.home_of(n).expect("detaching a live node");
        let honest = self.honesty(n);
        self.remove_member(from, n, honest);
        self.homes.insert(n, None);
        self.effects.push(Effect::Detach { node: n });
    }

    fn move_node(&mut self, n: NodeId, to: ClusterId) {
        // INVARIANT: moves originate from exchange/walk steps over
        // members of this wave's own view, which are live by
        // construction.
        let from = self.home_of(n).expect("moving a live node");
        if from == to {
            return;
        }
        let honest = self.honesty(n);
        self.remove_member(from, n, honest);
        self.insert_member(to, n, honest);
        self.homes.insert(n, Some(to));
        self.effects.push(Effect::Move { node: n, to });
    }

    /// Overlay neighbors of `c`, borrowed straight from the frozen
    /// overlay for the wave's lifetime `'a` — so the slice can be held
    /// across the planner's own `&mut self` draws without a copy.
    fn neighbor_list(&self, c: ClusterId) -> &'a [ClusterId] {
        self.ctx.overlay.neighbors(c)
    }

    // ---------------------------------------------------------------
    // Primitive mirrors (draw order and ledger spans match the serial
    // implementations bit for bit under a neutral adversary).
    // ---------------------------------------------------------------

    /// One collective draw by `c`, whose size and security the caller
    /// has already read (`at`): mirror of [`crate::system::collective_draw`].
    fn draw(
        &mut self,
        c: ClusterId,
        range: u64,
        at: ClusterSecurity,
        purpose: RandNumPurpose,
    ) -> u64 {
        let range = range.max(1);
        self.ledger.leaf(CostKind::RandNum, at.rand_num_cost());
        match self.malice.as_mut() {
            Some(malice) if !at.secure => {
                let ctx = RandNumContext {
                    cluster: c,
                    purpose,
                };
                malice.rand_num(range, ctx, &mut self.rng)
            }
            // Secure cluster, or neutral-adversary planning:
            // `NoMalice::rand_num` is the same uniform draw, so the
            // streams coincide.
            _ => self.rng.gen_range(0..range),
        }
    }

    /// Mirror of [`NowSystem::rand_cl_from`] against the op's view.
    fn rand_cl(&mut self, start: ClusterId) -> ClusterId {
        self.ledger.begin(CostKind::RandCl);
        let m = self.ctx.overlay.vertex_count();
        if m <= 1 {
            self.ledger.end();
            return start;
        }
        let duration = self.ctx.params.ctrw_duration(m);
        let mut current = start;
        let mut here = self.cluster_security(start);
        const RES: u64 = 1 << 24;
        let hop_cap = 2_000 + 200 * (m as u64);
        let mut hops = 0u64;
        for _restart in 0..=self.ctx.params.max_walk_restarts() {
            let mut remaining = duration;
            loop {
                if hops >= hop_cap {
                    self.ledger.end();
                    return current;
                }
                let nbrs = self.neighbor_list(current);
                let degree = nbrs.len();
                if degree == 0 {
                    break;
                }
                let u = self.draw(current, RES, here, RandNumPurpose::WalkHoldingTime);
                let unit = (u as f64 + 1.0) / (RES as f64 + 1.0);
                let hold = -unit.ln() / degree as f64;
                if hold >= remaining {
                    break;
                }
                remaining -= hold;
                let idx = self.draw(
                    current,
                    degree as u64,
                    here,
                    RandNumPurpose::WalkNeighborChoice,
                ) as usize;
                // INVARIANT: `degree = nbrs.len() > 0` (checked above)
                // and the draw is over 0..degree; the `min` is
                // belt-and-braces against a future draw-range change.
                let mut next = nbrs[idx.min(degree - 1)];
                if !here.secure_plain {
                    if let Some(malice) = self.malice.as_mut() {
                        if let Some(forced) = malice.walk_hop(nbrs, &mut self.rng) {
                            if nbrs.contains(&forced) {
                                next = forced;
                            }
                        }
                    }
                }
                let there = self.cluster_security(next);
                self.ledger.add(Cost {
                    messages: here.size * there.size,
                    rounds: 1,
                });
                hops += 1;
                current = next;
                here = there;
            }
            let p_accept = self.ctx.params.acceptance_probability(here.size as usize);
            let draw = self.draw(current, RES, here, RandNumPurpose::WalkAcceptance);
            if (draw as f64 + 0.5) / RES as f64 <= p_accept {
                self.ledger.end();
                return current;
            }
        }
        self.ledger.end();
        current
    }

    /// Mirror of the serial `exchange_single`.
    fn exchange_single(&mut self, c: ClusterId) -> BTreeSet<ClusterId> {
        self.ledger.begin(CostKind::Exchange);
        // The exchange's one membership snapshot: the loop below edits
        // `c` while it iterates.
        let mut members = self.members(c).to_vec();
        #[cfg(test)]
        {
            self.member_ids_copied += members.len();
        }
        if let Some(cap) = self.ctx.params.exchange_cap() {
            if cap < members.len() {
                let picks = now_graph::sample::sample_distinct(members.len(), cap, &mut self.rng);
                members = picks.into_iter().map(|i| members[i]).collect();
            }
        }
        let mut receivers = BTreeSet::new();
        for x in members {
            if self.home_of(x).map(|home| home != c).unwrap_or(true) {
                continue;
            }
            let partner = self.rand_cl(c);
            if partner == c {
                continue;
            }
            let at_partner = self.cluster_security(partner);
            let partner_size = at_partner.size as usize;
            if partner_size == 0 {
                continue;
            }
            let idx = self.draw(
                partner,
                at_partner.size,
                at_partner,
                RandNumPurpose::MemberIndex,
            ) as usize;
            let mut y = self.member_at(partner, idx.min(partner_size - 1));
            if !at_partner.secure && self.malice.is_some() {
                let labeled: Vec<(NodeId, bool)> = self
                    .members(partner)
                    .iter()
                    .map(|&m| (m, self.honesty(m)))
                    .collect();
                let rng = &mut self.rng;
                let forced = self
                    .malice
                    .as_mut()
                    .and_then(|malice| malice.exchange_victim(&labeled, rng));
                if let Some(forced) = forced {
                    if self.contains_member(partner, forced) {
                        y = forced;
                    }
                }
            }
            self.move_node(x, partner);
            self.move_node(y, c);
            receivers.insert(partner);
            let size_c = self.size(c);
            let size_p = self.size(partner);
            self.ledger.add_messages(size_c + size_p);
            self.ledger.add_rounds(1);
        }
        self.account_neighbor_notification(c);
        for &partner in &receivers {
            self.account_neighbor_notification(partner);
        }
        self.ledger.end();
        receivers
    }

    fn exchange_all(&mut self, c: ClusterId, cascade: bool) {
        let receivers = self.exchange_single(c);
        if cascade {
            for &partner in &receivers {
                self.exchange_single(partner);
            }
        }
    }

    /// Neighbour sizes are read in place; nothing is copied.
    fn account_neighbor_notification(&mut self, c: ClusterId) {
        let size = self.size(c);
        let nbrs = self.neighbor_list(c);
        let mut msgs = 0u64;
        for &nbr in nbrs {
            msgs += size * self.size(nbr);
        }
        self.ledger.add_messages(msgs);
        self.ledger.add_rounds(1);
    }

    // ---------------------------------------------------------------
    // Operation kernels.
    // ---------------------------------------------------------------

    fn plan_join(&mut self, node: NodeId, honest: bool, contact: ClusterId) -> Maintenance {
        self.ledger.begin(CostKind::Join);
        let host = self.rand_cl(contact);
        self.attach_node(node, honest, host);
        let host_size = self.size(host);
        self.ledger.add_messages(host_size);
        self.ledger.add_rounds(1);
        self.account_neighbor_notification(host);
        self.ledger.add_messages(host_size);
        self.ledger.add_rounds(1);
        if self.ctx.params.shuffle_enabled() {
            self.exchange_all(host, false);
        }
        self.ledger.end();
        Maintenance::Split(host)
    }

    fn plan_leave(&mut self, node: NodeId) -> Maintenance {
        // INVARIANT: batch admission rejects leaves of unregistered
        // nodes before specs are formed, so the leaver has a home.
        let home = self.home_of(node).expect("pre-validated leaver");
        self.ledger.begin(CostKind::Leave);
        self.detach_node(node);
        let size = self.size(home);
        self.ledger.add_messages(size);
        self.ledger.add_rounds(1);
        self.account_neighbor_notification(home);
        if self.ctx.params.shuffle_enabled() {
            let cascade = self.ctx.params.cascade_enabled();
            self.exchange_all(home, cascade);
        }
        self.ledger.end();
        Maintenance::Merge(home)
    }
}

/// Plans one operation; pure in `(ctx, spec, rng)` when `malice` is
/// `None`.
fn plan_op(
    ctx: &WaveCtx<'_>,
    spec: &OpSpec,
    rng: DetRng,
    malice: Option<&mut (dyn Malice + 'static)>,
) -> OpPlan {
    let mut planner = Planner::new(ctx, rng, malice);
    let mut contact_redrawn = false;
    let maintenance = match spec.op {
        PlannedOp::Leave { node } => planner.plan_leave(node),
        PlannedOp::Join {
            node,
            honest,
            contact,
        } => {
            // The contact drawn at batch admission can have been
            // dissolved by an earlier wave's merge; re-draw uniformly
            // over all live clusters from the op's own substream
            // (deterministic) — the same rule the serial path
            // (`NowSystem::join`) and the scheduled engine
            // (`step_parallel_specs`) apply to a stale contact, driven
            // by a different stream.
            let contact = if ctx.registry.contains_cluster(contact) {
                contact
            } else {
                contact_redrawn = true;
                let idx = planner.rng.gen_range(0..ctx.registry.cluster_count());
                ctx.registry.cluster_id_at(idx)
            };
            planner.plan_join(node, honest, contact)
        }
    };
    OpPlan {
        cost: planner.ledger.total(),
        effects: planner.effects,
        ledger: planner.ledger,
        maintenance,
        contact_redrawn,
    }
}

/// The worker claim loop shared by the pooled and scoped executors:
/// claim the next op via the atomic cursor, derive its substream, plan
/// it, and park the plan in its positional slot. Because both executors
/// run this exact loop against the same `(master, time_step, canon)`
/// keying, their outputs are bit-identical however claims interleave —
/// and identical to the sequential path.
fn claim_and_plan(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    slots: &[Mutex<Option<OpPlan>>],
    cursor: &AtomicUsize,
    master: u64,
    time_step: u64,
) {
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= specs.len() {
            break;
        }
        let rng = DetRng::for_op(master, time_step, specs[i].canon);
        let plan = plan_op(ctx, &specs[i], rng, None);
        // A poisoned slot means another worker panicked mid-wave. That
        // first panic is re-raised by the executor after quiescence;
        // cascading a second one here would only bury it, so this
        // worker just stops claiming.
        let Ok(mut slot) = slots[i].lock() else {
            return;
        };
        *slot = Some(plan);
    }
}

/// Single-worker planning: the canonical sequential order every
/// parallel execution must reproduce bit for bit.
fn plan_wave_sequential(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    master: u64,
    time_step: u64,
) -> Vec<OpPlan> {
    specs
        .iter()
        .map(|spec| {
            let rng = DetRng::for_op(master, time_step, spec.canon);
            plan_op(ctx, spec, rng, None)
        })
        .collect()
}

/// Drains the positional slots into the wave's plan vector.
///
/// Only called after the executor has observed every worker finish
/// cleanly (a worker panic is re-raised before collection).
fn collect_slots(slots: Vec<Mutex<Option<OpPlan>>>) -> Vec<OpPlan> {
    slots
        .into_iter()
        .map(|slot| {
            // INVARIANT: all workers completed without panicking (the
            // executor re-raised any panic before collecting), so no
            // slot is poisoned and the claim cursor covered every op.
            slot.into_inner()
                .expect("plan slot poisoned")
                .expect("every op planned")
        })
        .collect()
}

/// The **legacy scoped executor**: plans a wave on up to `threads`
/// freshly spawned scoped workers (plain sequential planning when the
/// wave or the thread budget is width 1). Kept as the determinism and
/// spawn-overhead reference for [`WavePool`] — `bench_wave_exec`
/// measures pooled vs scoped, and the property tests pin them
/// bit-equal. Spawns O(waves·threads) threads per run, which is exactly
/// the overhead the pool removes.
fn plan_wave_scoped(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    master: u64,
    time_step: u64,
    threads: usize,
) -> Vec<OpPlan> {
    let n = specs.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return plan_wave_sequential(ctx, specs, master, time_step);
    }
    let slots: Vec<Mutex<Option<OpPlan>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Legacy scoped spawner, kept as the bench/CI reference engine; with
    // WavePool::new below, one of this file's two sanctioned spawn sites
    // (lint.toml D003 allow — gated by tests/pool_spawn_accounting.rs).
    std::thread::scope(|scope| {
        for _ in 0..workers {
            WAVE_WORKER_SPAWNS.fetch_add(1, Ordering::Relaxed);
            scope.spawn(|| claim_and_plan(ctx, specs, &slots, &cursor, master, time_step));
        }
    });
    collect_slots(slots)
}

// -------------------------------------------------------------------
// The persistent wave-worker pool.
// -------------------------------------------------------------------

/// One wave's planning work, type-erased for transport to pool workers.
///
/// The pointers reference the driving thread's stack frame for the
/// current wave (context, specs, slots, cursor). They are only valid
/// during the wave's dispatch window; see the safety contract on
/// [`WavePool::plan_wave`].
struct WaveJob {
    /// Erased `&WaveCtx<'_>` (the lifetime is collapsed for transport;
    /// workers only dereference it inside the dispatch window).
    ctx: *const WaveCtx<'static>,
    specs: *const OpSpec,
    slots: *const Mutex<Option<OpPlan>>,
    cursor: *const AtomicUsize,
    len: usize,
    master: u64,
    time_step: u64,
}

// SAFETY: a `WaveJob` is an inert bundle of pointers plus plain keying
// data. The pointees (`WaveCtx`, `OpSpec`s, slot mutexes, cursor) are
// all `Sync` — workers only read the context/specs and synchronize slot
// writes through the mutexes and the atomic cursor — and the driving
// thread guarantees they outlive every worker access by blocking until
// all completion signals for the wave have been received.
#[allow(unsafe_code)]
unsafe impl Send for WaveJob {}

/// Executes one job: reconstitute the wave references and run the
/// shared claim loop.
fn run_wave_job(job: &WaveJob) {
    // SAFETY: `WavePool::plan_wave` keeps the pointees alive (and the
    // specs/slots slices exactly `len` long) until it has received one
    // completion signal per dispatched job, and this function runs
    // strictly before that job's signal is sent. The collapsed `'static`
    // on the context is never exposed: the reference is used only within
    // this call, inside the dispatch window.
    #[allow(unsafe_code)]
    let (ctx, specs, slots, cursor) = unsafe {
        (
            &*job.ctx,
            std::slice::from_raw_parts(job.specs, job.len),
            std::slice::from_raw_parts(job.slots, job.len),
            &*job.cursor,
        )
    };
    claim_and_plan(ctx, specs, slots, cursor, job.master, job.time_step);
}

/// A worker thread of the pool: its private job channel plus the join
/// handle (each worker owns its own receiver, so dispatching a wave to
/// `k` workers is `k` sends and waking is exact — no shared-queue
/// stampede).
struct PoolWorker {
    job_tx: mpsc::Sender<WaveJob>,
    handle: std::thread::JoinHandle<()>,
}

/// A persistent, channel-fed wave-worker pool: **one spawn per run, not
/// per wave**.
///
/// The scoped executor of PR 3 re-spawned `threads` OS threads for
/// every wave of width ≥ 2, so conflict-heavy batches that schedule
/// into hundreds of narrow waves paid spawn overhead hundreds of times
/// per step. A `WavePool` spawns its workers once, at construction, and
/// feeds them wave-plan jobs over per-worker channels; workers claim
/// operations through the same atomic cursor and write plans into the
/// same positional slots as the scoped path, so the output is
/// **bit-identical** to the scoped executor (and the sequential path)
/// at every thread count — the property tests pin all three equal.
///
/// * `threads == 1` (or 0, see [`normalize_threads`]) spawns **no**
///   workers: planning runs inline on the driving thread.
/// * `threads == t ≥ 2` spawns exactly `t` workers for the pool's whole
///   lifetime — O(threads) spawns per run, asserted by the
///   spawn-accounting test via [`wave_worker_spawn_total`].
/// * A pool is stateless between waves: it can be reused across
///   batches, runs, phases, and even different [`NowSystem`]s, which is
///   how `now-sim` (run-scoped) and `now-campaign` (campaign-scoped)
///   hold one.
///
/// The pool is `Send` but deliberately not `Sync` (its completion
/// receiver is single-consumer): one driving thread at a time.
pub struct WavePool {
    threads: usize,
    workers: Vec<PoolWorker>,
    done_rx: mpsc::Receiver<std::thread::Result<()>>,
}

impl WavePool {
    /// Spawns the pool's workers: `normalize_threads(threads) - 1 + 1`
    /// OS threads when `threads ≥ 2`, none for single-worker pools.
    pub fn new(threads: usize) -> Self {
        let threads = normalize_threads(threads);
        let (done_tx, done_rx) = mpsc::channel();
        let mut workers = Vec::new();
        if threads > 1 {
            // The pool is the workspace's home for worker threads: every
            // other spawn is a D003 finding (lint.toml allows this file).
            for _ in 0..threads {
                let (job_tx, job_rx) = mpsc::channel::<WaveJob>();
                let done = done_tx.clone();
                let handle = std::thread::Builder::new()
                    .name("now-wave-worker".into())
                    .spawn(move || {
                        while let Ok(job) = job_rx.recv() {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_wave_job(&job)
                                }));
                            // The driver counts completion signals; a
                            // dropped receiver means the pool is gone.
                            if done.send(result).is_err() {
                                break;
                            }
                        }
                    })
                    // INVARIANT: spawn fails only on OS thread-resource
                    // exhaustion at pool construction; there is nothing
                    // to degrade to, and failing at startup is the
                    // honest outcome.
                    .expect("spawn wave worker");
                WAVE_WORKER_SPAWNS.fetch_add(1, Ordering::Relaxed);
                workers.push(PoolWorker { job_tx, handle });
            }
        }
        WavePool {
            threads,
            workers,
            done_rx,
        }
    }

    /// The normalized thread budget this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads actually spawned (`threads` for multi-worker
    /// pools, 0 for single-worker pools, which plan inline).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Plans one wave on the pool. Sequential inline planning when the
    /// wave (or the pool) is width 1; otherwise the wave is dispatched
    /// to `min(workers, ops)` workers and the call blocks until every
    /// dispatched worker has drained the cursor.
    fn plan_wave(
        &self,
        ctx: &WaveCtx<'_>,
        specs: &[OpSpec],
        master: u64,
        time_step: u64,
    ) -> Vec<OpPlan> {
        let n = specs.len();
        let participants = self.workers.len().min(n);
        if participants <= 1 {
            return plan_wave_sequential(ctx, specs, master, time_step);
        }
        let slots: Vec<Mutex<Option<OpPlan>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        // Lifetime-collapsing cast for transport; see `WaveJob`.
        let ctx_ptr = (ctx as *const WaveCtx<'_>).cast::<WaveCtx<'static>>();
        // INVARIANT: `participants = workers.len().min(n)`, so the
        // prefix slice is always in bounds.
        for worker in &self.workers[..participants] {
            let job = WaveJob {
                ctx: ctx_ptr,
                specs: specs.as_ptr(),
                slots: slots.as_ptr(),
                cursor: &cursor,
                len: n,
                master,
                time_step,
            };
            // INVARIANT: workers only exit their recv loop when the
            // pool (and thus this sender's peer) is being dropped, so
            // a live pool's job channel always has a receiver.
            worker.job_tx.send(job).expect("pool worker alive");
        }
        // Block until every dispatched worker has finished: this is the
        // synchronization the `WaveJob` safety contract relies on — the
        // wave's stack data (ctx borrow, specs, slots, cursor) stays
        // alive past the last worker access. Worker panics are carried
        // back over the channel and resumed on the driving thread after
        // the wave has fully quiesced.
        let mut worker_panic = None;
        for _ in 0..participants {
            // INVARIANT: every dispatched worker sends exactly one
            // completion signal (even on panic, via catch_unwind), and
            // workers outlive the pool that holds their senders.
            match self.done_rx.recv().expect("pool worker completes") {
                Ok(()) => {}
                Err(panic) => worker_panic = Some(panic),
            }
        }
        if let Some(panic) = worker_panic {
            std::panic::resume_unwind(panic);
        }
        collect_slots(slots)
    }
}

impl Drop for WavePool {
    fn drop(&mut self) {
        // Dropping a worker's sender ends its `recv` loop; joining then
        // cannot deadlock because no jobs are in flight (every
        // `plan_wave` drains its own completions before returning).
        for worker in self.workers.drain(..) {
            drop(worker.job_tx);
            let _ = worker.handle.join();
        }
    }
}

/// Which parallel planner a batched step runs its waves on.
pub(crate) enum PlanEngine<'p> {
    /// The persistent pool (one spawn per pool lifetime).
    Pooled(&'p WavePool),
    /// The legacy scoped executor (spawns per wave); retained as the
    /// determinism/spawn-overhead reference.
    Scoped(usize),
}

/// Order-preserving greedy wave partition over pre-batch footprints
/// (the same rule the serial scheduler applies incrementally). The
/// event engine feeds this the batch in *network delivery order*; the
/// other engines feed it the canonical order.
pub(crate) fn partition_waves(specs: &[OpSpec]) -> Vec<Range<usize>> {
    let mut waves = Vec::new();
    let mut start = 0usize;
    let mut union: BTreeSet<ClusterId> = BTreeSet::new();
    for (i, spec) in specs.iter().enumerate() {
        let conflicts = i > start && spec.footprint.iter().any(|c| union.contains(c));
        if conflicts {
            waves.push(start..i);
            start = i;
            union.clear();
        }
        union.extend(spec.footprint.iter().copied());
    }
    if start < specs.len() {
        waves.push(start..specs.len());
    }
    waves
}

/// The admitted half of a batch: up-front rejection decisions applied,
/// node ids assigned, canonical substream indices fixed. Every engine
/// (scheduled waves, event-driven) starts from this.
pub(crate) struct AdmittedBatch {
    /// Ids assigned to the batch's joiners, in input order.
    pub(crate) joined: Vec<NodeId>,
    /// Departures that passed validation, in input order.
    pub(crate) left: Vec<NodeId>,
    /// Departures refused with the reason.
    pub(crate) rejected: Vec<(NodeId, NowError)>,
    /// The admitted operations in canonical order.
    pub(crate) specs: Vec<OpSpec>,
    /// Steered contacts redrawn at admission.
    pub(crate) contact_redraws: u64,
}

impl NowSystem {
    /// Executes a batch of departures and arrivals as one time step,
    /// *actually running* each conflict-free wave's operations on up to
    /// `threads` worker threads (see the module docs for the execution
    /// model).
    ///
    /// The result is bit-identical at every `threads` value — admitted
    /// ids, population, ledger totals and per-kind statistics, and the
    /// wave schedule all match a `threads = 1` run of the same seed;
    /// only [`BatchReport::wall_nanos`] varies. `threads = 0` is
    /// treated as 1.
    #[deprecated(note = "use `NowSystem::step_batch` with `ExecConfig::threaded`")]
    pub fn step_parallel_threaded(
        &mut self,
        join_honesty: &[bool],
        leaves: &[NodeId],
        threads: usize,
    ) -> BatchReport {
        self.step_batch(
            &crate::exec::BatchInput::from_flags(join_honesty, leaves),
            &crate::exec::ExecConfig::threaded(threads),
        )
    }

    /// [`NowSystem::step_parallel_threaded`] with per-arrival contact
    /// steering (see [`crate::batch::JoinSpec`]).
    #[deprecated(note = "use `NowSystem::step_batch` with `ExecConfig::threaded`")]
    pub fn step_parallel_threaded_specs(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
        threads: usize,
    ) -> BatchReport {
        self.step_batch(
            &crate::exec::BatchInput::from_specs(joins, leaves),
            &crate::exec::ExecConfig::threaded(threads),
        )
    }

    /// [`NowSystem::step_parallel_threaded`] on a caller-held
    /// [`WavePool`].
    #[deprecated(note = "use `NowSystem::step_batch` with `ExecConfig::pooled`")]
    pub fn step_parallel_pooled(
        &mut self,
        join_honesty: &[bool],
        leaves: &[NodeId],
        pool: &WavePool,
    ) -> BatchReport {
        self.step_batch(
            &crate::exec::BatchInput::from_flags(join_honesty, leaves),
            &crate::exec::ExecConfig::pooled(pool),
        )
    }

    /// [`NowSystem::step_parallel_pooled`] with per-arrival contact
    /// steering.
    #[deprecated(note = "use `NowSystem::step_batch` with `ExecConfig::pooled`")]
    pub fn step_parallel_pooled_specs(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
        pool: &WavePool,
    ) -> BatchReport {
        self.step_batch(
            &crate::exec::BatchInput::from_specs(joins, leaves),
            &crate::exec::ExecConfig::pooled(pool),
        )
    }

    /// The legacy scoped executor: bit-identical to the pooled engine
    /// but spawns fresh scoped workers for every wave of width ≥ 2.
    #[deprecated(note = "use `NowSystem::step_batch` with `ExecConfig::scoped`")]
    pub fn step_parallel_scoped_specs(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
        threads: usize,
    ) -> BatchReport {
        self.step_batch(
            &crate::exec::BatchInput::from_specs(joins, leaves),
            &crate::exec::ExecConfig::scoped(threads),
        )
    }

    /// Validates a batch up front and fixes the canonical order:
    /// departures before arrivals, each in input order, with the
    /// per-operation substream index ([`OpSpec::canon`]) equal to the
    /// operation's canonical position. Shared by the wave engines and
    /// the event engine, so admission semantics cannot drift between
    /// them.
    pub(crate) fn admit_batch(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
    ) -> AdmittedBatch {
        let step = self.time_step;
        let mut joined = Vec::with_capacity(joins.len());
        let mut left = Vec::new();
        let mut rejected = Vec::new();
        let mut specs: Vec<OpSpec> = Vec::new();
        let floor = self.params.min_population();
        let mut projected = self.population();
        let mut claimed: BTreeSet<NodeId> = BTreeSet::new();
        for &node in leaves {
            if projected <= floor {
                self.hub
                    .event(step, TraceData::OpRejected { node: node.raw() });
                rejected.push((
                    node,
                    NowError::PopulationFloor {
                        population: projected,
                        floor,
                    },
                ));
                continue;
            }
            if claimed.contains(&node) {
                self.hub
                    .event(step, TraceData::OpRejected { node: node.raw() });
                rejected.push((node, NowError::UnknownNode { node }));
                continue;
            }
            match self.node_cluster(node) {
                Ok(home) => {
                    claimed.insert(node);
                    projected -= 1;
                    left.push(node);
                    let canon = specs.len() as u64;
                    self.hub.event(
                        step,
                        TraceData::OpPlanned {
                            canon,
                            join: false,
                            node: node.raw(),
                        },
                    );
                    specs.push(OpSpec {
                        op: PlannedOp::Leave { node },
                        footprint: self.op_footprint(home),
                        canon,
                        center: home,
                        contact_redrawn: false,
                    });
                }
                Err(e) => {
                    self.hub
                        .event(step, TraceData::OpRejected { node: node.raw() });
                    rejected.push((node, e));
                }
            }
        }
        // Redraws are counted when the op's wave executes (via the
        // spec flag), so admission itself reports zero.
        let contact_redraws = 0u64;
        for &spec in joins {
            // Admission-time resolution against the pre-batch state;
            // contacts dissolved later, by an earlier *wave* of this
            // batch, get the plan-time redraw in `plan_op`. Either way
            // the op counts as at most one redraw (see `OpSpec`).
            let (contact, redrawn) = self.resolve_batch_contact(spec);
            let node = self.ids.node();
            joined.push(node);
            let canon = specs.len() as u64;
            self.hub.event(
                step,
                TraceData::OpPlanned {
                    canon,
                    join: true,
                    node: node.raw(),
                },
            );
            specs.push(OpSpec {
                op: PlannedOp::Join {
                    node,
                    honest: spec.honest,
                    contact,
                },
                footprint: self.op_footprint(contact),
                canon,
                center: contact,
                contact_redrawn: redrawn,
            });
        }
        AdmittedBatch {
            joined,
            left,
            rejected,
            specs,
            contact_redraws,
        }
    }

    pub(crate) fn step_waves_impl(
        &mut self,
        joins: &[crate::batch::JoinSpec],
        leaves: &[NodeId],
        engine: PlanEngine<'_>,
    ) -> BatchReport {
        // Wall-clock measurement only: feeds `wall_nanos`, which is
        // excluded from byte-diffed reports.
        let start = now_trace::stopwatch();
        self.ledger.begin(CostKind::Batch);

        let AdmittedBatch {
            joined,
            left,
            rejected,
            specs,
            mut contact_redraws,
        } = self.admit_batch(joins, leaves);

        let waves = partition_waves(&specs);
        let master = self.rng.next_u64();

        let mut wave_stats: Vec<WaveStats> = Vec::with_capacity(waves.len());
        for wave in waves {
            let stats = self.execute_wave(&specs[wave], &engine, master, &mut contact_redraws);
            wave_stats.push(stats);
        }

        if contact_redraws > 0 {
            self.hub.event(
                self.time_step,
                TraceData::ContactRedraws {
                    count: contact_redraws,
                },
            );
        }
        let rounds_parallel = wave_stats.iter().map(|w| w.rounds_max).sum();
        let cost = self.ledger.end();
        self.advance_time_step();
        BatchReport {
            joined,
            left,
            rejected,
            cost,
            rounds_parallel,
            waves: wave_stats,
            contact_redraws,
            dropped: 0,
            events: Vec::new(),
            wall_nanos: start.elapsed_nanos(),
        }
    }

    /// Plans and applies one conflict-free wave: plan on the engine's
    /// workers (sequentially for a strategic Malice), apply effects
    /// canonically through the wave shards, fold ledgers, then run the
    /// deferred size maintenance. Shared by the wave engines (canonical
    /// order) and the event engine (delivery order).
    pub(crate) fn execute_wave(
        &mut self,
        wave_specs: &[OpSpec],
        engine: &PlanEngine<'_>,
        master: u64,
        contact_redraws: &mut u64,
    ) -> WaveStats {
        let time_step = self.time_step;
        let neutral = self.malice.is_neutral();
        let recording = self.ledger.is_recording();

        {
            // ---- plan (workers; sequential for a strategic Malice) ----
            let ctx = WaveCtx {
                registry: &self.registry,
                overlay: &self.overlay,
                params: self.params,
                recording,
            };
            let plan_start = now_trace::stopwatch();
            let plans: Vec<OpPlan> = if neutral {
                match *engine {
                    PlanEngine::Pooled(pool) => pool.plan_wave(&ctx, wave_specs, master, time_step),
                    PlanEngine::Scoped(threads) => {
                        plan_wave_scoped(&ctx, wave_specs, master, time_step, threads)
                    }
                }
            } else {
                wave_specs
                    .iter()
                    .map(|spec| {
                        let rng = DetRng::for_op(master, time_step, spec.canon);
                        plan_op(&ctx, spec, rng, Some(&mut *self.malice))
                    })
                    .collect()
            };
            plan_start.record_into(&WAVE_PLAN_NANOS);

            // ---- wave stats from the planned costs ----
            let mut stats = WaveStats::default();
            for (spec, plan) in wave_specs.iter().zip(&plans) {
                stats.ops += 1;
                stats.rounds_max = stats.rounds_max.max(plan.cost.rounds);
                stats.rounds_total += plan.cost.rounds;
                stats.messages += plan.cost.messages;
                if spec.contact_redrawn || plan.contact_redrawn {
                    *contact_redraws += 1;
                }
            }
            self.hub.event(
                time_step,
                TraceData::Wave {
                    ops: stats.ops as u64,
                    rounds: stats.rounds_max,
                    messages: stats.messages,
                },
            );

            // ---- apply effects canonically through the wave shards ----
            // `touched` collects every cluster whose membership actually
            // changed: canonical conflict resolution (two ops drawing
            // the same exchange victim, relocations voided by an
            // earlier departure) can net-change the size of clusters
            // that are *nobody's* host or home, and those must still be
            // maintenance-checked below.
            let mut touched: BTreeSet<ClusterId> = BTreeSet::new();
            {
                let shards = self.registry.wave_shards();
                for (spec, plan) in wave_specs.iter().zip(&plans) {
                    let mut handle = shards.handle(&spec.footprint);
                    for effect in &plan.effects {
                        match *effect {
                            Effect::Detach { node } => match shards.node_record(node) {
                                Some(rec) if handle.covers(rec.cluster) => {
                                    handle.detach(node);
                                    touched.insert(rec.cluster);
                                }
                                Some(rec) => {
                                    shards.detach_any(node);
                                    touched.insert(rec.cluster);
                                }
                                None => {}
                            },
                            Effect::Attach {
                                node,
                                honest,
                                cluster,
                            } => {
                                if handle.covers(cluster) {
                                    handle.attach(node, honest, cluster);
                                } else {
                                    shards.attach_any(node, honest, cluster);
                                }
                                touched.insert(cluster);
                            }
                            Effect::Move { node, to } => match shards.node_record(node) {
                                Some(rec) if handle.covers(rec.cluster) && handle.covers(to) => {
                                    handle.move_within(node, to);
                                    touched.insert(rec.cluster);
                                    touched.insert(to);
                                }
                                Some(rec) => {
                                    shards.move_any(node, to);
                                    touched.insert(rec.cluster);
                                    touched.insert(to);
                                }
                                // The node departed earlier in this
                                // wave: the relocation is void.
                                None => {}
                            },
                        }
                    }
                }
                let (pop_delta, byz_delta) = shards.deltas();
                // INVARIANT: the deltas are sums over this wave's own
                // attach/detach calls against live records, so they can
                // never drive a counter below the pre-wave value.
                self.registry
                    .apply_wave_deltas(pop_delta, byz_delta)
                    .expect("wave deltas balance");
            }

            // ---- fold ledgers + op counters canonically ----
            for (spec, plan) in wave_specs.iter().zip(&plans) {
                let (join, node) = match spec.op {
                    PlannedOp::Join { node, .. } => {
                        self.join_count += 1;
                        (true, node)
                    }
                    PlannedOp::Leave { node } => {
                        self.leave_count += 1;
                        (false, node)
                    }
                };
                self.hub.event(
                    time_step,
                    TraceData::OpApplied {
                        canon: spec.canon,
                        join,
                        node: node.raw(),
                    },
                );
                self.ledger.merge_child(&plan.ledger);
            }

            // ---- deferred maintenance ----
            // First each op's own host/home in canonical order (the
            // direct analogue of the serial oversize/undersize checks),
            // then a sweep over every other touched cluster in
            // ascending id order — a deterministic net to catch
            // size-band escapes that conflict resolution produced on
            // third-party clusters.
            for plan in &plans {
                match plan.maintenance {
                    Maintenance::Split(c) => {
                        touched.remove(&c);
                        if self.registry.contains_cluster(c)
                            && self.cluster_ref(c).size() > self.params.max_cluster_size()
                        {
                            self.split(c);
                        }
                    }
                    Maintenance::Merge(c) => {
                        touched.remove(&c);
                        if self.registry.contains_cluster(c)
                            && self.cluster_ref(c).size() < self.params.min_cluster_size()
                            && self.cluster_count() > 1
                        {
                            self.merge(c);
                        }
                    }
                }
            }
            for c in touched {
                if !self.registry.contains_cluster(c) {
                    continue;
                }
                if self.cluster_ref(c).size() > self.params.max_cluster_size() {
                    self.split(c);
                } else if self.cluster_ref(c).size() < self.params.min_cluster_size()
                    && self.cluster_count() > 1
                {
                    self.merge(c);
                }
            }

            stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{BatchInput, ExecConfig};
    use crate::params::NowParams;
    use now_net::CostKind;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    /// Sparse overlay (capacity 16 ⇒ target degree 5) over 64 clusters:
    /// wide waves exist.
    fn sparse_system(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(16).unwrap();
        let n0 = 64 * params.target_cluster_size();
        NowSystem::init_fast(params, n0, 0.1, seed)
    }

    /// Full observable fingerprint of a run: everything the
    /// bit-determinism contract covers.
    fn fingerprint(sys: &NowSystem, report: &BatchReport) -> impl PartialEq + std::fmt::Debug {
        (
            (
                sys.population(),
                sys.byz_population(),
                sys.node_ids(),
                sys.cluster_ids(),
                sys.op_counts(),
            ),
            (
                report.joined.clone(),
                report.left.clone(),
                report
                    .rejected
                    .iter()
                    .map(|(n, e)| (*n, format!("{e:?}")))
                    .collect::<Vec<_>>(),
            ),
            (
                report.cost,
                report.rounds_parallel,
                report.waves.clone(),
                report.contact_redraws,
            ),
            (
                sys.ledger().total(),
                CostKind::ALL
                    .iter()
                    .map(|&k| sys.ledger().stats(k))
                    .collect::<Vec<_>>(),
            ),
        )
    }

    fn run_threaded(
        seed: u64,
        joins: &[bool],
        n_leaves: usize,
        threads: usize,
    ) -> (NowSystem, BatchReport) {
        let mut sys = sparse_system(seed);
        let leaves: Vec<NodeId> = sys
            .node_ids()
            .into_iter()
            .step_by(17)
            .take(n_leaves)
            .collect();
        let report = sys.step_batch(
            &BatchInput::from_flags(joins, &leaves),
            &ExecConfig::threaded(threads),
        );
        (sys, report)
    }

    #[test]
    fn thread_count_is_unobservable() {
        let joins = [true, false, true, true, false, true];
        for threads in [2usize, 4, 8] {
            let (s1, r1) = run_threaded(11, &joins, 6, 1);
            let (st, rt) = run_threaded(11, &joins, 6, threads);
            assert_eq!(
                fingerprint(&s1, &r1),
                fingerprint(&st, &rt),
                "threads=1 vs threads={threads} diverged"
            );
            st.check_consistency().unwrap();
        }
    }

    #[test]
    fn zero_threads_is_one_thread() {
        let (s0, r0) = run_threaded(3, &[true, false], 2, 0);
        let (s1, r1) = run_threaded(3, &[true, false], 2, 1);
        assert_eq!(fingerprint(&s0, &r0), fingerprint(&s1, &r1));
    }

    #[test]
    fn threads_knob_normalizes_identically_everywhere() {
        // The one shared rule: 0 means 1. Pinned here for the helper
        // itself and for each now-core entry point that takes the knob;
        // now-sim and now-campaign have their own regression tests
        // built on the same helper.
        assert_eq!(normalize_threads(0), 1);
        assert_eq!(normalize_threads(1), 1);
        assert_eq!(normalize_threads(7), 7);
        let pool = WavePool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.worker_count(), 0, "single-worker pools plan inline");
        let joins = [true, false];
        let scoped = |threads: usize| {
            let mut sys = sparse_system(3);
            let leaves: Vec<NodeId> = sys.node_ids().into_iter().step_by(17).take(2).collect();
            let specs: Vec<crate::batch::JoinSpec> = joins
                .iter()
                .map(|&h| crate::batch::JoinSpec::uniform(h))
                .collect();
            let report = sys.step_batch(
                &BatchInput::from_specs(&specs, &leaves),
                &ExecConfig::scoped(threads),
            );
            (fingerprint(&sys, &report), sys)
        };
        let (f0, _) = scoped(0);
        let (f1, _) = scoped(1);
        assert_eq!(f0, f1, "scoped executor: threads=0 must equal threads=1");
    }

    /// The tentpole contract: the pooled engine, the legacy scoped
    /// engine, and sequential planning are bit-identical on the full
    /// observable fingerprint, for multi-wave batches at several thread
    /// counts.
    #[test]
    fn pooled_equals_scoped_equals_sequential() {
        let joins = [true, false, true, true, false, true, true, false];
        let build = || {
            let sys = sparse_system(21);
            let leaves: Vec<NodeId> = sys.node_ids().into_iter().step_by(11).take(8).collect();
            (sys, leaves)
        };
        let specs: Vec<crate::batch::JoinSpec> = joins
            .iter()
            .map(|&h| crate::batch::JoinSpec::uniform(h))
            .collect();
        let (mut seq_sys, leaves) = build();
        let seq_report = seq_sys.step_batch(
            &BatchInput::from_specs(&specs, &leaves),
            &ExecConfig::threaded(1),
        );
        assert!(
            seq_report.waves.len() >= 2,
            "want a multi-wave batch: {:?}",
            seq_report.waves
        );
        for threads in [2usize, 4, 8] {
            let (mut pooled_sys, leaves) = build();
            let pool = WavePool::new(threads);
            let pooled_report = pooled_sys.step_batch(
                &BatchInput::from_specs(&specs, &leaves),
                &ExecConfig::pooled(&pool),
            );
            let (mut scoped_sys, leaves) = build();
            let scoped_report = scoped_sys.step_batch(
                &BatchInput::from_specs(&specs, &leaves),
                &ExecConfig::scoped(threads),
            );
            assert_eq!(
                fingerprint(&seq_sys, &seq_report),
                fingerprint(&pooled_sys, &pooled_report),
                "sequential vs pooled({threads}) diverged"
            );
            assert_eq!(
                fingerprint(&seq_sys, &seq_report),
                fingerprint(&scoped_sys, &scoped_report),
                "sequential vs scoped({threads}) diverged"
            );
            pooled_sys.check_consistency().unwrap();
        }
    }

    /// A run-scoped pool reused across many batches (and across
    /// systems) produces exactly what per-batch pools produce: the pool
    /// carries no state between waves.
    #[test]
    fn pool_reuse_across_batches_is_stateless() {
        let run = |reuse: bool| {
            let mut sys = sparse_system(17);
            let mut out = Vec::new();
            let shared = WavePool::new(4);
            for step in 0..6u64 {
                let leaves: Vec<NodeId> = sys
                    .node_ids()
                    .into_iter()
                    .step_by(13)
                    .take(3 + (step as usize % 3))
                    .collect();
                let joins = [step % 2 == 0, true, false];
                let report = if reuse {
                    sys.step_batch(
                        &BatchInput::from_flags(&joins, &leaves),
                        &ExecConfig::pooled(&shared),
                    )
                } else {
                    let fresh = WavePool::new(4);
                    sys.step_batch(
                        &BatchInput::from_flags(&joins, &leaves),
                        &ExecConfig::pooled(&fresh),
                    )
                };
                out.push((
                    report.joined,
                    report.left,
                    report.cost,
                    report.waves,
                    report.rounds_parallel,
                ));
            }
            sys.check_consistency().unwrap();
            (out, sys.population(), sys.node_ids(), sys.ledger().total())
        };
        assert_eq!(run(true), run(false), "pool reuse changed outcomes");
    }

    /// Steered contacts that are already dead at batch admission
    /// degrade to the uniform redraw — same rule, and same count
    /// surfaced, in the scheduled and threaded engines.
    #[test]
    fn stale_contact_at_admission_redraws_in_both_engines() {
        let ghost = ClusterId::from_raw(999_999);
        let joins = [
            crate::batch::JoinSpec::via(ghost, true),
            crate::batch::JoinSpec::uniform(true),
        ];
        let mut scheduled = system(150, 31);
        assert!(scheduled.cluster(ghost).is_none());
        let r = scheduled.step_batch(&BatchInput::from_specs(&joins, &[]), &ExecConfig::serial());
        assert_eq!(r.contact_redraws, 1, "scheduled engine counts the redraw");
        assert_eq!(r.joined.len(), 2);
        scheduled.check_consistency().unwrap();

        let mut threaded = system(150, 31);
        let r = threaded.step_batch(
            &BatchInput::from_specs(&joins, &[]),
            &ExecConfig::threaded(4),
        );
        assert_eq!(r.contact_redraws, 1, "threaded engine counts the redraw");
        assert_eq!(r.joined.len(), 2);
        threaded.check_consistency().unwrap();
    }

    /// Regression for the plan-time redraw (`plan_join` fallback): a
    /// batch in which an earlier wave's merge dissolves a later join's
    /// steered contact must redraw uniformly from the op's substream —
    /// deterministically across thread counts — rather than panic or
    /// silently attach to a dead cluster.
    #[test]
    fn merge_dissolving_steered_contact_mid_batch_redraws() {
        // Dense capacity-2¹⁰ overlay: every footprint spans the whole
        // cluster set, so the steered join serializes into its own wave
        // *after* all departures — by which point the undersize merge
        // has already run. Shuffle is disabled so the targeted members
        // stay in their home cluster (exchanges would relocate them and
        // defuse the merge).
        let build = |seed: u64| {
            let params = NowParams::for_capacity(1 << 10)
                .unwrap()
                .with_shuffle(false);
            NowSystem::init_fast(params, 200, 0.2, seed)
        };
        let mut exercised = false;
        for seed in 0..20u64 {
            let sys = build(seed);
            let min = sys.params().min_cluster_size();
            let smallest = sys
                .clusters()
                .min_by_key(|c| (c.size(), c.id()))
                .expect("live system");
            let need = smallest.size() - min + 1;
            let leaves: Vec<NodeId> = smallest.member_slice().iter().copied().take(need).collect();
            let ids_before = sys.cluster_ids();

            // Probe: which cluster does the batch's merge dissolve?
            let mut probe = build(seed);
            probe.step_batch(
                &BatchInput::from_flags(&[], &leaves),
                &ExecConfig::threaded(1),
            );
            let dissolved: Vec<ClusterId> = ids_before
                .iter()
                .copied()
                .filter(|&c| probe.cluster(c).is_none())
                .collect();

            for &victim in &dissolved {
                let joins = [crate::batch::JoinSpec::via(victim, true)];
                let mut s1 = build(seed);
                let r1 = s1.step_batch(
                    &BatchInput::from_specs(&joins, &leaves),
                    &ExecConfig::threaded(1),
                );
                if r1.contact_redraws == 0 {
                    continue;
                }
                exercised = true;
                assert_eq!(r1.joined.len(), 1, "redrawn join still admitted");
                assert!(
                    s1.cluster(victim).is_none(),
                    "contact was dissolved mid-batch"
                );
                s1.check_consistency().unwrap();
                let mut s4 = build(seed);
                let r4 = s4.step_batch(
                    &BatchInput::from_specs(&joins, &leaves),
                    &ExecConfig::threaded(4),
                );
                assert_eq!(
                    fingerprint(&s1, &r1),
                    fingerprint(&s4, &r4),
                    "plan-time redraw diverged across thread counts (seed {seed})"
                );
            }
            if exercised {
                break;
            }
        }
        assert!(
            exercised,
            "no probed seed dissolved a later op's steered contact — construction rotted"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let (s1, r1) = run_threaded(5, &[true, true], 3, 4);
        let (s2, r2) = run_threaded(6, &[true, true], 3, 4);
        assert_ne!(
            format!("{:?}", fingerprint(&s1, &r1)),
            format!("{:?}", fingerprint(&s2, &r2))
        );
    }

    #[test]
    fn wide_disjoint_batches_schedule_wide_waves() {
        let (sys, report) = run_threaded(9, &[true; 8], 8, 4);
        assert_eq!(report.joined.len(), 8);
        assert_eq!(report.left.len(), 8);
        assert!(
            report.max_wave_width() >= 2,
            "sparse overlay should admit concurrent ops: {:?}",
            report.waves
        );
        assert!(report.rounds_parallel < report.cost.rounds);
        // Deferred split/merge maintenance is accounted in the batch
        // span but outside the wave ops, so the wave serial sums bound
        // the batch rounds from below.
        assert!(
            report.waves.iter().map(|w| w.rounds_total).sum::<u64>() <= report.cost.rounds,
            "wave serial sums cannot exceed the batch rounds"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn rejection_rules_match_serial_semantics() {
        let params = NowParams::for_capacity(1 << 10).unwrap(); // floor 32
        let mut sys = NowSystem::init_fast(params, 33, 0.0, 4);
        let nodes = sys.node_ids();
        // One fits above the floor, the duplicate and the rest reject.
        let leaves = [nodes[0], nodes[0], nodes[1]];
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leaves),
            &ExecConfig::threaded(4),
        );
        assert_eq!(report.left, vec![nodes[0]]);
        assert_eq!(report.rejected.len(), 2);
        assert!(matches!(
            report.rejected[0].1,
            NowError::PopulationFloor { .. } | NowError::UnknownNode { .. }
        ));
        assert_eq!(
            report.waves.iter().map(|w| w.ops).sum::<usize>(),
            1,
            "rejected ops occupy no wave slot"
        );
        sys.check_consistency().unwrap();
    }

    #[test]
    fn sustained_threaded_batches_keep_invariants() {
        let mut sys = system(220, 7);
        let (lo, hi) = (
            sys.params().min_cluster_size(),
            sys.params().max_cluster_size(),
        );
        for round in 0..25u64 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
            let joins = [round % 3 != 0, true];
            let report = sys.step_batch(
                &BatchInput::from_flags(&joins, &leavers),
                &ExecConfig::threaded(4),
            );
            assert_eq!(report.joined.len(), 2);
            sys.check_consistency().unwrap();
            // The size band must hold after *every* batch — including
            // on clusters that were only touched by conflict
            // resolution, not by any op's own host/home maintenance.
            for c in sys.clusters() {
                assert!(c.size() <= hi, "cluster {} over band: {}", c.id(), c.size());
                if sys.cluster_count() > 1 {
                    assert!(
                        c.size() >= lo,
                        "cluster {} under band: {}",
                        c.id(),
                        c.size()
                    );
                }
            }
        }
        let audit = sys.audit();
        assert!(audit.size_bounds_ok);
        let (joins, leaves, _, _) = sys.op_counts();
        assert!(joins >= 50 && leaves >= 50);
    }

    /// Tripwire for kernel/serial drift: the planner mirrors the serial
    /// join/leave/exchange/walk implementations, so a single-op batch
    /// and a serial op are the *same cost model* driven by different
    /// streams. The span-kind sets must agree exactly and the ensemble
    /// mean per-op message cost must stay within a tight band — a
    /// change to the serial semantics (new ledger span, changed walk
    /// formula, cascade rule) that is not mirrored here trips this
    /// before it silently forks the two engines.
    #[test]
    fn mirror_tracks_serial_cost_model() {
        use std::collections::BTreeSet;
        let span_kinds = |sys: &NowSystem| -> BTreeSet<CostKind> {
            CostKind::ALL
                .iter()
                .copied()
                .filter(|&k| k != CostKind::Batch && sys.ledger().stats(k).count > 0)
                .collect()
        };
        // Sized so no split/merge triggers: serial nests maintenance
        // inside the op span while the engine accounts it as a sibling,
        // which would skew the comparison.
        let mut serial_join = 0u64;
        let mut mirror_join = 0u64;
        let mut serial_leave = 0u64;
        let mut mirror_leave = 0u64;
        for seed in 0..12u64 {
            let mut a = system(160, seed);
            a.join(true);
            let victim = a.node_ids()[0];
            a.leave(victim).unwrap();
            serial_join += a.ledger().stats(CostKind::Join).total_messages;
            serial_leave += a.ledger().stats(CostKind::Leave).total_messages;

            let mut b = system(160, seed);
            b.step_batch(
                &BatchInput::from_flags(&[true], &[]),
                &ExecConfig::threaded(1),
            );
            let victim = b.node_ids()[0];
            b.step_batch(
                &BatchInput::from_flags(&[], &[victim]),
                &ExecConfig::threaded(1),
            );
            mirror_join += b.ledger().stats(CostKind::Join).total_messages;
            mirror_leave += b.ledger().stats(CostKind::Leave).total_messages;

            assert_eq!(
                span_kinds(&a),
                span_kinds(&b),
                "span-kind sets diverged (seed {seed})"
            );
        }
        for (serial, mirror, what) in [
            (serial_join, mirror_join, "join"),
            (serial_leave, mirror_leave, "leave"),
        ] {
            let ratio = mirror as f64 / serial as f64;
            assert!(
                (0.75..=1.33).contains(&ratio),
                "{what} mean cost drifted: serial {serial}, mirror {mirror} (×{ratio:.3})"
            );
        }
    }

    fn wave_ctx(sys: &NowSystem) -> WaveCtx<'_> {
        WaveCtx {
            registry: &sys.registry,
            overlay: &sys.overlay,
            params: sys.params,
            recording: false,
        }
    }

    /// The two walk kernels are one walk: on the same state and the
    /// same stream, the serial `rand_cl_from` and the planner's mirror
    /// stop at the same cluster, leave the stream at the same word, and
    /// book the same `RandCl` / `RandNum` spans — from secure starts
    /// and from a start cluster the adversary holds past 1/3.
    #[test]
    fn serial_and_planner_walks_agree() {
        let mut sys = system(400, 14);
        // Pollute one cluster past 1/3 by registry surgery: honest
        // members out until `randNum` is compromised there.
        let victim = sys.cluster_ids()[0];
        let refuge = sys.cluster_ids()[1];
        while sys.cluster(victim).unwrap().rand_num_secure() {
            let honest = sys
                .cluster(victim)
                .unwrap()
                .members()
                .find(|&m| sys.is_honest(m).unwrap())
                .expect("has honest members");
            sys.move_node(honest, refuge);
        }
        sys.check_consistency().unwrap();
        let secure_start = sys.cluster_ids()[2];
        assert!(sys.cluster(secure_start).unwrap().rand_num_secure());

        let mut compromised_hops = 0;
        for (walk, start) in [victim, secure_start]
            .into_iter()
            .cycle()
            .take(40)
            .enumerate()
        {
            let stream = DetRng::new(1000 + walk as u64);

            let (planned_end, planned_word, planned_ledger) = {
                let ctx = wave_ctx(&sys);
                let mut planner = Planner::new(&ctx, stream.clone(), None);
                let end = planner.rand_cl(start);
                assert!(planner.views.is_empty(), "a walk edits nothing");
                (end, planner.rng.next_u64(), planner.ledger)
            };

            sys.rng = stream;
            sys.ledger = Ledger::new();
            let (serial_end, trace) = sys.rand_cl_from(start);
            compromised_hops += trace.compromised_hops;

            assert_eq!(serial_end, planned_end, "endpoint of walk {walk}");
            assert_eq!(sys.rng.next_u64(), planned_word, "stream after walk {walk}");
            assert_eq!(sys.ledger.total(), planned_ledger.total());
            for kind in [CostKind::RandCl, CostKind::RandNum] {
                assert_eq!(
                    sys.ledger.stats(kind),
                    planned_ledger.stats(kind),
                    "{kind} of walk {walk}"
                );
            }
            assert!(sys.ledger.stats(CostKind::RandNum).count > 0);
        }
        assert!(
            compromised_hops > 0,
            "walks from the victim hop compromised"
        );
    }

    /// Deterministic work gate for the copy-on-write views: a join
    /// planned on a 1024-cluster system copies the membership of the
    /// clusters it edits — its host and its exchange partners — and of
    /// none of the clusters its walks merely pass through.
    #[test]
    fn join_materializes_views_only_for_edited_clusters() {
        let params = NowParams::for_capacity(1 << 16).unwrap();
        let sys = NowSystem::init_fast(params, 1024 * params.target_cluster_size(), 0.05, 3);
        assert_eq!(sys.cluster_count(), 1024);
        let ctx = wave_ctx(&sys);
        let mut planner = Planner::new(&ctx, DetRng::new(9), None);
        let joiner = NodeId::from_raw(1 << 40);
        let contact = sys.cluster_ids()[17];
        let Maintenance::Split(host) = planner.plan_join(joiner, true, contact) else {
            panic!("a join defers a split check");
        };

        // Host and partners, read off the planned effects.
        let mut edited = BTreeSet::from([host]);
        for effect in &planner.effects {
            match *effect {
                Effect::Attach { cluster, .. } => assert_eq!(cluster, host),
                Effect::Move { to, .. } => {
                    edited.insert(to);
                }
                Effect::Detach { .. } => panic!("a join detaches nobody"),
            }
        }
        let viewed: BTreeSet<ClusterId> = sys
            .cluster_ids()
            .into_iter()
            .filter(|&c| planner.view(planner.slot_of(c)).is_some())
            .collect();
        assert_eq!(viewed, edited, "views exist exactly for host + partners");
        assert_eq!(planner.views.len(), edited.len());

        // The walks went far wider than that: one per exchanged member
        // plus the host draw, dozens of hops each (a hop books one
        // round on top of its draws' two each).
        let walks = planner.ledger.stats(CostKind::RandCl);
        assert!(walks.count > 30, "walks: {}", walks.count);
        let draws = planner.ledger.stats(CostKind::RandNum);
        let hops = walks.total_rounds - draws.total_rounds;
        assert!(hops > 1024, "hops: {hops}");
        let host_size = sys.cluster(host).unwrap().size() + 1;
        assert!(edited.len() <= 1 + host_size);

        // Ids copied: each edited cluster once, plus the one exchange
        // snapshot of the host.
        let copied_into_views: usize = edited.iter().map(|&c| sys.cluster(c).unwrap().size()).sum();
        assert_eq!(planner.member_ids_copied, copied_into_views + host_size);
    }

    #[test]
    fn maintenance_still_triggers_under_threading() {
        // Dense capacity-2¹⁰ system: sustained shrinkage must merge,
        // sustained growth must split — through the deferred path.
        let mut sys = system(220, 8);
        for _ in 0..30 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(3).collect();
            sys.step_batch(
                &BatchInput::from_flags(&[], &leavers),
                &ExecConfig::threaded(4),
            );
            sys.check_consistency().unwrap();
        }
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "shrinkage must merge through the wave engine");

        let mut grow = system(100, 9);
        for _ in 0..30 {
            grow.step_batch(
                &BatchInput::from_flags(&[true, true, true, true], &[]),
                &ExecConfig::threaded(4),
            );
            grow.check_consistency().unwrap();
        }
        let (_, _, splits, _) = grow.op_counts();
        assert!(splits > 0, "growth must split through the wave engine");
    }

    #[test]
    fn batch_lands_under_batch_cost_kind_with_nested_ops() {
        let mut sys = system(150, 10);
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, false], &[]),
            &ExecConfig::threaded(2),
        );
        assert_eq!(report.joined.len(), 2);
        let batch = sys.ledger().stats(CostKind::Batch);
        assert_eq!(batch.count, 1);
        assert_eq!(batch.total_messages, report.cost.messages);
        assert_eq!(sys.ledger().stats(CostKind::Join).count, 2);
        assert!(sys.ledger().stats(CostKind::RandCl).count > 0);
        assert!(sys.ledger().is_balanced());
    }

    #[test]
    fn empty_batch_advances_time_only() {
        let mut sys = system(100, 11);
        let t0 = sys.time_step();
        let total = sys.ledger().total();
        let report = sys.step_batch(&BatchInput::from_flags(&[], &[]), &ExecConfig::threaded(8));
        assert_eq!(sys.time_step(), t0 + 1);
        assert_eq!(report.cost, Cost::ZERO);
        assert_eq!(sys.ledger().total(), total);
        assert_eq!(report.wave_count(), 0);
    }

    #[test]
    fn recording_ledger_survives_threaded_merge() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let mut sys = NowSystem::init_fast(params, 150, 0.1, 12);
        *sys.ledger_mut() = Ledger::recording();
        let go = |threads: usize| {
            let mut s = NowSystem::init_fast(params, 150, 0.1, 12);
            *s.ledger_mut() = Ledger::recording();
            s.step_batch(
                &BatchInput::from_flags(&[true, true, false], &[]),
                &ExecConfig::threaded(threads),
            );
            s.ledger().records().to_vec()
        };
        let serial = go(1);
        let threaded = go(4);
        assert!(!serial.is_empty());
        assert_eq!(serial, threaded, "record streams must be bit-identical");
        sys.check_consistency().unwrap();
    }
}
