//! The wave engine: executes a batch as conflict-free waves, planning
//! each wave's operations in parallel while keeping the run
//! **bit-identical at every thread count** — same admitted ids, same
//! population, same ledger totals, same wave schedule whether the
//! batch is planned on the driving thread alone or by a pool of 2 or 8
//! planners.
//!
//! # Worker pool
//!
//! Waves are planned on a persistent, channel-fed [`WavePool`]: workers
//! spawn **once per pool** (held by the caller of `step_batch`;
//! campaign-scoped in `now-campaign`) and receive wave-plan jobs over
//! per-worker channels — O(threads) thread spawns per run, however many
//! narrow waves a conflict-heavy batch schedules into. The driving
//! thread is one of a pool's `threads` planners: it takes a wave's
//! first op before it dispatches, then claims operations through the
//! same atomic cursor as the workers. Every planner writes its plans
//! into positional write-once slots (`OnceLock`), so pooled planning is
//! bit-identical to sequential planning on the driving thread
//! (`ExecConfig::scheduled()`), the reference every pooled run is
//! tested against. The cursor hands each index to exactly one planner,
//! so no slot is ever contended and nothing in the pool takes a lock: a
//! planner that panics leaves its slot empty, the pool re-raises the
//! panic on the driving thread once the wave has quiesced, and the
//! same pool plans the next wave.
//!
//! # How determinism survives threading
//!
//! Three mechanisms, mirrored by `vendor/README.md`'s determinism
//! notes:
//!
//! 1. **Plan/apply split.** Each operation is *planned* by the op
//!    kernel ([`crate::kernel`]) — the same join/leave/exchange/walk
//!    code a wave of one op runs on the live registry — over a
//!    [`Planner`]: a copy-on-write *view* of the immutable pre-wave
//!    state (registry + walk table are shared read-only across workers)
//!    that overlays the operation's own edits — snapshot-isolation
//!    semantics; a cluster the op has not edited is read in place from
//!    the frozen registry. Planning emits an [`OpPlan`]: the op's
//!    registry effects, its private ledger, and a deferred split/merge
//!    check. Plans are pure functions of `(pre-wave state, op,
//!    substream)`, so the thread that computes one is irrelevant.
//! 2. **Per-operation substreams.** Every operation draws from a
//!    ChaCha12 stream derived via [`DetRng::for_op`] from `(master,
//!    time_step, canonical op index)` — never from the shared system
//!    generator — so thread interleaving cannot perturb anyone's
//!    randomness. The master key is a single draw from the system
//!    stream per batch.
//! 3. **Canonical merge.** Effects, ledger deltas
//!    ([`Ledger::merge_child`]), and deferred maintenance apply on the
//!    driving thread in canonical batch order (departures before
//!    arrivals, each in input order). The apply half has one writer:
//!    the driving thread holds `&mut Registry` and calls
//!    [`Registry::attach`] / [`Registry::detach`] /
//!    [`Registry::move_to`] directly, inside an op's footprint or
//!    outside it (exchange partners are walk-chosen anywhere). A plan
//!    holds three kinds of effect — an arrival, a departure, and a
//!    **swap** of two nodes (one `exchange` step) — and the swap is
//!    applied as a unit.
//!
//! # A wave of one op runs live
//!
//! Planned against the pre-wave registry and applied at once, the only
//! op of a wave makes exactly the edits the kernel makes on the live
//! registry, in the same order — nothing else in the wave can have moved
//! a node, so no swap collides — and its child ledger folds in exactly
//! what the kernel books inline at the same depth. So such a wave is
//! not planned: it runs the kernel live on the registry, on the op's
//! own [`DetRng::for_op`] substream and with the adversary planning
//! would consult, with no [`Planner`], effect list or child ledger, and
//! then the same wave tail as any other (wave event, swap-conflict
//! count, op counters, the op's own split/merge check).
//! `kernel_on_live_state_equals_plan_then_apply` pins the two paths
//! equal. Only waves of two or more ops are planned, so only they are
//! timed into [`wave_plan_nanos_total`] or reach the pool.
//!
//! [`crate::ExecConfig::Serial`] is this engine with every op in a wave
//! of its own ([`singleton_waves`]): the paper's one join or leave at a
//! time, each run live. So a batch whose footprint partition is all
//! singletons — every one-op step, every batch on an overlay dense
//! enough that all footprints meet — ends byte-identical on `Serial`,
//! on `Pooled` without a pool and on `Pooled` at every thread count.
//!
//! # Model semantics
//!
//! The engine defines a *parallel deployment* of the §2-footnote batch:
//! operations of one wave observe the pre-wave state plus their own
//! effects, exactly as genuinely concurrent admissions would. Two
//! cascading leaves of one wave each swap a few hundred nodes, many of
//! them the same ones, so a later op's plan can name a node that an
//! earlier op has since swapped elsewhere or detached. The paper's
//! `exchange` (§3.1) is a swap — the partner sends one of its own
//! members back "in replacement" — and that is the unit of canonical
//! apply: a planned swap `x ↔ y` **exchanges the clusters the two
//! nodes are in when it is applied**. That is the planned edit
//! whenever the plan's view was accurate (always, were a wave of one
//! op planned); it is void if either node has departed, and changes
//! nothing if both are now in one cluster. Whatever collides, a swap moves one
//! node each way between two clusters or does nothing, so cluster
//! sizes are invariant under exchange — as Lemma 1 and Theorem 3's
//! size band assume — and no shuffle step is lost unless one of its
//! two nodes has left the network. How often plans do collide is
//! counted (`now_swap_conflicts_total`).
//!
//! Split/merge maintenance runs after the wave whose operations
//! triggered it, accounted as sibling spans of the batch rather than
//! nested inside the triggering operation: each op's own host/home in
//! canonical order. Only one other cluster can have changed size: when
//! an earlier op of the wave swapped a leaver out of its home before
//! the leaver's own departure applied, the departure takes it from the
//! cluster it was swapped into, and that cluster is checked as well.
//! A wave of width w is therefore a different trajectory from the same
//! w ops run one per wave: byte equality with `ExecConfig::Serial` is a
//! width-1 promise, and the bit-equality contract for wider waves is
//! *across thread counts of this engine*, which the property tests pin.
//! The direct one-op API ([`NowSystem::join`] / [`NowSystem::leave`])
//! draws from the system's shared stream instead and is not part of
//! either contract.
//!
//! A strategic [`Malice`] implementation is a single stateful oracle
//! whose hook-call order is protocol-visible, so non-neutral adversaries
//! plan sequentially in canonical order (the results still do not
//! depend on the requested thread count). For the neutral default,
//! every worker plans against its own stack [`NoMalice`].

use crate::batch::WaveStats;
use crate::error::NowError;
use crate::kernel::{Kernel, StateView};
use crate::malice::{Malice, NoMalice};
use crate::params::NowParams;
use crate::rand_cl::WalkTable;
use crate::registry::Registry;
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, DetRng, Ledger, NodeId};
use now_trace::{SpanTotal, TraceData};
use rand::Rng;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Canonical normalization of the `threads` knob, shared by **every**
/// entry point that accepts one ([`WavePool::new`], the campaign
/// runner's `threads` argument, the `--threads` flag of the binaries):
/// the number of planners, the driving thread included, where `0`
/// means "unspecified" and is treated as 1 (plan inline). Centralized
/// so no call site can drift to a different rule.
pub fn normalize_threads(threads: usize) -> usize {
    threads.max(1)
}

/// Monotone count of wave-worker threads this process has ever
/// spawned. Tests use the delta around a run to assert the pool's
/// O(threads)-spawns-per-run guarantee; note the counter is
/// process-global, so such assertions must not share a test binary
/// with concurrently spawning tests.
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
/// counter, in nanoseconds. Waves of one op are never planned, so this
/// (and a planning share computed from it) counts waves of two or more
/// ops only.
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
    /// counted redraw per operation.
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
/// There is one per [`StateView`] edit, so the only effects that change
/// a cluster's size are an arrival and a departure.
#[derive(Debug)]
enum Effect {
    Detach {
        node: NodeId,
    },
    Attach {
        node: NodeId,
        honest: bool,
        cluster: ClusterId,
    },
    /// `x` of `c` and `y` of `partner` trade places, as the plan's view
    /// saw them; [`apply_effects`] exchanges the places they have by then.
    Swap {
        x: NodeId,
        c: ClusterId,
        y: NodeId,
        partner: ClusterId,
    },
}

/// Size-triggered maintenance deferred to the post-wave serial phase.
#[derive(Debug)]
enum Maintenance {
    /// Re-check the join's host for an oversize split.
    Split(ClusterId),
    /// Re-check the leave's home for an undersize merge.
    Merge(ClusterId),
}

/// What the rest of a wave needs from each of its ops, however the op
/// ran.
#[derive(Debug)]
struct OpOutcome {
    /// Inclusive cost of the operation's top-level span.
    cost: Cost,
    maintenance: Maintenance,
    /// Whether a steered contact had been dissolved by an earlier
    /// wave's merge and was re-drawn uniformly when the op ran.
    contact_redrawn: bool,
}

/// The pure result of planning one operation.
#[derive(Debug)]
struct OpPlan {
    effects: Vec<Effect>,
    ledger: Ledger,
    outcome: OpOutcome,
}

/// Immutable pre-wave state shared (read-only) across planner threads:
/// the registry and the system's one walk table, whose slots are this
/// registry's.
struct WaveCtx<'a> {
    registry: &'a Registry,
    walks: &'a WalkTable,
    params: NowParams,
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

/// One operation's view of the wave: the frozen pre-wave registry
/// overlaid with the operation's own edits, which it records as
/// [`Effect`]s instead of applying. It is the [`StateView`] the op
/// kernel runs on when an operation is *planned*.
///
/// Views are copy-on-write: a cluster's member vec is copied the first
/// time the op *edits* it (its host, its exchange partners). Every
/// other read — the sizes and Byzantine counts a walk needs of each
/// cluster it passes through, neighbour sizes for notifications, the
/// member a partner surrenders — borrows the frozen registry.
struct Planner<'a> {
    registry: &'a Registry,
    effects: Vec<Effect>,
    /// `view_of_slot[registry slot]` indexes `views`, or is [`NO_VIEW`].
    view_of_slot: Vec<u32>,
    views: Vec<ViewCluster>,
    /// Deterministic work gate: member ids copied into views.
    #[cfg(test)]
    member_ids_copied: usize,
    /// The op's own arrival, if any (honesty is not in the registry yet).
    joiner: Option<(NodeId, bool)>,
}

impl<'a> Planner<'a> {
    fn new(registry: &'a Registry) -> Self {
        Planner {
            registry,
            effects: Vec::new(),
            view_of_slot: vec![NO_VIEW; registry.cluster_slab_len()],
            views: Vec::new(),
            #[cfg(test)]
            member_ids_copied: 0,
            joiner: None,
        }
    }

    fn slot_of(&self, c: ClusterId) -> u32 {
        // INVARIANT: every cluster id reaching a plan comes from this
        // wave's frozen registry and overlay, which only name live
        // clusters (maintenance runs serially between waves).
        self.registry
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
            let cluster = self.registry.cluster_in_slot(slot);
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
        // INVARIANT: the kernel only removes a node from the cluster
        // whose member slice (this view's) it just read the node from,
        // or, for the leaver, from its home in the frozen registry
        // before any edit — so the sorted member vec must contain it.
        let pos = v.members.binary_search(&n).expect("member present in view");
        v.members.remove(pos);
        if !honest {
            v.byz -= 1;
        }
    }
}

impl StateView for Planner<'_> {
    fn registry(&self) -> &Registry {
        self.registry
    }

    /// The op's copy if it has edited the cluster in `slot`, the
    /// frozen slab otherwise.
    #[inline]
    fn size_and_byz(&self, slot: u32) -> (usize, usize) {
        match self.view(slot) {
            Some(v) => (v.members.len(), v.byz),
            None => self.registry.size_and_byz(slot),
        }
    }

    /// The op's copy if it has edited `c`, the frozen slice otherwise.
    #[inline]
    fn members(&self, c: ClusterId) -> &[NodeId] {
        let slot = self.slot_of(c);
        match self.view(slot) {
            Some(v) => &v.members,
            None => self.registry.cluster_in_slot(slot).member_slice(),
        }
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
        self.registry.get(n).expect("honesty of a live node").honest
    }

    fn attach(&mut self, n: NodeId, honest: bool, c: ClusterId) {
        self.joiner = Some((n, honest));
        self.insert_member(c, n, honest);
        self.effects.push(Effect::Attach {
            node: n,
            honest,
            cluster: c,
        });
    }

    fn detach(&mut self, n: NodeId, from: ClusterId) {
        let honest = self.honesty(n);
        self.remove_member(from, n, honest);
        self.effects.push(Effect::Detach { node: n });
    }

    fn swap(&mut self, x: NodeId, c: ClusterId, y: NodeId, partner: ClusterId) {
        let (x_honest, y_honest) = (self.honesty(x), self.honesty(y));
        self.remove_member(c, x, x_honest);
        self.insert_member(partner, x, x_honest);
        self.remove_member(partner, y, y_honest);
        self.insert_member(c, y, y_honest);
        self.effects.push(Effect::Swap { x, c, y, partner });
    }
}

impl<S: StateView> Kernel<'_, S> {
    /// Runs one operation — the leaver's home, the contact redraw, the
    /// join or the leave — and closes its span: the size check is
    /// deferred to after the wave. The one op dispatch of both ways a
    /// wave runs an op: planned on a [`Planner`] view, and, alone in
    /// its wave, live on the registry.
    fn run_op(&mut self, op: &PlannedOp) -> OpOutcome {
        let mut contact_redrawn = false;
        let maintenance = match *op {
            PlannedOp::Leave { node } => {
                // The leaver's home before the op, not `spec.center`: an
                // earlier wave's exchange can have moved it since
                // admission.
                // INVARIANT: admission validated the leaver and claimed
                // it for this op alone, and nothing between waves
                // removes a node (a merge re-attaches every member it
                // detaches).
                let home = self
                    .state
                    .registry()
                    .get(node)
                    .expect("admitted leaver")
                    .cluster;
                self.leave(node, home);
                Maintenance::Merge(home)
            }
            PlannedOp::Join {
                node,
                honest,
                contact,
            } => {
                // The contact drawn at batch admission can have been
                // dissolved by an earlier wave's merge; re-draw
                // uniformly over all live clusters from the op's own
                // substream (deterministic) — the same rule admission
                // applies to a contact already dead before the batch.
                let registry = self.state.registry();
                let contact = if registry.contains_cluster(contact) {
                    contact
                } else {
                    contact_redrawn = true;
                    let idx = self.rng.gen_range(0..registry.cluster_count());
                    registry.cluster_id_at(idx)
                };
                Maintenance::Split(self.join(node, honest, contact))
            }
        };
        OpOutcome {
            cost: self.ledger.end(),
            maintenance,
            contact_redrawn,
        }
    }
}

/// Plans one operation: the op kernel over a fresh [`Planner`] view,
/// on the op's own substream and a private ledger. Pure in
/// `(ctx, spec, rng)` under a neutral `malice`.
fn plan_op(ctx: &WaveCtx<'_>, spec: &OpSpec, mut rng: DetRng, malice: &mut dyn Malice) -> OpPlan {
    let mut view = Planner::new(ctx.registry);
    let mut ledger = Ledger::new();
    let outcome = Kernel {
        state: &mut view,
        walks: ctx.walks,
        params: ctx.params,
        ledger: &mut ledger,
        rng: &mut rng,
        malice,
    }
    .run_op(&spec.op);
    OpPlan {
        effects: view.effects,
        ledger,
        outcome,
    }
}

/// Plans op `i` of a pooled wave on its own substream and parks the
/// plan in its positional slot. Plans are keyed by `(master, time_step,
/// canon)` alone, so the output is bit-identical whichever thread plans
/// which op — and identical to [`plan_wave_sequential`].
fn plan_into_slot(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    slots: &[OnceLock<OpPlan>],
    i: usize,
    master: u64,
    time_step: u64,
) {
    let rng = DetRng::for_op(master, time_step, specs[i].canon);
    // A pool only ever plans for a neutral adversary.
    let plan = plan_op(ctx, &specs[i], rng, &mut NoMalice);
    // Each index is planned once — op 0 by the driving thread, every
    // other by whoever the cursor hands it to — so this is the slot's
    // only write and it cannot find the slot full.
    let _ = slots[i].set(plan);
}

/// The planners' claim loop, on the workers and the driving thread
/// alike: claim the next op via the atomic cursor and plan it.
fn claim_and_plan(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    slots: &[OnceLock<OpPlan>],
    cursor: &AtomicUsize,
    master: u64,
    time_step: u64,
) {
    loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= specs.len() {
            break;
        }
        plan_into_slot(ctx, specs, slots, i, master, time_step);
    }
}

/// Planning on the driving thread in canonical order: the reference
/// every pooled run must reproduce bit for bit, and the only way a
/// strategic (stateful) `malice` is ever consulted.
fn plan_wave_sequential(
    ctx: &WaveCtx<'_>,
    specs: &[OpSpec],
    master: u64,
    time_step: u64,
    malice: &mut dyn Malice,
) -> Vec<OpPlan> {
    specs
        .iter()
        .map(|spec| {
            let rng = DetRng::for_op(master, time_step, spec.canon);
            plan_op(ctx, spec, rng, &mut *malice)
        })
        .collect()
}

/// Drains the positional slots into the wave's plan vector.
///
/// Only called after the pool has observed every planner finish
/// cleanly (a panic is re-raised before collection), so the claim
/// cursor ran past every op and every slot was filled.
fn collect_slots(slots: Vec<OnceLock<OpPlan>>) -> Vec<OpPlan> {
    slots
        .into_iter()
        .map(|slot| {
            // INVARIANT: every planner finished without panicking, so
            // each claimed op's plan was set (see above).
            slot.into_inner().expect("every op planned")
        })
        .collect()
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
    slots: *const OnceLock<OpPlan>,
    cursor: *const AtomicUsize,
    len: usize,
    master: u64,
    time_step: u64,
}

// SAFETY: a `WaveJob` is an inert bundle of pointers plus plain keying
// data. The pointees (`WaveCtx`, `OpSpec`s, `OnceLock` slots, cursor)
// are all `Sync` — planners only read the context/specs, and each slot
// is written once, by the one planner the atomic cursor handed its
// index (op 0, which the cursor never hands out, by the driving
// thread) — and the driving thread guarantees they outlive every
// worker access by blocking until all completion signals for the wave
// have been received, its own share's panic included.
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
/// Conflict-heavy batches schedule into hundreds of narrow waves per
/// step, so a `WavePool` spawns its workers once, at construction, and
/// feeds them wave-plan jobs over per-worker channels. `threads` counts
/// the planners, and the driving thread is one of them: it takes op 0
/// of a wave, dispatches one job per further op up to the pool's
/// workers, and then claims operations through the same atomic cursor
/// as the workers. Every planner writes into positional slots, so the
/// output is **bit-identical** to sequential planning at every thread
/// count — the property tests pin them equal.
///
/// * `threads == 1` (or 0, see [`normalize_threads`]) spawns **no**
///   workers: planning runs inline on the driving thread.
/// * `threads == t ≥ 2` spawns exactly `t − 1` workers for the pool's
///   whole lifetime — O(threads) spawns per run, asserted by the
///   spawn-accounting test via [`wave_worker_spawn_total`].
/// * A pool is stateless between waves: it can be reused across
///   batches, runs, phases, and even different [`NowSystem`]s, which is
///   how `now-campaign` holds one for a whole campaign.
///
/// The pool is `Send` but deliberately not `Sync` (its completion
/// receiver is single-consumer): one driving thread at a time.
pub struct WavePool {
    threads: usize,
    workers: Vec<PoolWorker>,
    done_rx: mpsc::Receiver<std::thread::Result<()>>,
}

impl WavePool {
    /// Spawns the pool's workers: `normalize_threads(threads) − 1` OS
    /// threads, since the driving thread is the last planner; none for
    /// single-planner pools.
    pub fn new(threads: usize) -> Self {
        let threads = normalize_threads(threads);
        let (done_tx, done_rx) = mpsc::channel();
        let mut workers = Vec::new();
        if threads > 1 {
            // The workspace's one thread-spawn site: every other spawn
            // is a D003 finding (the rule exempts this file alone).
            for _ in 1..threads {
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

    /// The normalized thread budget this pool was built with: its
    /// workers plus the driving thread.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Worker threads actually spawned (`threads − 1`; 0 for
    /// single-planner pools, which plan inline).
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Plans one wave on the pool. Waves of one op never get here (they
    /// run live, see the module docs), so every wave planned has two or
    /// more ops. Sequential inline planning when the pool has no
    /// workers; otherwise the driving thread takes op 0, dispatches
    /// `min(workers, ops − 1)` jobs, plans op 0 and then claims from
    /// the cursor with the workers, and blocks until every dispatched
    /// worker has drained it.
    fn plan_wave(
        &self,
        ctx: &WaveCtx<'_>,
        specs: &[OpSpec],
        master: u64,
        time_step: u64,
    ) -> Vec<OpPlan> {
        let n = specs.len();
        let jobs = self.workers.len().min(n.saturating_sub(1));
        if jobs == 0 {
            return plan_wave_sequential(ctx, specs, master, time_step, &mut NoMalice);
        }
        let slots: Vec<OnceLock<OpPlan>> = (0..n).map(|_| OnceLock::new()).collect();
        // Op 0 is the driving thread's, taken before any job is sent, so
        // it has work however fast the workers claim.
        let cursor = AtomicUsize::new(1);
        // Lifetime-collapsing cast for transport; see `WaveJob`.
        let ctx_ptr = (ctx as *const WaveCtx<'_>).cast::<WaveCtx<'static>>();
        // INVARIANT: `jobs ≤ workers.len()`, so the prefix slice is
        // always in bounds.
        for worker in &self.workers[..jobs] {
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
        // The driving thread's share. Its panic is caught like a
        // worker's, so it too unwinds only once the wave has quiesced.
        let driven = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan_into_slot(ctx, specs, &slots, 0, master, time_step);
            claim_and_plan(ctx, specs, &slots, &cursor, master, time_step);
        }));
        // Block until every dispatched worker has finished: this is the
        // synchronization the `WaveJob` safety contract relies on — the
        // wave's stack data (ctx borrow, specs, slots, cursor) stays
        // alive past the last worker access. Panics, the driving
        // thread's first, are resumed on the driving thread after the
        // wave has fully quiesced.
        let mut worker_panic = None;
        for _ in 0..jobs {
            // INVARIANT: every dispatched worker sends exactly one
            // completion signal (even on panic, via catch_unwind), and
            // workers outlive the pool that holds their senders.
            match self.done_rx.recv().expect("pool worker completes") {
                Ok(()) => {}
                Err(panic) => worker_panic = Some(panic),
            }
        }
        if let Some(panic) = driven.err().or(worker_panic) {
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

/// Order-preserving greedy wave partition over pre-batch footprints:
/// a new wave opens whenever an operation's footprint intersects the
/// union of the open wave's, so every wave's operations are pairwise
/// footprint-disjoint. The event engine feeds this the batch in
/// *network delivery order*; [`crate::ExecConfig::Pooled`] feeds it the
/// canonical order.
pub(crate) fn partition_waves(specs: &[OpSpec]) -> Vec<Range<usize>> {
    let mut waves = Vec::new();
    let mut start = 0usize;
    let mut open: BTreeSet<ClusterId> = BTreeSet::new();
    for (i, spec) in specs.iter().enumerate() {
        if spec.footprint.iter().any(|c| open.contains(c)) {
            waves.push(start..i);
            start = i;
            open.clear();
        }
        open.extend(spec.footprint.iter().copied());
    }
    if start < specs.len() {
        waves.push(start..specs.len());
    }
    waves
}

/// The partition of [`crate::ExecConfig::Serial`]: every operation is
/// a wave of its own, in canonical order.
pub(crate) fn singleton_waves(specs: &[OpSpec]) -> Vec<Range<usize>> {
    (0..specs.len()).map(|i| i..i + 1).collect()
}

/// Applies one planned operation's effects to the registry, records
/// every cluster that gained or lost a member in `touched`, and returns
/// how many of its swaps found a party somewhere other than where the
/// plan's view had it. Called in canonical op order on the driving
/// thread, so a swap of a node an earlier op already swapped or
/// detached resolves the same way at every thread count.
///
/// A swap is applied as an exchange of the two nodes' **current**
/// clusters: exactly the planned edit when the view was accurate
/// (always, for a wave's only op, which is why such a wave runs live
/// instead), and size-preserving whatever an earlier
/// op of the wave did to either party — void if one has departed,
/// nothing to do if both are now in one cluster.
fn apply_effects(
    registry: &mut Registry,
    effects: &[Effect],
    touched: &mut BTreeSet<ClusterId>,
) -> u64 {
    let mut conflicts = 0;
    for effect in effects {
        match *effect {
            Effect::Detach { node } => {
                // Wherever it is now: an earlier op's swap can have
                // taken the leaver out of the home its own plan saw.
                if let Some(rec) = registry.detach(node) {
                    touched.insert(rec.cluster);
                }
            }
            Effect::Attach {
                node,
                honest,
                cluster,
            } => {
                registry.attach(node, honest, cluster);
                touched.insert(cluster);
            }
            Effect::Swap { x, c, y, partner } => {
                let (Some(at_x), Some(at_y)) = (registry.get(x), registry.get(y)) else {
                    // A party departed earlier in this wave: void.
                    conflicts += 1;
                    continue;
                };
                let (at_x, at_y) = (at_x.cluster, at_y.cluster);
                conflicts += u64::from((at_x, at_y) != (c, partner));
                if at_x != at_y {
                    registry.move_to(x, at_y);
                    registry.move_to(y, at_x);
                }
            }
        }
    }
    conflicts
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
}

impl NowSystem {
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
        for &spec in joins {
            // Admission-time resolution against the pre-batch state: a
            // live steered contact is honored, a dissolved one degrades
            // to the uniform draw `NowSystem::join` makes. Contacts
            // dissolved later, by an earlier *wave* of this batch, get
            // the plan-time redraw in `run_op`. Either way the op counts
            // as at most one redraw, when its wave executes (see
            // `OpSpec`).
            let (contact, redrawn) = match spec.contact {
                Some(c) if self.cluster(c).is_some() => (c, false),
                Some(_) => (self.contact_cluster(), true),
                None => (self.contact_cluster(), false),
            };
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
        }
    }

    /// Executes one conflict-free wave, then its deferred size
    /// maintenance. A wave of one op runs the op kernel live on the
    /// registry ([`NowSystem::run_op_live`]); a wider one is planned by
    /// the pool's planners (on the driving thread alone without a pool,
    /// or for a strategic Malice), its effects applied and its ledgers folded
    /// canonically ([`NowSystem::plan_and_apply`]). Shared by the wave
    /// engines (canonical order) and the event engine (delivery order).
    pub(crate) fn execute_wave(
        &mut self,
        wave_specs: &[OpSpec],
        pool: Option<&WavePool>,
        master: u64,
        contact_redraws: &mut u64,
    ) -> WaveStats {
        let (outcomes, touched, swap_conflicts) = match wave_specs {
            [spec] => (vec![self.run_op_live(spec, master)], BTreeSet::new(), 0),
            _ => self.plan_and_apply(wave_specs, pool, master),
        };
        self.finish_wave(
            wave_specs,
            &outcomes,
            touched,
            swap_conflicts,
            contact_redraws,
        )
    }

    /// Runs the only op of a wave on the live registry (see "A wave of
    /// one op runs live" in the module docs): the kernel on the op's
    /// own substream, with the adversary planning would consult,
    /// booking into the system ledger at the current depth.
    fn run_op_live(&mut self, spec: &OpSpec, master: u64) -> OpOutcome {
        let mut rng = DetRng::for_op(master, self.time_step, spec.canon);
        let mut neutral = NoMalice;
        let malice: &mut dyn Malice = if self.malice.is_neutral() {
            &mut neutral
        } else {
            self.malice.as_mut()
        };
        Kernel {
            state: &mut self.registry,
            walks: &self.walks,
            params: self.params,
            ledger: &mut self.ledger,
            rng: &mut rng,
            malice,
        }
        .run_op(&spec.op)
    }

    /// Plans a wave of two or more ops against the pre-wave state, then
    /// applies their effects and folds their ledgers in canonical
    /// order. Returns each op's outcome, the clusters whose size
    /// changed, and how many swaps found a party moved.
    fn plan_and_apply(
        &mut self,
        wave_specs: &[OpSpec],
        pool: Option<&WavePool>,
        master: u64,
    ) -> (Vec<OpOutcome>, BTreeSet<ClusterId>, u64) {
        let time_step = self.time_step;
        let neutral = self.malice.is_neutral();
        let ctx = WaveCtx {
            registry: &self.registry,
            walks: &self.walks,
            params: self.params,
        };
        let plan_start = now_trace::stopwatch();
        let plans: Vec<OpPlan> = match pool {
            Some(pool) if neutral => pool.plan_wave(&ctx, wave_specs, master, time_step),
            _ if neutral => {
                plan_wave_sequential(&ctx, wave_specs, master, time_step, &mut NoMalice)
            }
            _ => plan_wave_sequential(&ctx, wave_specs, master, time_step, self.malice.as_mut()),
        };
        plan_start.record_into(&WAVE_PLAN_NANOS);

        // `touched` collects the clusters whose size changed: each op's
        // host or home, and, for a leaver an earlier op of this wave had
        // swapped away, the cluster it was really detached from. Swaps
        // change no size and name nothing.
        let mut touched: BTreeSet<ClusterId> = BTreeSet::new();
        let mut swap_conflicts = 0;
        let mut outcomes = Vec::with_capacity(plans.len());
        for plan in plans {
            swap_conflicts += apply_effects(&mut self.registry, &plan.effects, &mut touched);
            self.ledger.merge_child(&plan.ledger);
            outcomes.push(plan.outcome);
        }
        (outcomes, touched, swap_conflicts)
    }

    /// The rest of a wave, however its ops ran: wave stats and trace
    /// events, then the deferred size maintenance.
    fn finish_wave(
        &mut self,
        wave_specs: &[OpSpec],
        outcomes: &[OpOutcome],
        mut touched: BTreeSet<ClusterId>,
        swap_conflicts: u64,
        contact_redraws: &mut u64,
    ) -> WaveStats {
        let time_step = self.time_step;

        // ---- wave stats from the ops' costs ----
        let mut stats = WaveStats::default();
        for (spec, outcome) in wave_specs.iter().zip(outcomes) {
            stats.ops += 1;
            stats.rounds_max = stats.rounds_max.max(outcome.cost.rounds);
            stats.rounds_total += outcome.cost.rounds;
            stats.messages += outcome.cost.messages;
            if spec.contact_redrawn || outcome.contact_redrawn {
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
        self.hub.count("now_swap_conflicts_total", swap_conflicts);

        // ---- applied ops canonically ----
        for spec in wave_specs {
            let (join, node) = match spec.op {
                PlannedOp::Join { node, .. } => (true, node),
                PlannedOp::Leave { node } => (false, node),
            };
            self.hub.event(
                time_step,
                TraceData::OpApplied {
                    canon: spec.canon,
                    join,
                    node: node.raw(),
                },
            );
        }

        // ---- deferred maintenance ----
        // First each op's own host/home in canonical order (the direct
        // analogue of the serial oversize/undersize checks), then
        // whatever is left in `touched`, in ascending id order: at most
        // one cluster per leave, the one that lost the leaver in its
        // home's stead.
        for outcome in outcomes {
            match outcome.maintenance {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchReport, JoinSpec};
    use crate::exec::{BatchInput, ExecConfig};
    use crate::malice::{RandNumContext, RandNumPurpose};
    use crate::params::NowParams;
    use now_net::CostKind;
    use rand::RngCore;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::Duration;

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
        let pool = WavePool::new(threads);
        let report = sys.step_batch(
            &BatchInput::from_flags(joins, &leaves),
            &ExecConfig::pooled(&pool),
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
        // itself and for the pool (`zero_threads_is_one_thread` covers
        // a pooled batch); now-sim and now-campaign have their own
        // regression tests built on the same helper.
        assert_eq!(normalize_threads(0), 1);
        assert_eq!(normalize_threads(1), 1);
        assert_eq!(normalize_threads(7), 7);
        let pool = WavePool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.worker_count(), 0, "single-planner pools plan inline");
    }

    /// The pool's contract: pooled planning and sequential planning on
    /// the driving thread are bit-identical on the full observable
    /// fingerprint, for multi-wave batches at several thread counts.
    #[test]
    fn pooled_equals_sequential() {
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
            &ExecConfig::scheduled(),
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
            assert_eq!(
                fingerprint(&seq_sys, &seq_report),
                fingerprint(&pooled_sys, &pooled_report),
                "sequential vs pooled({threads}) diverged"
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
    /// surfaced, in the serial and threaded engines.
    #[test]
    fn stale_contact_at_admission_redraws_in_both_engines() {
        let ghost = ClusterId::from_raw(999_999);
        let joins = [
            crate::batch::JoinSpec::via(ghost, true),
            crate::batch::JoinSpec::uniform(true),
        ];
        let mut serial = system(150, 31);
        assert!(serial.cluster(ghost).is_none());
        let r = serial.step_batch(&BatchInput::from_specs(&joins, &[]), &ExecConfig::serial());
        assert_eq!(r.contact_redraws, 1, "serial engine counts the redraw");
        assert_eq!(r.joined.len(), 2);
        serial.check_consistency().unwrap();

        let mut threaded = system(150, 31);
        let pool = WavePool::new(4);
        let r = threaded.step_batch(
            &BatchInput::from_specs(&joins, &[]),
            &ExecConfig::pooled(&pool),
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
        let (one, four) = (WavePool::new(1), WavePool::new(4));
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
                &ExecConfig::pooled(&one),
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
                    &ExecConfig::pooled(&one),
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
                    &ExecConfig::pooled(&four),
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
        let pool = WavePool::new(4);
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &leaves),
            &ExecConfig::pooled(&pool),
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
        let pool = WavePool::new(4);
        let (lo, hi) = (
            sys.params().min_cluster_size(),
            sys.params().max_cluster_size(),
        );
        for round in 0..25u64 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(2).collect();
            let joins = [round % 3 != 0, true];
            let report = sys.step_batch(
                &BatchInput::from_flags(&joins, &leavers),
                &ExecConfig::pooled(&pool),
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

    /// What a [`Script`] was asked, shared with the test through an
    /// `Rc` because the system owns its adversary.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Tally {
        forced_hops: u64,
        victims: u64,
        saw_joiner: u64,
    }

    /// A strategic adversary with a script. The first walk that starts
    /// in a compromised cluster stays there when `stay` is set (so a
    /// join through such a contact is hosted by it); every later walk
    /// that passes a compromised cluster is hopped towards `lure` and
    /// stops there; every endpoint a compromised cluster decides on is
    /// accepted; a compromised exchange partner surrenders its lowest-id
    /// Byzantine member — a choice that depends on the honesty the
    /// state reports for each member, the op's own joiner included.
    /// Draws it has no script for consume the stream.
    struct Script {
        lure: ClusterId,
        stay: bool,
        joiner: Option<NodeId>,
        tally: Rc<Cell<Tally>>,
    }

    impl Script {
        fn note(&self, f: impl FnOnce(&mut Tally)) {
            let mut tally = self.tally.get();
            f(&mut tally);
            self.tally.set(tally);
        }
    }

    impl Malice for Script {
        fn rand_num(&mut self, range: u64, ctx: RandNumContext, rng: &mut DetRng) -> u64 {
            match ctx.purpose {
                // The smallest draw is the longest holding time (stop
                // here), the largest the shortest (hop on).
                RandNumPurpose::WalkHoldingTime => {
                    if ctx.cluster == self.lure || std::mem::take(&mut self.stay) {
                        0
                    } else {
                        range - 1
                    }
                }
                RandNumPurpose::WalkAcceptance => 0,
                _ => rng.gen_range(0..range),
            }
        }

        fn walk_hop(&mut self, neighbors: &[ClusterId], rng: &mut DetRng) -> Option<ClusterId> {
            self.note(|t| t.forced_hops += 1);
            if neighbors.contains(&self.lure) {
                Some(self.lure)
            } else {
                Some(neighbors[rng.gen_range(0..neighbors.len())])
            }
        }

        fn exchange_victim(
            &mut self,
            members: &[(NodeId, bool)],
            _rng: &mut DetRng,
        ) -> Option<NodeId> {
            let saw = members.iter().any(|&(m, _)| Some(m) == self.joiner);
            self.note(|t| {
                t.victims += 1;
                t.saw_joiner += u64::from(saw);
            });
            members
                .iter()
                .find(|&&(_, honest)| !honest)
                .map(|&(m, _)| m)
        }
    }

    /// Swaps honest members of `victim` for Byzantine members of the
    /// `donors` until `randNum` is compromised there; sizes stay as
    /// they were.
    fn pollute(sys: &mut NowSystem, victim: ClusterId, donors: &[ClusterId]) {
        let mut traitors: Vec<NodeId> = donors
            .iter()
            .flat_map(|&d| sys.cluster(d).unwrap().members())
            .filter(|&m| !sys.is_honest(m).unwrap())
            .collect();
        while sys.cluster(victim).unwrap().rand_num_secure() {
            let honest = sys
                .cluster(victim)
                .unwrap()
                .members()
                .find(|&m| sys.is_honest(m).unwrap())
                .expect("has honest members");
            let traitor = traitors
                .pop()
                .expect("donors hold enough Byzantine members");
            let donor = sys.node_cluster(traitor).unwrap();
            sys.move_node(traitor, victim);
            sys.move_node(honest, donor);
        }
    }

    impl NowSystem {
        /// The reference for a wave of one op: the wave planned,
        /// applied, folded and maintained as a wider wave is. Test-only —
        /// outside tests a width-1 wave always runs live.
        fn execute_wave_planned(
            &mut self,
            wave_specs: &[OpSpec],
            master: u64,
            contact_redraws: &mut u64,
        ) -> WaveStats {
            let (outcomes, touched, swap_conflicts) = self.plan_and_apply(wave_specs, None, master);
            self.finish_wave(
                wave_specs,
                &outcomes,
                touched,
                swap_conflicts,
                contact_redraws,
            )
        }
    }

    /// A wave of one op runs the kernel live, and that is exactly the
    /// wave planned and applied: `execute_wave` on a width-1 wave, and
    /// the same wave through [`NowSystem::execute_wave_planned`] on a
    /// second build of the system, leave identical member slices in
    /// every cluster, the system stream at the same word, the same
    /// ledger (total and stats, so op counts too), flight-recorder
    /// events and metrics — under the neutral adversary and under a
    /// scripted strategic one, from secure clusters and from a start
    /// (and a lure next to it) that the adversary holds past 1/3.
    #[test]
    fn kernel_on_live_state_equals_plan_then_apply() {
        let mut cases = 0;
        let mut asked = Tally::default();
        for seed in 0..14u64 {
            for (join, strategic) in [(true, false), (true, true), (false, false), (false, true)] {
                let case = format!("seed {seed}, join {join}, strategic {strategic}");
                // Two identical systems. The lowest node id is freed
                // so that a joiner can take it: exchanges go through
                // a cluster in id order, so this joiner is swapped
                // out first and sits in a partner cluster while the
                // others follow. Odd seeds pollute the start and the
                // lure.
                let recycled = NodeId::from_raw(0);
                let build = || {
                    let mut sys = system(400, seed);
                    sys.detach_node(recycled).unwrap();
                    let ids = sys.cluster_ids();
                    let start = ids[0];
                    let lure = sys.overlay().neighbors(start)[0];
                    if seed % 2 == 1 {
                        let donors: Vec<ClusterId> = ids
                            .iter()
                            .copied()
                            .filter(|&c| c != start && c != lure)
                            .collect();
                        pollute(&mut sys, start, &donors);
                        pollute(&mut sys, lure, &donors);
                    }
                    sys.check_consistency().unwrap();
                    sys.enable_tracing(1 << 12);
                    sys.enable_metrics();
                    (sys, start, lure)
                };
                let ((mut live, start, lure), (mut planned, ..)) = (build(), build());
                // A Byzantine arrival, or a departure from the start.
                let node = if join {
                    recycled
                } else {
                    live.cluster(start).unwrap().member_at(seed as usize % 7)
                };
                let op = || OpSpec {
                    op: if join {
                        PlannedOp::Join {
                            node,
                            honest: false,
                            contact: start,
                        }
                    } else {
                        PlannedOp::Leave { node }
                    },
                    footprint: Vec::new(),
                    canon: seed % 3,
                    center: start,
                    contact_redrawn: false,
                };
                let adversary = || -> (Box<dyn Malice>, Rc<Cell<Tally>>) {
                    let tally = Rc::new(Cell::new(Tally::default()));
                    let malice: Box<dyn Malice> = if strategic {
                        Box::new(Script {
                            lure,
                            stay: join,
                            joiner: join.then_some(node),
                            tally: Rc::clone(&tally),
                        })
                    } else {
                        Box::new(NoMalice)
                    };
                    (malice, tally)
                };
                let (malice, live_tally) = adversary();
                live.set_malice(malice);
                let (malice, planned_tally) = adversary();
                planned.set_malice(malice);

                // Inside an open span, as in a batch.
                let master = 7_000 + seed;
                let (mut live_redraws, mut planned_redraws) = (0, 0);
                live.ledger.begin(CostKind::Batch);
                let live_stats = live.execute_wave(&[op()], None, master, &mut live_redraws);
                live.ledger.end();
                planned.ledger.begin(CostKind::Batch);
                let planned_stats =
                    planned.execute_wave_planned(&[op()], master, &mut planned_redraws);
                planned.ledger.end();
                live.check_consistency().unwrap();
                planned.check_consistency().unwrap();

                assert_eq!(live_stats, planned_stats, "{case}");
                assert_eq!(live_redraws, planned_redraws, "{case}");
                assert_eq!(live.cluster_ids(), planned.cluster_ids(), "{case}");
                for c in live.cluster_ids() {
                    assert_eq!(
                        live.cluster(c).unwrap().member_slice(),
                        planned.cluster(c).unwrap().member_slice(),
                        "members of {c}: {case}"
                    );
                }
                assert_eq!(live.byz_node_ids(), planned.byz_node_ids(), "{case}");
                assert_eq!(
                    live.rng.next_u64(),
                    planned.rng.next_u64(),
                    "stream: {case}"
                );
                assert_eq!(live.ledger.total(), planned.ledger.total(), "{case}");
                for &kind in CostKind::ALL.iter() {
                    assert_eq!(
                        live.ledger.stats(kind),
                        planned.ledger.stats(kind),
                        "{kind}: {case}"
                    );
                }
                assert!(live.ledger.stats(CostKind::Exchange).count > 0, "{case}");
                assert_eq!(live.op_counts(), planned.op_counts(), "{case}");
                assert_eq!(
                    live.flight_recorder().unwrap().to_json(),
                    planned.flight_recorder().unwrap().to_json(),
                    "events: {case}"
                );
                let metrics = planned.metrics().unwrap();
                assert_eq!(live.metrics().unwrap(), metrics, "metrics: {case}");
                assert_eq!(
                    metrics.counter("now_swap_conflicts_total"),
                    0,
                    "one op alone collides with nobody: {case}"
                );
                assert_eq!(live_tally.get(), planned_tally.get(), "hooks asked: {case}");
                let t = planned_tally.get();
                asked.forced_hops += t.forced_hops;
                asked.victims += t.victims;
                asked.saw_joiner += t.saw_joiner;
                cases += 1;
            }
        }
        assert!(cases >= 56, "cases: {cases}");
        assert!(asked.forced_hops > 0, "the script forced hops: {asked:?}");
        assert!(asked.victims > 0, "the script chose victims: {asked:?}");
        assert!(
            asked.saw_joiner > 0,
            "a compromised partner held the op's own joiner: {asked:?}"
        );
    }

    /// The canonical conflict rules, on two hand-built plans applied in
    /// order, the second drawn up against the state *before* the first:
    /// a swap with a party the earlier op detached is void, a node both
    /// ops swap ends where the later swap puts it, a swap of two nodes
    /// that now share a home changes nothing — and whatever collides,
    /// only a detach or an attach changes a cluster's size or names it
    /// in `touched`.
    #[test]
    fn conflicting_plans_resolve_canonically() {
        let n = NodeId::from_raw;
        let c = ClusterId::from_raw;
        // Five clusters of two: c(i) holds n(2i) and n(2i + 1); n(0)
        // and n(4) are Byzantine.
        let mut reg = Registry::new();
        for i in 0..5 {
            reg.create_cluster(c(i));
            reg.attach(n(2 * i), i != 0 && i != 2, c(i));
            reg.attach(n(2 * i + 1), true, c(i));
        }
        let swap = |x, from, y, partner| Effect::Swap {
            x: n(x),
            c: c(from),
            y: n(y),
            partner: c(partner),
        };
        let mut touched = BTreeSet::new();
        let counters = |reg: &Registry| (reg.population(), reg.byz_population());

        // n(0) leaves c(0), which swaps its other member out; c(2) and
        // c(3) trade a member each.
        let first = [
            Effect::Detach { node: n(0) },
            swap(1, 0, 2, 1),
            swap(4, 2, 6, 3),
        ];
        assert_eq!(apply_effects(&mut reg, &first, &mut touched), 0);
        assert_eq!(counters(&reg), (9, 1));
        assert_eq!(touched, BTreeSet::from([c(0)]));

        let second = [
            Effect::Attach {
                node: n(10),
                honest: false,
                cluster: c(4),
            },
            // n(0) departed in the first op: void, n(8) stays.
            swap(8, 4, 0, 0),
            // Planned with n(4) in c(2), found in c(3): n(9) takes its
            // place there, and n(4) ends in c(4) as planned.
            swap(9, 4, 4, 2),
            // Planned across c(1) and c(0); the first op put both in c(1).
            swap(3, 1, 1, 0),
            // Both where the plan saw them.
            swap(10, 4, 7, 3),
        ];
        assert_eq!(apply_effects(&mut reg, &second, &mut touched), 3);

        let members = |i| reg.cluster(c(i)).unwrap().member_vec();
        assert!(!reg.contains(n(0)));
        assert_eq!(members(0), [n(2)], "lost the leaver, nothing else");
        assert_eq!(members(1), [n(1), n(3)]);
        assert_eq!(members(2), [n(5), n(6)]);
        assert_eq!(members(3), [n(9), n(10)]);
        assert_eq!(members(4), [n(4), n(7), n(8)], "gained the joiner");
        assert_eq!(touched, BTreeSet::from([c(0), c(4)]));
        assert_eq!(counters(&reg), (10, 2));
        assert_eq!(reg.node_ids().len(), 10);
        assert_eq!(reg.byz_node_ids(), [n(4), n(10)]);
        reg.check_invariants().unwrap();
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
        let mut planner = Planner::new(&sys.registry);
        let mut ledger = Ledger::new();
        let joiner = NodeId::from_raw(1 << 40);
        let contact = sys.cluster_ids()[17];
        let host = Kernel {
            state: &mut planner,
            walks: &sys.walks,
            params: sys.params,
            ledger: &mut ledger,
            rng: &mut DetRng::new(9),
            malice: &mut NoMalice,
        }
        .join(joiner, true, contact);
        ledger.end();

        // Host and partners, read off the planned effects.
        let mut edited = BTreeSet::from([host]);
        for effect in &planner.effects {
            match *effect {
                Effect::Attach { cluster, .. } => assert_eq!(cluster, host),
                Effect::Swap { c, partner, .. } => {
                    assert_eq!(c, host, "a join's exchange does not cascade");
                    edited.insert(partner);
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
        let walks = ledger.stats(CostKind::RandCl);
        assert!(walks.count > 30, "walks: {}", walks.count);
        let draws = ledger.stats(CostKind::RandNum);
        let hops = walks.total_rounds - draws.total_rounds;
        assert!(hops > 1024, "hops: {hops}");
        let host_size = sys.cluster(host).unwrap().size() + 1;
        assert!(edited.len() <= 1 + host_size);

        // Ids copied into views: each edited cluster once. (The
        // exchange's one snapshot of the host is the kernel's, the same
        // on every state.)
        let copied_into_views: usize = edited.iter().map(|&c| sys.cluster(c).unwrap().size()).sum();
        assert_eq!(planner.member_ids_copied, copied_into_views);
    }

    /// A worker that panics mid-wave: the panic reaches the caller once
    /// the wave has quiesced, the same pool then plans a well-formed
    /// wave exactly as the driving thread does, and the pool still
    /// shuts down.
    #[test]
    fn worker_panic_reaches_the_caller_and_the_pool_plans_on() {
        let mut sys = sparse_system(21);
        let leaves: Vec<NodeId> = sys.node_ids().into_iter().step_by(17).take(3).collect();
        let joins = [JoinSpec::uniform(true), JoinSpec::uniform(false)];
        let good = sys.admit_batch(&joins, &leaves).specs;
        // The second op is the leave of a node the registry never held:
        // built directly, it bypasses admission and panics in planning.
        let leave = |node, canon| OpSpec {
            op: PlannedOp::Leave { node },
            footprint: Vec::new(),
            canon,
            center: good[0].center,
            contact_redrawn: false,
        };
        let bad = [leave(leaves[0], 0), leave(NodeId::from_raw(1 << 40), 1)];

        let ctx = WaveCtx {
            registry: &sys.registry,
            walks: &sys.walks,
            params: sys.params,
        };
        let (master, time_step) = (77, sys.time_step);
        let pool = WavePool::new(2);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.plan_wave(&ctx, &bad, master, time_step)
        }))
        .expect_err("a worker's panic reaches the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("admitted leaver"));

        assert!(good.len() > pool.worker_count(), "every worker plans");
        let pooled = pool.plan_wave(&ctx, &good, master, time_step);
        let sequential = plan_wave_sequential(&ctx, &good, master, time_step, &mut NoMalice);
        assert_eq!(format!("{pooled:?}"), format!("{sequential:?}"));
        drop(pool);
    }

    /// The driving thread's own op panics: the panic reaches the caller
    /// only after the worker it dispatched has finished (no completion
    /// signal is left to arrive), and the same pool then plans a
    /// well-formed wave exactly as the driving thread does alone.
    #[test]
    fn driver_panic_waits_for_workers_and_the_pool_plans_on() {
        let mut sys = sparse_system(21);
        let leaves: Vec<NodeId> = sys.node_ids().into_iter().step_by(17).take(3).collect();
        let joins = [JoinSpec::uniform(true), JoinSpec::uniform(false)];
        let good = sys.admit_batch(&joins, &leaves).specs;
        // Op 0, the driving thread's, is the leave of a node the
        // registry never held; the worker's op 1 is a real leave.
        let leave = |node, canon| OpSpec {
            op: PlannedOp::Leave { node },
            footprint: Vec::new(),
            canon,
            center: good[0].center,
            contact_redrawn: false,
        };
        let bad = [leave(NodeId::from_raw(1 << 40), 0), leave(leaves[0], 1)];

        let ctx = WaveCtx {
            registry: &sys.registry,
            walks: &sys.walks,
            params: sys.params,
        };
        let (master, time_step) = (77, sys.time_step);
        let pool = WavePool::new(2);
        assert_eq!(pool.worker_count(), 1);
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.plan_wave(&ctx, &bad, master, time_step)
        }))
        .expect_err("the driving thread's panic reaches the caller");
        let message = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied());
        assert_eq!(message, Some("admitted leaver"));
        // Were the worker still planning, its completion would arrive
        // now; it was drained before the panic resumed.
        let late = pool.done_rx.recv_timeout(Duration::from_millis(250));
        assert!(
            matches!(late, Err(mpsc::RecvTimeoutError::Timeout)),
            "the worker finished before the driving thread's panic resumed"
        );

        let pooled = pool.plan_wave(&ctx, &good, master, time_step);
        let sequential = plan_wave_sequential(&ctx, &good, master, time_step, &mut NoMalice);
        assert_eq!(format!("{pooled:?}"), format!("{sequential:?}"));
        drop(pool);
    }

    #[test]
    fn maintenance_still_triggers_under_threading() {
        // Dense capacity-2¹⁰ system: sustained shrinkage must merge,
        // sustained growth must split — through the deferred path.
        let mut sys = system(220, 8);
        let pool = WavePool::new(4);
        for _ in 0..30 {
            let leavers: Vec<NodeId> = sys.node_ids().into_iter().take(3).collect();
            sys.step_batch(
                &BatchInput::from_flags(&[], &leavers),
                &ExecConfig::pooled(&pool),
            );
            sys.check_consistency().unwrap();
        }
        let (_, _, _, merges) = sys.op_counts();
        assert!(merges > 0, "shrinkage must merge through the wave engine");

        let mut grow = system(100, 9);
        for _ in 0..30 {
            grow.step_batch(
                &BatchInput::from_flags(&[true, true, true, true], &[]),
                &ExecConfig::pooled(&pool),
            );
            grow.check_consistency().unwrap();
        }
        let (_, _, splits, _) = grow.op_counts();
        assert!(splits > 0, "growth must split through the wave engine");
    }

    #[test]
    fn batch_lands_under_batch_cost_kind_with_nested_ops() {
        let mut sys = system(150, 10);
        let pool = WavePool::new(2);
        let report = sys.step_batch(
            &BatchInput::from_flags(&[true, false], &[]),
            &ExecConfig::pooled(&pool),
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
        let pool = WavePool::new(8);
        let report = sys.step_batch(
            &BatchInput::from_flags(&[], &[]),
            &ExecConfig::pooled(&pool),
        );
        assert_eq!(sys.time_step(), t0 + 1);
        assert_eq!(report.cost, Cost::ZERO);
        assert_eq!(sys.ledger().total(), total);
        assert_eq!(report.wave_count(), 0);
    }

    #[test]
    fn ledger_survives_threaded_merge() {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        let go = |threads: usize| {
            let mut s = NowSystem::init_fast(params, 150, 0.1, 12);
            let pool = WavePool::new(threads);
            s.step_batch(
                &BatchInput::from_flags(&[true, true, false], &[]),
                &ExecConfig::pooled(&pool),
            );
            s.check_consistency().unwrap();
            let l = s.ledger();
            (l.total(), CostKind::ALL.map(|kind| l.stats(kind)))
        };
        let serial = go(1);
        assert_eq!(serial.1[CostKind::Join as usize].count, 3);
        assert_eq!(serial, go(4), "ledgers must be bit-identical");
    }
}
