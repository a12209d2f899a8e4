//! `randCl` — size-biased cluster selection by non-backtracking random
//! walk on the overlay.
//!
//! A call is a loop of walks of exactly `k` hops
//! ([`NowParams::walk_length`]). Each hop is one collaborative `randNum`
//! at the cluster the walk stands on: the first hop of a walk draws over
//! all of its neighbours, every later hop over all but the one it came
//! from (at a degree-1 cluster, over that one); on an overlay of two or
//! three clusters, where no such walk mixes, a hop may also stay
//! ([`WalkTable`]'s `stays`). When the `k` hops are
//! done, the endpoint `C` is accepted with probability `(|C| /
//! max_cluster_size) · (d_min / deg C)`, `d_min` the overlay's least
//! degree, by one more `randNum`; otherwise a fresh walk starts from
//! `C`. A non-backtracking walk's endpoints are spread in proportion to
//! degree once it mixes, so the degree-corrected acceptance yields the
//! target distribution `|C|/n`, a uniformly random *node*'s cluster.
//! This deviates from the paper's biased CTRW (§3.1 footnote), whose
//! continuous time is uniform over vertices on any overlay; README §
//! Walk table gives the rule for `k`, the exact law it is checked
//! against (`now_graph::nbrw_law`) and what the walk costs.
//!
//! Byzantine influence: each hop's collective choices are
//! [`Kernel::draw`]s, so a cluster with ≥ 1/3 Byzantine members lets
//! the adversary steer the hop among the non-backtracking neighbours
//! ([`crate::Malice::walk_hop`]) and decide the acceptance draw. A walk's
//! length is fixed, so the adversary cannot stall or rush it. Every hop
//! is also a quorum-validated cluster-to-cluster message, accounted as
//! `|C|·|C'|` message units.
//!
//! Hot path: every join and every exchanged member performs this walk,
//! so it translates no cluster id while it hops. It resolves its
//! start's registry slot once and then carries a slot: one hop is one
//! `randNum` draw and two reads by slot — the [`WalkTable`] row of the
//! slot it stands on (its neighbours' slots, contiguous, in the
//! overlay's order) and the next cluster's size and Byzantine count,
//! from the registry's cluster slab (`Registry::security_at`). The id
//! behind a slot is read only where it is told: to the adversary at a
//! compromised cluster, and as the walk's result. Nothing is booked per
//! hop: a hop's costs stay in its group's books, the system's
//! [`Lockstep`] (a bit per (step, cluster) pair that a shared draw sets
//! once), and are settled into the ledger once per group
//! ([`Ledger::concurrent_leaves`]). A group is the calls that start in
//! one round: an exchange's, a leave's cascade's, or one call alone.
//! Its calls run one after another on the op's one stream, but are
//! billed as lockstep rounds: the walks that stand on one cluster at
//! one step share one `randNum` there, and the group takes its longest
//! call's rounds. A draw costs `2s(s − 1)` messages over 2 rounds at a
//! cluster of size `s`, and a hop's hand-off to one of size `s′` costs
//! `s·s′` more in 1 round.

use crate::cluster::ClusterSecurity;
use crate::kernel::{draw_value, Kernel};
use crate::malice::{Malice, RandNumPurpose};
use crate::params::NowParams;
use crate::registry::Registry;
use crate::system::NowSystem;
use now_net::{ClusterId, Cost, CostKind, DetRng, Ledger};
use now_over::Overlay;

/// Diagnostics of one `randCl` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkTrace {
    /// Total hops across all walks of the call.
    pub hops: u64,
    /// Number of rejected endpoints (walk restarts).
    pub restarts: u64,
    /// Hops that passed through a `randNum`-compromised cluster.
    pub compromised_hops: u64,
}

/// The overlay as walks read it, built once per overlay shape: for the
/// registry slot of every live cluster, a row of its neighbours'
/// registry slots in the overlay's (ascending id) order, plus what
/// every walk on this shape shares — its length `k`, the least degree
/// and the acceptance normaliser. A hop reads its row by the slot it
/// stands on and the next cluster's size and Byzantine count by the
/// slot the row gives (`Registry::security_at`), so no hop translates
/// an id. Rows hold no ids: a hop reads none, and the few readers that
/// need one (the adversary at a compromised cluster, the walk's result)
/// take it from the cluster slab, in the slot's own line.
///
/// [`NowSystem`] keeps one, rebuilt where the overlay or the cluster
/// slab changes shape (init, split, merge); `check_consistency`
/// re-derives it. Between
/// a split's `create_cluster` and its rebuild, the new cluster's slot
/// has no row; nothing reads one, because the cluster is not yet an
/// overlay vertex.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WalkTable {
    /// Row `s` is `slots[offsets[s]..offsets[s + 1]]`; a free slab
    /// slot has an empty row.
    offsets: Vec<u32>,
    slots: Vec<u32>,
    /// The overlay's vertex count.
    vertices: usize,
    /// Hops per walk, [`NowParams::walk_length`] of the vertex count.
    hops: u64,
    /// The least row length over the live clusters' rows: the overlay's
    /// least degree.
    d_min: u64,
    /// 1 where no row is longer than 2 (an overlay of two or three
    /// clusters, or a path or cycle), on which a non-backtracking walk
    /// does not mix, else 0. There a hop may also stay where it is, one
    /// more choice past the row, it bars no neighbour, and the
    /// acceptance counts the stay in every degree.
    stays: u64,
    /// [`NowParams::max_cluster_size`], the size an endpoint is
    /// accepted against.
    max_cluster_size: u64,
}

impl WalkTable {
    /// The table of `overlay`, whose vertices are `registry`'s live
    /// clusters.
    pub(crate) fn build(params: &NowParams, overlay: &Overlay, registry: &Registry) -> Self {
        let mut table = WalkTable::default();
        table.rebuild(params, overlay, registry);
        table
    }

    /// Re-derives the table in place, keeping its allocations.
    pub(crate) fn rebuild(&mut self, params: &NowParams, overlay: &Overlay, registry: &Registry) {
        let (rows, entries) = (registry.cluster_slab_len(), 2 * overlay.edge_count());
        self.offsets.clear();
        self.slots.clear();
        self.offsets.reserve(rows + 1);
        self.slots.reserve(entries);
        self.offsets.push(0);
        let (mut d_min, mut d_max) = (usize::MAX, 0);
        for slot in 0..rows as u32 {
            if let Some(c) = registry.cluster_id_in_slot(slot) {
                // INVARIANT: the overlay's vertices are the live
                // clusters whenever the table is rebuilt.
                let slot_of = |&nbr| registry.cluster_slot_of(nbr).expect("neighbour is live");
                let row = overlay.neighbors(c);
                (d_min, d_max) = (d_min.min(row.len()), d_max.max(row.len()));
                self.slots.extend(row.iter().map(slot_of));
            }
            self.offsets.push(self.slots.len() as u32);
        }
        self.vertices = overlay.vertex_count();
        self.hops = params.walk_length(self.vertices) as u64;
        self.d_min = d_min as u64;
        self.stays = (d_max <= 2) as u64;
        self.max_cluster_size = params.max_cluster_size() as u64;
    }

    /// The registry slots of the neighbours of the cluster in `slot`.
    #[inline]
    pub(crate) fn row(&self, slot: u32) -> &[u32] {
        let s = slot as usize;
        // INVARIANT: the table has a row for every slot of the slab it
        // was built on, which bounds every slot a walk or notification
        // holds, and its offsets ascend to `slots.len()`.
        &self.slots[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// The books of a group of walks: the `randCl` calls that start in one
/// round and are billed as lockstep rounds (README § randCl's walk). A
/// call's `j`-th walk takes its `h`-th hop at the group's step `j·(k +
/// 1) + h` and draws its acceptance at step `j·(k + 1) + k`, so the
/// walks that stand on one cluster at one step share that cluster's one
/// `randNum` there, and its slices are theirs; a call's own steps never
/// coincide, so a group of one books every draw. The books hold one bit
/// per (step, registry slot) pair, `words` words a step, opened once per
/// walk: a draw is counted, and its messages booked, by the walk that
/// sets its bit, without a branch, and the group clears the rows it
/// opened when it settles. Hand-offs are booked per hop, and the group takes the
/// rounds of its longest call: three a hop and two an acceptance.
/// Nothing reaches the ledger before [`Lockstep::settle`].
///
/// [`NowSystem`] owns one and lends it to every [`Kernel`]: it holds no
/// state between groups but its allocation, made at the first group.
#[derive(Debug, Default)]
pub(crate) struct Lockstep {
    /// The (step, slot) bits, step-major; zero past `opened`.
    drawn: Vec<u64>,
    /// Words per step: the cluster slab's slots over 64, rounded up.
    words: usize,
    /// The words of the steps the group has opened.
    opened: usize,
    /// The booked draws, their messages (each `randNum` takes
    /// [`ClusterSecurity::RAND_NUM_ROUNDS`]), and the largest cost seen.
    count: u64,
    messages: u64,
    peak: u64,
    /// The hand-off messages of every hop.
    handoffs: u64,
    /// The rounds of the group's longest call so far.
    rounds: u64,
    /// The walks the group's calls have opened, and their hops through
    /// compromised clusters: the group's [`WalkTrace`], with its length.
    walks: u64,
    compromised_hops: u64,
}

impl Lockstep {
    /// Starts a group on a cluster slab of `slots` slots.
    fn open(&mut self, slots: usize) {
        self.words = slots.div_ceil(64);
    }

    /// Opens the steps of a call's `walk`-th walk, of `steps` steps, and
    /// returns the first word of its first step's row: once per walk,
    /// not per hop.
    #[inline]
    fn open_walk(&mut self, walk: usize, steps: usize) -> usize {
        let row = walk * steps * self.words;
        let end = row + steps * self.words;
        if end > self.drawn.len() {
            self.drawn.resize(end, 0);
        }
        self.opened = self.opened.max(end);
        self.walks += 1;
        row
    }

    /// Books the `randNum` of the cluster in registry slot `slot` at the
    /// step whose row starts at word `row`, of `messages` messages.
    #[inline]
    fn book(&mut self, row: usize, slot: u32, messages: u64) {
        let (i, bit) = (row + (slot >> 6) as usize, 1u64 << (slot & 63));
        // INVARIANT: `open_walk` opened the step, and a slot is below
        // the slab's slot count, so `i` is within the opened rows.
        let word = self.drawn[i];
        self.drawn[i] = word | bit;
        let first = ((word & bit) == 0) as u64;
        self.count += first;
        self.messages += messages & first.wrapping_neg();
        // Every cost seen at a (step, slot) pair is that pair's, whoever
        // booked it, so the peak needs no mask.
        self.peak = self.peak.max(messages);
    }

    /// Ends a call that sent `handoffs` hand-off messages and took
    /// `rounds` rounds.
    #[inline]
    fn end_call(&mut self, handoffs: u64, rounds: u64) {
        self.handoffs += handoffs;
        self.rounds = self.rounds.max(rounds);
    }

    /// Settles a group of `calls` calls of walks of `hops` hops into
    /// `ledger` and empties the books, keeping their allocation: its
    /// draws as side-by-side `randNum` leaves
    /// ([`Ledger::concurrent_leaves`]), its hand-offs, and its longest
    /// call's rounds. Returns the calls' diagnostics, summed.
    fn settle(&mut self, ledger: &mut Ledger, calls: u64, hops: u64) -> WalkTrace {
        let trace = WalkTrace {
            hops: self.walks * hops,
            // A call that opens no walk (an overlay of one cluster)
            // opens none of the group's.
            restarts: self.walks.saturating_sub(calls),
            compromised_hops: self.compromised_hops,
        };
        // INVARIANT: `open_walk` keeps `opened` within `drawn`.
        self.drawn[..self.opened].fill(0);
        let (count, rounds) = (self.count, ClusterSecurity::RAND_NUM_ROUNDS);
        let sum = Cost {
            messages: self.messages,
            rounds: count * rounds,
        };
        let peak = Cost {
            messages: self.peak,
            rounds: rounds.min(sum.rounds),
        };
        ledger.concurrent_leaves(CostKind::RandNum, count, sum, peak);
        ledger.add(Cost {
            messages: self.handoffs,
            rounds: self.rounds,
        });
        *self = Lockstep {
            drawn: std::mem::take(&mut self.drawn),
            ..Lockstep::default()
        };
        trace
    }
}

impl Kernel<'_> {
    /// `randCl` from cluster `start`, a group of one: the selected
    /// cluster and the walk diagnostics. Costs are recorded under
    /// [`CostKind::RandCl`] (inclusive of the walk's `randNum`s): one
    /// draw per hop and per acceptance.
    pub(crate) fn rand_cl(&mut self, start: ClusterId) -> (ClusterId, WalkTrace) {
        let mut end = Vec::with_capacity(1);
        let trace = self.rand_cl_group(&[(start, 1)], &mut end);
        // INVARIANT: a group of one call pushes one end.
        (end[0], trace)
    }

    /// `count` `randCl` calls from each `(start, count)` of `starts`,
    /// one after another in that order, as one group ([`Lockstep`]):
    /// each call's result is pushed onto `ends`, and the calls'
    /// diagnostics are returned summed. The group's costs land in one
    /// [`CostKind::RandCl`] span, closed as one span per call
    /// ([`Ledger::end_as`]).
    ///
    /// Membership and overlay are immutable while the group runs, so
    /// its walks borrow their table rows and read cluster sizes and
    /// security in place: every walk sees the clusters as they were
    /// when the group started.
    pub(crate) fn rand_cl_group(
        &mut self,
        starts: &[(ClusterId, usize)],
        ends: &mut Vec<ClusterId>,
    ) -> WalkTrace {
        let calls: usize = starts.iter().map(|&(_, n)| n).sum();
        if calls == 0 {
            return WalkTrace {
                hops: 0,
                restarts: 0,
                compromised_hops: 0,
            };
        }
        self.ledger.begin(CostKind::RandCl);
        self.lockstep.open(self.registry.cluster_slab_len());
        for &(start, n) in starts {
            let start = self.slot_of(start);
            for _ in 0..n {
                let end = walk(
                    &*self.registry,
                    self.walks,
                    self.params,
                    self.rng,
                    self.malice,
                    start,
                    self.lockstep,
                );
                ends.push(end);
            }
        }
        let trace = (self.lockstep).settle(self.ledger, calls as u64, self.walks.hops);
        self.ledger.end_as(calls as u64);
        trace
    }
}

/// One `randCl` call from registry slot `start`, booked on `books`, on
/// the kernel's borrows passed one by one rather than through `&mut
/// Kernel`: as distinct parameters the stream, the adversary and the
/// books are known to alias nothing else, so a hop need not reload them
/// from memory. The call's diagnostics are the books' too (its walks,
/// and its hops at a compromised cluster): a trace carried through the
/// hop loop cost a group's walks 10–15 % on `grow_wide`, where the loop
/// spilled it. Its caller, [`Kernel::rand_cl_group`], takes it inline:
/// out of line, where the crate's codegen-unit split leaves it apart,
/// the hop paid 15–20 %.
#[inline]
fn walk(
    registry: &Registry,
    walks: &WalkTable,
    params: NowParams,
    rng: &mut DetRng,
    malice: &mut dyn Malice,
    start: u32,
    books: &mut Lockstep,
) -> ClusterId {
    // The walk carries the slot it stands on; the id behind it is read
    // only where it is told: to the adversary, and as the result.
    let id_of = |slot: u32| move || registry.cluster_in_slot(slot).id();
    let mut slot = start;
    // One cluster, or a cluster with no neighbour, is the only choice.
    if walks.vertices <= 1 || walks.d_min == 0 {
        return id_of(slot)();
    }

    let mode = params.security();
    let mut here = registry.security_at(slot, mode);
    // The legal hops by id, as the adversary is shown them: filled only
    // at a compromised cluster.
    let mut nbr_ids = Vec::new();
    // A walk's steps: `k` hops and the acceptance.
    let (steps, words) = (walks.hops as usize + 1, books.words);
    // The call's hand-off messages and rounds: a `randNum` takes two
    // rounds and a hand-off one.
    let (mut handoffs, mut rounds) = (0, 0);
    for walk in 0..=params.max_walk_restarts() {
        // One walk of `k` hops; `came_from` is the slot it just left, and
        // `row` the first word of its current step's lockstep row.
        let mut row = books.open_walk(walk, steps);
        rounds += 3 * walks.hops + 2;
        let mut came_from = None;
        for _ in 0..walks.hops {
            let slots = walks.row(slot);
            let degree = slots.len();
            // The hop's one collaborative randNum (compromised clusters
            // control it): a neighbour other than the one the walk came
            // from, whose slot the row's last entry stands in for, or,
            // past the row, a stay where `walks.stays` allows one.
            let barred = came_from.filter(|_| degree > 1 && walks.stays == 0);
            let choices = degree + walks.stays as usize - barred.is_some() as usize;
            // [`Kernel::draw`], its leaf booked at this step's row.
            books.book(row, slot, here.rand_num_messages());
            let w = draw_value(
                rng,
                malice,
                id_of(slot),
                choices as u64,
                RandNumPurpose::WalkHop,
                here,
            );
            // INVARIANT: `choices ≥ 1` (the degree is at least `d_min
            // ≥ 1`), and `min` clamps the drawn index below it.
            let pick = (w as usize).min(choices - 1);
            let mut next = slots.get(pick).copied().unwrap_or(slot);
            if barred == Some(next) {
                // INVARIANT: a walk bars a slot only where `degree > 1`.
                next = slots[degree - 1];
            }
            if !here.secure_plain {
                books.compromised_hops += 1;
                next = forced_pick(registry, slots, barred, next, malice, rng, &mut nbr_ids);
            }
            // Quorum-validated hand-off message C → C' (to itself, on a
            // stay).
            let there = registry.security_at(next, mode);
            handoffs += here.size * there.size;
            came_from = Some(slot);
            slot = next;
            here = there;
            row += words;
        }
        // Size-biased, degree-corrected acceptance at the endpoint:
        // `min(|C|, max) · d_min` draws out of `max · deg C` accept.
        let degree = walks.row(slot).len() as u64 + walks.stays;
        let max = walks.max_cluster_size;
        books.book(row, slot, here.rand_num_messages());
        let draw = draw_value(
            rng,
            malice,
            id_of(slot),
            max * degree,
            RandNumPurpose::WalkAcceptance,
            here,
        );
        if draw < here.size.min(max) * (walks.d_min + walks.stays) {
            books.end_call(handoffs, rounds);
            return id_of(slot)();
        }
    }
    // Restart cap exhausted (never in the invariant regime; see
    // NowParams::max_walk_restarts) — accept the current endpoint.
    books.end_call(handoffs, rounds);
    id_of(slot)()
}

/// The hop at a compromised cluster: the neighbour the adversary
/// forces, if it names one of the legal hops (the row but the `barred`
/// slot the walk came from, shown to it by id in `nbr_ids`), else the
/// drawn slot `next`. Out of line, so that the honest hop's loop stays
/// small: inlined, it left the loop's speed to code placement (a copy
/// of `walk` that differed in one constant ran a third slower).
#[cold]
#[inline(never)]
fn forced_pick(
    registry: &Registry,
    slots: &[u32],
    barred: Option<u32>,
    next: u32,
    malice: &mut dyn Malice,
    rng: &mut DetRng,
    nbr_ids: &mut Vec<ClusterId>,
) -> u32 {
    let id = |s: u32| registry.cluster_in_slot(s).id();
    nbr_ids.clear();
    nbr_ids.extend(slots.iter().filter(|&&s| Some(s) != barred).map(|&s| id(s)));
    malice
        .walk_hop(nbr_ids, rng)
        .filter(|forced| nbr_ids.contains(forced))
        .and_then(|forced| slots.iter().copied().find(|&s| id(s) == forced))
        .unwrap_or(next)
}

impl NowSystem {
    /// Runs `randCl` starting from cluster `start` on the live system;
    /// returns the selected cluster and the walk diagnostics.
    ///
    /// # Panics
    /// Panics if `start` is not a live cluster.
    pub fn rand_cl_from(&mut self, start: ClusterId) -> (ClusterId, WalkTrace) {
        assert!(
            self.registry.contains_cluster(start),
            "rand_cl_from: unknown cluster {start}"
        );
        self.kernel().rand_cl(start)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::params::NowParams;
    use std::collections::BTreeMap;

    fn system(n0: usize, seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(1 << 10).unwrap();
        NowSystem::init_fast(params, n0, 0.2, seed)
    }

    #[test]
    fn returns_live_cluster() {
        let mut sys = system(200, 1);
        let start = sys.cluster_ids()[0];
        for _ in 0..20 {
            let (c, _) = sys.rand_cl_from(start);
            assert!(sys.cluster(c).is_some());
        }
        sys.check_consistency().unwrap();
    }

    #[test]
    fn single_cluster_short_circuits() {
        let mut sys = system(20, 2); // one cluster
        assert_eq!(sys.cluster_count(), 1);
        let only = sys.cluster_ids()[0];
        let (c, trace) = sys.rand_cl_from(only);
        assert_eq!(c, only);
        assert_eq!(trace.hops, 0);
    }

    #[test]
    fn walk_costs_are_recorded() {
        let mut sys = system(200, 3);
        let start = sys.cluster_ids()[0];
        let before = sys.ledger().stats(CostKind::RandCl);
        let (_, trace) = sys.rand_cl_from(start);
        let after = sys.ledger().stats(CostKind::RandCl);
        assert_eq!(after.count - before.count, 1);
        assert!(trace.hops > 0, "multi-cluster walk should hop");
        assert!(after.total_messages > before.total_messages);
        // Rounds at least one per hop.
        assert!(after.total_rounds - before.total_rounds >= trace.hops);
    }

    /// Every walk takes exactly `k` hops, so a call takes `k` per walk,
    /// its restarts included: the ledger books one `randNum` a hop and
    /// one an acceptance, and a call's own steps never share one.
    #[test]
    fn every_walk_takes_exactly_k_hops() {
        let mut sys = system(400, 4);
        let k = sys.walks.hops;
        assert_eq!(k, sys.params().walk_length(sys.cluster_count()) as u64);
        let mut restarts = 0;
        for start in sys.cluster_ids().into_iter().cycle().take(60) {
            let before = sys.ledger().stats(CostKind::RandNum).count;
            let (_, t) = sys.rand_cl_from(start);
            let draws = sys.ledger().stats(CostKind::RandNum).count - before;
            let walks = t.restarts + 1;
            assert_eq!(draws, (k + 1) * walks);
            assert_eq!(t.hops, k * walks);
            restarts += t.restarts;
        }
        assert!(restarts > 0, "restarts covered");
    }

    /// Measures the TV distance between `randCl`'s endpoint frequencies
    /// and the size-biased law on one seeded system, plus the hit counts
    /// of the artificially enlarged/shrunken clusters.
    fn endpoint_tv_for_seed(seed: u64, trials: u64) -> (f64, u64, u64) {
        let mut sys = system(300, seed);
        // Make sizes unequal: move a chunk of members from one cluster
        // to another (bypassing ops; this is a distribution test).
        let ids = sys.cluster_ids();
        let (big, small) = (ids[0], ids[1]);
        for _ in 0..8 {
            let node = sys.cluster(small).unwrap().member_at(0);
            sys.move_node(node, big);
        }
        sys.check_consistency().unwrap();

        let start = ids[2 % ids.len()];
        let mut counts: BTreeMap<now_net::ClusterId, u64> = BTreeMap::new();
        for _ in 0..trials {
            let (c, _) = sys.rand_cl_from(start);
            *counts.entry(c).or_default() += 1;
        }
        let n = sys.population() as f64;
        let mut tv = 0.0;
        for id in sys.cluster_ids() {
            let expect = sys.cluster(id).unwrap().size() as f64 / n;
            let got = *counts.get(&id).unwrap_or(&0) as f64 / trials as f64;
            tv += (expect - got).abs();
        }
        tv /= 2.0;
        let big_hits = *counts.get(&big).unwrap_or(&0);
        let small_hits = *counts.get(&small).unwrap_or(&0);
        (tv, big_hits, small_hits)
    }

    /// The distribution headline: endpoint frequencies match cluster
    /// sizes, i.e. `randCl` samples a uniformly random *node*'s cluster.
    ///
    /// Asserted over a small seed *ensemble* rather than one pinned
    /// seed (see ROADMAP "statistical-test robustness"): the median TV
    /// distance must be comfortably small and even the worst seed must
    /// stay within the sampling-noise band, so a change to the vendored
    /// RNG stream cannot silently invalidate the test.
    #[test]
    fn endpoint_distribution_is_size_biased() {
        let mut tvs = Vec::new();
        let mut bias_ok = 0usize;
        let seeds = [5u64, 6, 7, 8, 9];
        for &seed in &seeds {
            let (tv, big_hits, small_hits) = endpoint_tv_for_seed(seed, 1200);
            tvs.push(tv);
            // The enlarged cluster should out-hit the shrunken one.
            if big_hits > small_hits {
                bias_ok += 1;
            }
        }
        tvs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = tvs[tvs.len() / 2];
        let worst = *tvs.last().unwrap();
        assert!(
            median < 0.08,
            "median TV distance from size-biased law: {median} (ensemble {tvs:?})"
        );
        assert!(
            worst < 0.14,
            "worst-seed TV distance: {worst} (ensemble {tvs:?})"
        );
        assert!(
            bias_ok >= seeds.len() - 1,
            "size bias absent on {}/{} seeds",
            seeds.len() - bias_ok,
            seeds.len()
        );
    }

    /// The exact law of `randCl`'s output on `sys` at `k` hops a walk,
    /// from every start ([`now_graph::nbrw_law`]), with the clusters'
    /// ids and the target `|C|/n`, sizes and the normaliser read from
    /// the system and the parameters, not from the walk table.
    fn exact_laws(sys: &NowSystem, k: usize) -> (Vec<ClusterId>, Vec<Vec<f64>>, Vec<f64>) {
        let (g, ids) = sys.overlay.to_dense();
        let sizes: Vec<usize> = ids
            .iter()
            .map(|&c| sys.cluster(c).unwrap().size())
            .collect();
        let n: usize = sizes.iter().sum();
        let target = sizes.iter().map(|&s| s as f64 / n as f64).collect();
        let laws = now_graph::nbrw_law(&g, &sizes, sys.params().max_cluster_size(), k);
        (ids, laws, target)
    }

    /// The overlay's vertex count and the largest TV distance from
    /// `|C|/n` of `randCl`'s exact law at `k` hops a walk, over every
    /// start.
    pub(crate) fn worst_start_tv(sys: &NowSystem, k: usize) -> (usize, f64) {
        let (ids, laws, target) = exact_laws(sys, k);
        let worst = laws
            .iter()
            .map(|law| now_graph::total_variation(law, &target))
            .fold(0.0, f64::max);
        (ids.len(), worst)
    }

    /// A small irregular overlay whose walk is far from mixed: N = 16,
    /// 20 clusters of sizes 3 to 12, Erdős–Rényi degrees 2 to 9, two
    /// hops a walk.
    fn skewed_toy(seed: u64) -> NowSystem {
        let params = NowParams::for_capacity(16)
            .unwrap()
            .with_walk_length_factor(0.15);
        let mut sys = NowSystem::init_fast(params, 160, 0.0, seed);
        let ids = sys.cluster_ids();
        // Sizes 3 to 12 (the normaliser): move members from the
        // even-ranked clusters to the odd-ranked ones.
        for (i, pair) in ids.chunks(2).enumerate() {
            for _ in 0..(i % 5) + 1 {
                let node = sys.cluster(pair[0]).unwrap().member_at(0);
                sys.move_node(node, pair[1]);
            }
        }
        sys.check_consistency().unwrap();
        let degrees: Vec<usize> = ids.iter().map(|&c| sys.overlay.degree(c)).collect();
        assert!(
            degrees.iter().min() < degrees.iter().max(),
            "irregular overlay"
        );
        assert_eq!(sys.walks.hops, 2, "two hops a walk");
        sys
    }

    /// The real walk samples the exact law: 40 000 `rand_cl_from` walks
    /// from one cluster of a small irregular overlay (N = 16, 20
    /// clusters of sizes 3 to 12, Erdős–Rényi degrees 2 to 9), at two
    /// hops a walk, so that the law is far from `|C|/n` and the test
    /// sees the hop's exclusion of the edge it came in on, the
    /// degree-corrected acceptance and the restarts, not only the
    /// target. A G-test against the law, over the clusters with ≥ 5
    /// expected hits (the rest pooled), must stay below the χ² quantile
    /// of its degrees of freedom at 1 − 10⁻⁴ (Wilson–Hilferty), on
    /// each of two seeds.
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm computes the G statistic, off the trajectory"
    )]
    fn walk_endpoints_follow_the_exact_law() {
        for seed in [1, 2] {
            let mut sys = skewed_toy(seed);
            let ids = sys.cluster_ids();
            let k = sys.walks.hops as usize;
            let start = ids[3];
            let (law_ids, laws, _) = exact_laws(&sys, k);
            let law = &laws[law_ids.binary_search(&start).unwrap()];
            let walks = 40_000;
            let mut hits: BTreeMap<ClusterId, u64> = BTreeMap::new();
            for _ in 0..walks {
                *hits.entry(sys.rand_cl_from(start).0).or_default() += 1;
            }
            // (observed, expected) per bin, the sparse bins pooled.
            let mut bins: Vec<(f64, f64)> = Vec::new();
            let mut pool = (0.0, 0.0);
            for (c, &p) in law_ids.iter().zip(law) {
                let bin = (*hits.get(c).unwrap_or(&0) as f64, p * walks as f64);
                if bin.1 >= 5.0 {
                    bins.push(bin);
                } else {
                    pool = (pool.0 + bin.0, pool.1 + bin.1);
                }
            }
            if pool.1 > 0.0 {
                bins.push(pool);
            }
            let g: f64 = bins
                .iter()
                .filter(|&&(o, _)| o > 0.0)
                .map(|&(o, e)| 2.0 * o * (o / e).ln())
                .sum();
            // χ²(df) quantile at 1 − 10⁻⁴ (z = 3.719), Wilson–Hilferty.
            let df = (bins.len() - 1) as f64;
            let h = 2.0 / (9.0 * df);
            let threshold = df * (1.0 - h + 3.719 * h.sqrt()).powi(3);
            println!(
                "seed {seed}: G = {g:.1} over {} bins, threshold {threshold:.1}",
                bins.len()
            );
            assert!(bins.len() >= 10, "{} bins", bins.len());
            assert!(g < threshold, "seed {seed}: G = {g:.1} ≥ {threshold:.1}");
        }
    }

    /// The walk's guarantee, from every start: on the start overlays
    /// `init_fast` builds at each bench workload's shape (seeds 1 and
    /// 2), at the `wide/` toy's (N = 16, 64 clusters) and at
    /// `attack_resilience`'s two shapes, `randCl`'s exact law is within
    /// TV 1/N² of `|C|/n` from every start at the walk's length `k`, and
    /// already at `⌊k/1.25⌋`.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "exact law on 10³ vertices: run with --release"
    )]
    fn the_walk_reaches_tv_one_over_n_squared_from_every_start() {
        // (name, N, k, l, τ bound, nodes, τ of the start, seeds)
        let shapes = [
            ("storm_event", 1 << 11, 3, 1.5, 0.30, 660, 0.10, 2),
            ("steady_*", 1 << 12, 2, 1.5, 0.30, 3_072, 0.05, 2),
            ("grow_wide", 1 << 16, 2, 1.5, 0.30, 32_768, 0.05, 2),
            ("wide/", 16, 2, 1.5, 0.30, 512, 0.10, 2),
            ("attack_resilience", 1 << 10, 3, 2.0, 0.15, 300, 0.15, 2),
            ("in_regime", 1 << 10, 6, 2.0, 0.15, 600, 0.05, 2),
        ];
        for (name, cap, k, l, tau, n0, tau0, seeds) in shapes {
            let params = NowParams::new(cap, k, l, tau, 0.05).unwrap();
            let eps = 1.0 / (cap as f64 * cap as f64);
            for seed in 1..=seeds {
                let sys = NowSystem::init_fast(params, n0, tau0, seed);
                let hops = sys.walks.hops as usize;
                for at in [hops, hops * 4 / 5] {
                    let (m, worst) = worst_start_tv(&sys, at);
                    println!("{name} seed {seed}, m = {m}, {at} hops: worst TV {worst:.2e} (1/N² {eps:.2e})");
                    assert!(
                        worst <= eps,
                        "{name} seed {seed}, {at} hops: TV {worst:e} > {eps:e}"
                    );
                }
            }
        }
    }

    /// On two or three clusters, where a non-backtracking walk is
    /// periodic (on three, `k ≡ 0 mod 3` hops always lead back to the
    /// start), a hop may stay, and the output is `|C|/n`: 6 000 walks
    /// from one cluster of unequal sizes land within 0.03 of it on
    /// every cluster.
    #[test]
    fn tiny_overlays_sample_the_size_biased_law() {
        for (clusters, shift) in [(2, 6), (3, 8)] {
            let mut sys = system(20 * clusters, 9);
            let ids = sys.cluster_ids();
            assert_eq!(ids.len(), clusters);
            for _ in 0..shift {
                let node = sys.cluster(ids[0]).unwrap().member_at(0);
                sys.move_node(node, ids[1]);
            }
            let walks = 6_000;
            let mut hits: BTreeMap<ClusterId, u64> = BTreeMap::new();
            for _ in 0..walks {
                *hits.entry(sys.rand_cl_from(ids[0]).0).or_default() += 1;
            }
            let n = sys.population() as f64;
            for &c in &ids {
                let want = sys.cluster(c).unwrap().size() as f64 / n;
                let got = *hits.get(&c).unwrap_or(&0) as f64 / walks as f64;
                assert!(
                    (got - want).abs() < 0.03,
                    "{clusters} clusters, {c}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn compromised_hops_are_flagged() {
        let mut sys = system(200, 6);
        // Corrupt one cluster past 1/3 by brute registry surgery:
        // detach honest members until the fraction crosses.
        let victim = sys.cluster_ids()[0];
        let mut moved = 0;
        while sys
            .cluster(victim)
            .unwrap()
            .rand_num_secure_in(crate::params::SecurityMode::Plain)
        {
            let honest_member = sys
                .cluster(victim)
                .unwrap()
                .member_vec()
                .into_iter()
                .find(|&m| sys.is_honest(m).unwrap())
                .expect("has honest members");
            let other = sys.cluster_ids()[1];
            sys.move_node(honest_member, other);
            moved += 1;
            assert!(moved < 100, "runaway");
        }
        sys.check_consistency().unwrap();
        // Many walks from the compromised cluster: its own hops count as
        // compromised.
        let mut compromised = 0u64;
        for _ in 0..20 {
            let (_, t) = sys.rand_cl_from(victim);
            compromised += t.compromised_hops;
        }
        assert!(
            compromised > 0,
            "walks through a compromised cluster must be flagged"
        );
    }

    /// A walk's books settle once, inside its span: on a fresh ledger,
    /// each of 200 calls leaves one `RandCl` span that holds everything
    /// booked, one round per hop on top of its draws' rounds, one draw
    /// per hop plus each walk's acceptance draw — so three rounds per
    /// hop and two per walk — and a peak that is one cluster's `randNum` cost, not a sum —
    /// on a secure system, and on one whose start cluster the adversary
    /// holds past 1/3, where draws go through `Malice`. Cluster sizes
    /// differ, so a walk's leaves differ in cost.
    #[test]
    fn tallied_walks_settle_inside_their_span() {
        for polluted in [false, true] {
            let mut sys = system(300, 12);
            let ids = sys.cluster_ids();
            let shift = |sys: &mut NowSystem, from: ClusterId, to: ClusterId| {
                let honest = sys
                    .cluster(from)
                    .unwrap()
                    .members()
                    .find(|&m| sys.is_honest(m).unwrap())
                    .expect("has honest members");
                sys.move_node(honest, to);
            };
            // Sizes apart: honest members from the cluster with the
            // fewest Byzantine ones, which stays secure.
            let donor = sys
                .clusters()
                .skip(2)
                .min_by_key(|c| c.byz_count())
                .unwrap()
                .id();
            for _ in 0..6 {
                shift(&mut sys, donor, ids[1]);
            }
            while polluted
                && sys
                    .cluster(ids[0])
                    .unwrap()
                    .rand_num_secure_in(crate::params::SecurityMode::Plain)
            {
                shift(&mut sys, ids[0], ids[1]);
            }
            let secure = sys
                .clusters()
                .filter(|c| c.rand_num_secure_in(crate::params::SecurityMode::Plain))
                .count();
            let compromised = if polluted { 1 } else { 0 };
            assert_eq!(secure + compromised, sys.cluster_count(), "setup");
            let draw_costs: Vec<u64> = sys
                .clusters()
                .map(|c| {
                    ClusterSecurity::of(c.size(), c.byz_count(), crate::params::SecurityMode::Plain)
                })
                .map(|at| at.rand_num_cost().messages)
                .collect();

            let (mut restarts, mut compromised) = (0, 0);
            for i in 0..200 {
                *sys.ledger_mut() = Ledger::new();
                let start = ids[if i % 2 == 0 { 0 } else { i % ids.len() }];
                let (_, trace) = sys.rand_cl_from(start);
                restarts += trace.restarts;
                compromised += trace.compromised_hops;
                let l = sys.ledger();
                let (walk, draws) = (l.stats(CostKind::RandCl), l.stats(CostKind::RandNum));
                assert_eq!(walk.count, 1, "walk {i}");
                assert_eq!(walk.total_messages, l.total().messages, "walk {i}");
                assert_eq!(walk.total_rounds, l.total().rounds, "walk {i}");
                assert_eq!(walk.total_rounds - draws.total_rounds, trace.hops);
                let walks = trace.restarts + 1;
                assert_eq!(draws.count, trace.hops + walks, "walk {i}");
                assert_eq!(walk.total_rounds, 3 * trace.hops + 2 * walks, "walk {i}");
                assert!(draw_costs.contains(&draws.max_messages), "walk {i}");
            }
            assert!(restarts > 0, "restarts covered");
            assert_eq!(
                compromised > 0,
                polluted,
                "Malice path covered iff polluted"
            );
        }
    }

    /// The calls of a group replayed by hand on a copy of the system's
    /// stream, on the overlay by id (not the walk table), under
    /// [`crate::NoMalice`], whose draws are the stream's: per call, the
    /// cluster each of its steps draws at (`k` hops, then the
    /// acceptance, per walk) and its end. The overlay must have a
    /// cluster of degree > 2, so that no hop may stay.
    fn replay_group(
        sys: &NowSystem,
        starts: &[(ClusterId, usize)],
    ) -> Vec<(Vec<ClusterId>, ClusterId)> {
        use rand::Rng;
        let mut rng = sys.rng.clone();
        let k = sys.params().walk_length(sys.cluster_count());
        let max = sys.params().max_cluster_size() as u64;
        let ids = sys.cluster_ids();
        let d_min = ids.iter().map(|&c| sys.overlay.degree(c)).min().unwrap() as u64;
        assert!(ids.iter().any(|&c| sys.overlay.degree(c) > 2), "no stays");
        let size = |c: ClusterId| sys.cluster(c).unwrap().size() as u64;
        let mut calls = Vec::new();
        for &(start, n) in starts {
            for _ in 0..n {
                let (mut path, mut at) = (Vec::new(), start);
                loop {
                    let mut came_from = None;
                    for _ in 0..k {
                        path.push(at);
                        let row = sys.overlay.neighbors(at);
                        let barred = came_from.filter(|_| row.len() > 1);
                        let choices = (row.len() - barred.is_some() as usize) as u64;
                        let mut next = row[rng.gen_range(0..choices) as usize];
                        if Some(next) == barred {
                            next = row[row.len() - 1];
                        }
                        came_from = Some(at);
                        at = next;
                    }
                    path.push(at);
                    let degree = sys.overlay.degree(at) as u64;
                    if rng.gen_range(0..max * degree) < size(at).min(max) * d_min {
                        break;
                    }
                }
                calls.push((path, at));
            }
        }
        calls
    }

    /// The lockstep bill, recomputed from the walks' paths: groups of
    /// three starts (5, 4 and 3 calls, as a cascade's receivers), 24 per
    /// system, on a clean system and on one whose first cluster the
    /// adversary holds past 1/3. Each group books one `randNum` per
    /// distinct (step, cluster) pair of its paths, at that cluster's
    /// cost, the hand-offs of every hop, one `randCl` span per call,
    /// and the rounds of its longest call: three a hop and two a walk.
    #[test]
    fn lockstep_bill_counts_distinct_cluster_rounds() {
        for polluted in [false, true] {
            let mut sys = system(300, 12);
            let ids = sys.cluster_ids();
            while polluted
                && sys
                    .cluster(ids[0])
                    .unwrap()
                    .rand_num_secure_in(crate::params::SecurityMode::Plain)
            {
                let honest = sys
                    .cluster(ids[0])
                    .unwrap()
                    .members()
                    .find(|&m| sys.is_honest(m).unwrap())
                    .expect("has honest members");
                sys.move_node(honest, ids[1]);
            }
            let k = sys.walks.hops as usize;
            let size = |sys: &NowSystem, c: ClusterId| sys.cluster(c).unwrap().size() as u64;
            let starts = [(ids[0], 5), (ids[1], 4), (ids[2], 3)];
            let (mut shared, mut compromised) = (0, 0);
            for group in 0..24 {
                let calls = replay_group(&sys, &starts);
                *sys.ledger_mut() = Ledger::new();
                let mut ends = Vec::new();
                sys.kernel().rand_cl_group(&starts, &mut ends);
                let got: Vec<ClusterId> = calls.iter().map(|c| c.1).collect();
                assert_eq!(ends, got, "group {group}: the replay is the walk");

                let mut pairs = std::collections::BTreeSet::new();
                let (mut draws, mut handoffs, mut longest) = (0, 0, 0);
                for (path, _) in &calls {
                    let walks = path.len() / (k + 1);
                    let hops = path.len() - walks;
                    longest = longest.max(3 * hops + 2 * walks);
                    for (step, &c) in path.iter().enumerate() {
                        pairs.insert((step, c));
                        compromised += (c == ids[0] && polluted) as u64;
                        // A hop hands off to the next step's cluster;
                        // the acceptance, a walk's last step, does not.
                        if step % (k + 1) != k {
                            handoffs += size(&sys, c) * size(&sys, path[step + 1]);
                        }
                    }
                    draws += path.len();
                }
                let l = sys.ledger();
                let (walk, rn) = (l.stats(CostKind::RandCl), l.stats(CostKind::RandNum));
                let leaf_messages: u64 = (pairs.iter())
                    .map(|&(_, c)| 2 * size(&sys, c) * (size(&sys, c) - 1))
                    .sum();
                assert_eq!(walk.count, 12, "group {group}");
                assert_eq!(rn.count, pairs.len() as u64, "group {group}");
                assert_eq!(rn.total_messages, leaf_messages, "group {group}");
                assert_eq!(rn.total_rounds, 2 * pairs.len() as u64, "group {group}");
                assert_eq!(
                    l.total().messages,
                    leaf_messages + handoffs,
                    "group {group}"
                );
                assert_eq!(l.total().rounds, longest as u64, "group {group}");
                assert_eq!(walk.total_rounds, longest as u64, "group {group}");
                shared += draws - pairs.len();
            }
            assert!(shared > 0, "draws shared");
            assert_eq!(
                compromised > 0,
                polluted,
                "Malice path covered iff polluted"
            );
        }
    }

    /// Walks that share draws stay independent: 2 500 groups of 8 walks
    /// from one cluster of the skewed toy, where all 8 stand on one
    /// cluster at least at the first step. Within a group, walks `2i`
    /// and `2i + 1` end on one cluster at the rate `Σ_C p_C²` of two
    /// independent draws from the exact law `p` ([`now_graph::nbrw_law`]),
    /// within the binomial bound at 1 − 10⁻⁴ (z = 3.891), on each of two
    /// seeds.
    #[test]
    fn co_located_walks_draw_independently() {
        for seed in [1, 2] {
            let mut sys = skewed_toy(seed);
            let start = sys.cluster_ids()[3];
            let (law_ids, laws, _) = exact_laws(&sys, sys.walks.hops as usize);
            let law = &laws[law_ids.binary_search(&start).unwrap()];
            let p: f64 = law.iter().map(|q| q * q).sum();
            let (groups, walks) = (2_500, 8);
            let mut hits = 0u64;
            let mut ends = Vec::new();
            for _ in 0..groups {
                ends.clear();
                sys.kernel().rand_cl_group(&[(start, walks)], &mut ends);
                hits += ends.chunks(2).filter(|pair| pair[0] == pair[1]).count() as u64;
            }
            let trials = (groups * walks / 2) as f64;
            let (want, bound) = (trials * p, 3.891 * (trials * p * (1.0 - p)).sqrt());
            println!(
                "seed {seed}: {hits} of {trials} pairs met, want {want:.0} ± {bound:.0} (p {p:.6})"
            );
            assert!(
                (hits as f64 - want).abs() <= bound,
                "seed {seed}: {hits} meetings, want {want:.0} ± {bound:.0}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown cluster")]
    fn unknown_start_panics() {
        let mut sys = system(100, 7);
        let ghost = now_net::ClusterId::from_raw(99_999);
        let _ = sys.rand_cl_from(ghost);
    }

    #[test]
    fn determinism_per_seed() {
        let run = |seed: u64| {
            let mut sys = system(250, seed);
            let start = sys.cluster_ids()[0];
            let picks: Vec<u64> = (0..10).map(|_| sys.rand_cl_from(start).0.raw()).collect();
            picks
        };
        assert_eq!(run(8), run(8));
        assert_ne!(run(8), run(9), "different seeds should differ");
    }
}
