//! `randCl` — size-biased cluster selection by continuous-time random
//! walk on the overlay.
//!
//! Per the paper's §3.1 footnote, a *biased CTRW* from cluster `Cᵢ` is a
//! sequence of CTRWs: at each hop the current cluster collaboratively
//! draws (via `randNum`) the next neighbor and the exponential holding
//! time; when the walk's duration expires at cluster `C`, it is accepted
//! with probability `|C| / max_C'|C'|`, otherwise a fresh CTRW starts
//! from there. The CTRW's uniform stationary law over vertices times the
//! size-biased acceptance yields the target distribution `(|C|/n)` —
//! i.e. a uniformly random *node*'s cluster.
//!
//! Byzantine influence: each hop's collective choices are
//! [`Kernel::draw`]s, so a cluster with ≥ 1/3 Byzantine members lets
//! the adversary steer the hop (and [`crate::Malice`] may redirect it
//! outright). Every hop is also a quorum-validated cluster-to-cluster
//! message, accounted as `|C|·|C'|` message units.
//!
//! Hot path: every join and every exchanged member performs this walk,
//! so it translates no cluster id while it hops. It resolves its
//! start's registry slot once and then carries a slot: one hop is two
//! `randNum` draws, a table hold, and two reads by slot — the
//! [`WalkTable`] row of the slot it stands on (its neighbours' slots,
//! contiguous, in the overlay's order) and the next cluster's size and
//! Byzantine count, from the registry's cluster slab
//! (`Registry::security_at`). The id behind a slot is read only where it is told:
//! to the adversary at a compromised cluster, and as the walk's result.
//! The table is the overlay by registry slot, one per system, rebuilt
//! only where the overlay or the cluster slab changes shape (init,
//! split, merge), and it carries what every walk on that shape shares —
//! the CTRW duration, the acceptance normaliser, and each degree's
//! reciprocal — so a hop calls no libm function and divides nothing.
//! Nothing is booked per hop: a hop's costs stay in walk-local variables ([`WalkBooks`] — its
//! `randNum` leaves as a count, a message sum and a peak, and its
//! hand-off messages) and are settled into the ledger once per walk
//! ([`Ledger::leaves`], exactly that many leaf calls).
//!
//! Holding times: a CTRW ends at the first hop whose hold reaches the
//! time left, the holds subtracted one by one in `f64`. A hop's hold is
//! [`LnTable`]'s `−ln((u + 1)/(RES + 1))` for its draw `u` times the
//! degree's reciprocal. The table is the law: every hold is the
//! `Exp(degree)` quantile of its draw to within 2⁻²³ ≈ 1.2·10⁻⁷ before
//! the scaling, and, built from IEEE-754 basic operations alone
//! ([`now_net::ieee`]), it is the same on every target, so no
//! trajectory depends on the platform's libm.
//!
//! A hop's cost is its two draws' keystream (two buffered words of a
//! sixteen-block ChaCha12 refill), the table hold, range scaling, the
//! row and slab reads and the tally; README § Walk table has its
//! measurements.

use crate::cluster::ClusterSecurity;
use crate::kernel::{draw_value, Kernel};
use crate::malice::{Malice, RandNumPurpose};
use crate::params::{acceptance, NowParams};
use crate::registry::Registry;
use crate::system::NowSystem;
use now_net::{ieee, ClusterId, Cost, CostKind, DetRng, Ledger};
use now_over::Overlay;

/// Resolution for fixed-point randomness drawn via randNum.
const RES: u64 = 1 << 24;

/// The [`LnTable`] has `2^LN_BITS` bins.
const LN_BITS: u32 = 10;

/// `ln(u + 1)` for every draw `u < RES`, as one chord per bin of the
/// mantissa of `u + 1`, folded into the hold: bin `i` is `(ln(RES + 1)
/// − ln m₀, slope)`, `m₀ = 1 + i·2^−LN_BITS`, the slope per unit of the
/// mantissa bits below the bin's.
///
/// Its error: write `u + 1 = 2^e · m` with `m ∈ [1, 2)` (exactly, by its
/// `f64` exponent and mantissa): `ln(u + 1) = e·ln 2 + ln m`, and bin
/// `i` holds the chord of `ln` over `[m₀, m₀ + h)`, `h = 2^−LN_BITS`. A
/// chord is off by at most `max|f''|·h²/8`, and `|ln''(m)| = 1/m² ≤ 1`,
/// so the table is off by at most `h²/8` (2⁻²³ ≈ 1.19·10⁻⁷; the bin `m₀
/// = 1` attains it to within 0.1 %), plus the roundings of a few `f64`
/// operations on values ≤ 17, ≤ 10⁻¹⁴ together.
struct LnTable {
    bins: [(f64, f64); 1 << LN_BITS],
}

/// Mantissa bits of an `f64`, and those below a bin's.
const MANTISSA: u32 = 52;
const BIN_LOW: u32 = MANTISSA - LN_BITS;

/// The one [`LnTable`], evaluated at compile time.
static LN_TABLE: LnTable = LnTable::new();

impl LnTable {
    const fn new() -> Self {
        let h = 1.0 / (1u64 << LN_BITS) as f64;
        let ln_res = ieee::ln(RES as f64 + 1.0);
        let mut bins = [(0.0, 0.0); 1 << LN_BITS];
        let mut i = 0;
        while i < bins.len() {
            let m0 = 1.0 + i as f64 * h;
            let rise = ieee::ln_1p(h / m0);
            bins[i] = (ln_res - ieee::ln(m0), rise / (1u64 << BIN_LOW) as f64);
            i += 1;
        }
        LnTable { bins }
    }

    /// The table's `−ln((u + 1)/(RES + 1))` for `u < RES` (and
    /// meaningless above).
    #[inline]
    fn neg_ln_unit(&self, u: u64) -> f64 {
        let bits = ((u + 1) as f64).to_bits();
        let exponent = (bits >> MANTISSA) as i64 - 1023;
        let low = bits & ((1 << BIN_LOW) - 1);
        // INVARIANT: the mask keeps the index below `1 << LN_BITS`,
        // the table's length.
        let (top, slope) = self.bins[(bits >> BIN_LOW) as usize & ((1 << LN_BITS) - 1)];
        top - (exponent as f64 * std::f64::consts::LN_2 + low as f64 * slope)
    }

    /// The hold of the draw `u` at a cluster whose degree has the
    /// reciprocal `recip`: `Exp(degree)`. A draw of `RES` or more (only
    /// a compromised cluster's) is read as `RES − 1`, the shortest hold.
    #[inline]
    fn hold(&self, u: u64, recip: f64) -> f64 {
        self.neg_ln_unit(u.min(RES - 1)) * recip
    }
}

/// Diagnostics of one `randCl` invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkTrace {
    /// Total hops across all component CTRWs.
    pub hops: u64,
    /// Number of rejected endpoints (walk restarts).
    pub restarts: u64,
    /// Hops that passed through a `randNum`-compromised cluster.
    pub compromised_hops: u64,
}

/// The overlay as walks read it, built once per overlay shape: for the
/// registry slot of every live cluster, a row of its neighbours'
/// registry slots in the overlay's (ascending id) order, plus what
/// every walk on this shape shares — the CTRW duration and the
/// acceptance normaliser, and per degree the reciprocal a hop scales
/// its table hold by. A hop reads its row by the slot it stands on
/// and the next cluster's size and Byzantine count by the slot the row
/// gives (`Registry::security_at`), so no hop translates an id. Rows
/// hold no ids: a hop reads none, and the few readers
/// that need one (the adversary at a compromised cluster, the walk's
/// result) take it from the cluster slab, in the slot's own line.
///
/// [`NowSystem`] keeps one, rebuilt where the overlay or the cluster
/// slab changes shape (init, split, merge); `check_consistency`
/// re-derives it. Between
/// a split's `create_cluster` and its rebuild, the new cluster's slot
/// has no row; nothing reads one, because the cluster is not yet an
/// overlay vertex.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct WalkTable {
    /// Row `s` is `slots[offsets[s]..offsets[s + 1]]`; a free slab
    /// slot has an empty row.
    offsets: Vec<u32>,
    slots: Vec<u32>,
    /// The overlay's vertex count.
    vertices: usize,
    /// [`NowParams::ctrw_duration`] of the overlay.
    duration: f64,
    /// [`NowParams::max_cluster_size`], the size an endpoint is
    /// accepted against.
    max_cluster_size: usize,
    /// Entry `d` is `1/d`, for every degree up to the largest row's
    /// (entry 0 is never read).
    recips: Vec<f64>,
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
        let mut max_degree = 0;
        for slot in 0..rows as u32 {
            if let Some(c) = registry.cluster_id_in_slot(slot) {
                // INVARIANT: the overlay's vertices are the live
                // clusters whenever the table is rebuilt.
                let slot_of = |&nbr| registry.cluster_slot_of(nbr).expect("neighbour is live");
                let row = overlay.neighbors(c);
                max_degree = max_degree.max(row.len());
                self.slots.extend(row.iter().map(slot_of));
            }
            self.offsets.push(self.slots.len() as u32);
        }
        self.vertices = overlay.vertex_count();
        self.duration = params.ctrw_duration(self.vertices);
        self.max_cluster_size = params.max_cluster_size();
        self.recips.clear();
        self.recips.extend((0..=max_degree).map(|d| 1.0 / d as f64));
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

    /// `1/degree` for the degree of a row.
    #[inline]
    fn recip(&self, degree: usize) -> f64 {
        // INVARIANT: `rebuild` sizes `recips` past the longest row of
        // the table, and every degree a walk asks for is a row's.
        self.recips[degree]
    }
}

/// A walk's costs, kept in walk-local variables and settled into the
/// ledger once, when the walk ends: its hand-off messages, and its
/// `randNum` leaves as a count, a sum and a peak
/// ([`Ledger::leaves`]). Nothing reads either before the walk's span
/// closes.
#[derive(Default)]
struct WalkBooks {
    /// The tallied leaves: how many, their summed cost, and their
    /// component-wise largest cost.
    count: u64,
    sum: Cost,
    peak: Cost,
    /// The hand-off messages and rounds.
    hops: Cost,
}

impl WalkBooks {
    #[inline]
    fn leaf(&mut self, cost: Cost) {
        self.count += 1;
        self.sum += cost;
        self.peak.messages = self.peak.messages.max(cost.messages);
        self.peak.rounds = self.peak.rounds.max(cost.rounds);
    }

    fn settle(self, ledger: &mut Ledger) {
        ledger.leaves(CostKind::RandNum, self.count, self.sum, self.peak);
        ledger.add(self.hops);
    }
}

impl Kernel<'_> {
    /// `randCl` from cluster `start`: the selected cluster and the walk
    /// diagnostics. Costs are recorded under [`CostKind::RandCl`]
    /// (inclusive of the per-hop `randNum`s).
    ///
    /// Membership and overlay are immutable while a walk runs, so the
    /// walk borrows its table rows and reads cluster sizes in place; the
    /// size and security of the cluster it stands on carry over from the
    /// hop that reached it.
    pub(crate) fn rand_cl(&mut self, start: ClusterId) -> (ClusterId, WalkTrace) {
        self.ledger.begin(CostKind::RandCl);
        let mut books = WalkBooks::default();
        let start = self.slot_of(start);
        let (end, trace) = walk(
            &*self.registry,
            self.walks,
            self.params,
            self.rng,
            self.malice,
            start,
            &mut books,
        );
        books.settle(self.ledger);
        self.ledger.end();
        (end, trace)
    }
}

/// [`Kernel::draw`], with the leaf booked on the walk's `books`.
#[inline]
fn walk_draw(
    rng: &mut DetRng,
    malice: &mut dyn Malice,
    books: &mut WalkBooks,
    cluster: impl FnOnce() -> ClusterId,
    range: u64,
    purpose: RandNumPurpose,
    at: ClusterSecurity,
) -> u64 {
    books.leaf(at.rand_num_cost());
    draw_value(rng, malice, cluster, range, purpose, at)
}

/// The walk from registry slot `start`, on the kernel's borrows passed
/// one by one rather than through `&mut Kernel`: as distinct parameters
/// the stream, the adversary and the books are known to alias nothing
/// else, so a hop need not reload them from memory.
fn walk(
    registry: &Registry,
    walks: &WalkTable,
    params: NowParams,
    rng: &mut DetRng,
    malice: &mut dyn Malice,
    start: u32,
    books: &mut WalkBooks,
) -> (ClusterId, WalkTrace) {
    let mut trace = WalkTrace {
        hops: 0,
        restarts: 0,
        compromised_hops: 0,
    };
    // The walk carries the slot it stands on; the id behind it is read
    // only where it is told: to the adversary, and as the result.
    let id_of = |slot: u32| move || registry.cluster_in_slot(slot).id();
    let mut slot = start;
    let m = walks.vertices;
    if m <= 1 {
        return (id_of(slot)(), trace);
    }

    let mode = params.security();
    let mut here = registry.security_at(slot, mode);
    // The legal hops by id, as the adversary is shown them: filled only
    // at a compromised cluster.
    let mut nbr_ids = Vec::new();

    // Hard per-invocation hop cap: compromised clusters can rush
    // their holding times to ~0 (see `Malice`), so a Byzantine-dense
    // region could otherwise bounce a walk indefinitely without
    // consuming walk-time. Honest walks use ~log²m hops; the cap is
    // far above that and only binds under heavy compromise.
    let hop_cap = 2_000 + 200 * (m as u64);
    for _restart in 0..=params.max_walk_restarts() {
        // One CTRW, and its time left.
        let mut remaining = walks.duration;
        loop {
            if trace.hops >= hop_cap {
                return (id_of(slot)(), trace);
            }
            let slots = walks.row(slot);
            let degree = slots.len();
            if degree == 0 {
                break; // isolated vertex absorbs the walk
            }
            // Collaborative holding time: Exp(degree), derived from a
            // randNum draw (compromised clusters control it).
            let u = walk_draw(
                rng,
                malice,
                books,
                id_of(slot),
                RES,
                RandNumPurpose::WalkHoldingTime,
                here,
            );
            let hold = LN_TABLE.hold(u, walks.recip(degree));
            if hold >= remaining {
                break; // duration expires at this cluster
            }
            remaining -= hold;
            // Collaborative neighbor choice.
            let idx = walk_draw(
                rng,
                malice,
                books,
                id_of(slot),
                degree as u64,
                RandNumPurpose::WalkNeighborChoice,
                here,
            ) as usize;
            // INVARIANT: `degree = slots.len() > 0` (checked above);
            // `min` clamps the drawn index into bounds.
            let mut pick = idx.min(degree - 1);
            if !here.secure_plain {
                trace.compromised_hops += 1;
                pick = forced_pick(registry, slots, pick, malice, rng, &mut nbr_ids);
            }
            // Quorum-validated hand-off message C → C'.
            let there = registry.security_at(slots[pick], mode);
            books.hops += Cost {
                messages: here.size * there.size,
                rounds: 1,
            };
            trace.hops += 1;
            slot = slots[pick];
            here = there;
        }
        // Size-biased acceptance at the endpoint.
        let p_accept = acceptance(here.size as usize, walks.max_cluster_size);
        let draw = walk_draw(
            rng,
            malice,
            books,
            id_of(slot),
            RES,
            RandNumPurpose::WalkAcceptance,
            here,
        );
        if (draw as f64 + 0.5) / RES as f64 <= p_accept {
            return (id_of(slot)(), trace);
        }
        trace.restarts += 1;
    }
    // Restart cap exhausted (never in the invariant regime; see
    // NowParams::max_walk_restarts) — accept the current endpoint.
    (id_of(slot)(), trace)
}

/// The hop at a compromised cluster: the neighbour the adversary
/// forces, if it names one of the legal hops (shown to it by id, in
/// `nbr_ids`), else the drawn `pick`. Out of line, so that the honest
/// hop's loop stays small: inlined, it left the loop's speed to code
/// placement (a copy of `walk` that differed in one constant ran a
/// third slower).
#[cold]
#[inline(never)]
fn forced_pick(
    registry: &Registry,
    slots: &[u32],
    pick: usize,
    malice: &mut dyn Malice,
    rng: &mut DetRng,
    nbr_ids: &mut Vec<ClusterId>,
) -> usize {
    nbr_ids.clear();
    nbr_ids.extend(slots.iter().map(|&s| registry.cluster_in_slot(s).id()));
    malice
        .walk_hop(nbr_ids, rng)
        .and_then(|forced| nbr_ids.iter().position(|&nbr| nbr == forced))
        .unwrap_or(pick)
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
mod tests {
    use super::*;
    use crate::params::NowParams;
    use rand::Rng;
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

    #[test]
    fn walk_hop_count_tracks_log_squared() {
        let mut sys = system(400, 4);
        let start = sys.cluster_ids()[0];
        let m = sys.overlay().vertex_count();
        let log_m = ((m + 2) as f64).log2();
        let mut hops = 0u64;
        let mut restarts = 0u64;
        let trials = 30;
        for _ in 0..trials {
            let (_, t) = sys.rand_cl_from(start);
            hops += t.hops;
            restarts += t.restarts;
        }
        let mean_hops = hops as f64 / trials as f64;
        // Expected hops per accepted walk ≈ (1+restarts) · log²m; allow
        // a wide band.
        let per_walk = mean_hops / (1.0 + restarts as f64 / trials as f64);
        assert!(
            per_walk > 0.2 * log_m * log_m && per_walk < 5.0 * log_m * log_m,
            "hops/walk {per_walk} vs log²m {}",
            log_m * log_m
        );
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

    #[test]
    fn compromised_hops_are_flagged() {
        let mut sys = system(200, 6);
        // Corrupt one cluster past 1/3 by brute registry surgery:
        // detach honest members until the fraction crosses.
        let victim = sys.cluster_ids()[0];
        let mut moved = 0;
        while sys.cluster(victim).unwrap().rand_num_secure() {
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
    /// each of 200 walks leaves one `RandCl` span that holds everything
    /// booked, one round per hop on top of its draws' rounds, two draws
    /// per hop plus a holding-time and an acceptance draw per component
    /// CTRW, and a peak that is one cluster's `randNum` cost, not a sum —
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
            while polluted && sys.cluster(ids[0]).unwrap().rand_num_secure() {
                shift(&mut sys, ids[0], ids[1]);
            }
            let secure = sys.clusters().filter(|c| c.rand_num_secure()).count();
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
                let ctrws = trace.restarts + 1;
                assert_eq!(draws.count, 2 * trace.hops + 2 * ctrws, "walk {i}");
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

    /// The table's error bound before the scaling by `1/degree`: the
    /// chord error `h²/8` of [`LnTable`] (2⁻²³ ≈ 1.19·10⁻⁷), plus
    /// `1e-13` for the roundings of the table's few `f64` operations,
    /// of libm's `ln` (within an ulp) and of `unit`, all on values ≤ 17
    /// (≤ 10⁻¹⁴ together), with room for the roundings of the scaling.
    const LN_ERR: f64 = 1.0 / (8u64 << (2 * LN_BITS)) as f64 + 1e-13;

    /// The hold libm's `ln` gives: `−unit.ln()` over the degree, with
    /// `unit` the draw's fixed-point fraction.
    fn libm_hold(u: u64, degree: usize) -> f64 {
        let unit = (u as f64 + 1.0) / (RES as f64 + 1.0);
        -unit.ln() / degree as f64
    }

    /// The table is within [`LN_ERR`] of libm's `−unit.ln()` for every
    /// draw the walk's honest `randNum` can give, `0..RES`, and the
    /// bound is tight: the worst draw uses most of it.
    #[test]
    fn ln_table_is_within_its_bound() {
        let worst = (0..RES)
            .map(|u| (LN_TABLE.neg_ln_unit(u) - libm_hold(u, 1)).abs())
            .fold(0.0, f64::max);
        assert!(worst <= LN_ERR, "table error {worst:e} > bound {LN_ERR:e}");
        assert!(worst > 0.99 * LN_ERR, "bound {LN_ERR:e} loose: {worst:e}");
    }

    /// The compile-time table is the one libm's `ln` and `ln_1p` would
    /// build, to an ulp per entry.
    #[test]
    fn ln_table_is_a_libm_build_to_an_ulp() {
        let h = 1.0 / (1u64 << LN_BITS) as f64;
        let ln_res = (RES as f64 + 1.0).ln();
        for (i, &(top, slope)) in LN_TABLE.bins.iter().enumerate() {
            let m0 = 1.0 + i as f64 * h;
            let libm = (
                ln_res - m0.ln(),
                (h / m0).ln_1p() / (1u64 << BIN_LOW) as f64,
            );
            for (ours, theirs) in [(top, libm.0), (slope, libm.1)] {
                let ulps = (ours.to_bits() as i64 - theirs.to_bits() as i64).abs();
                assert!(ulps <= 1, "bin {i}: {ours:e} vs {theirs:e}");
            }
        }
    }

    /// A compromised cluster's out-of-range hold draw gets the hold of
    /// `RES − 1`, the shortest there is, and a positive one.
    #[test]
    fn out_of_range_hold_draws_get_the_shortest_hold() {
        for recip in [1.0, 1.0 / 3.0, 1.0 / 17.0] {
            let shortest = LN_TABLE.hold(RES - 1, recip);
            assert!(shortest > 0.0 && shortest < LN_TABLE.hold(RES - 2, recip));
            for u in [RES, RES + 1, 2 * RES, u64::MAX] {
                assert_eq!(LN_TABLE.hold(u, recip), shortest, "draw {u}");
            }
        }
    }

    /// How one CTRW ends under the two laws, on one stream.
    enum Coupled {
        /// Both end at the same hop, in this slot.
        Agree(u32),
        /// One ends where the other goes on.
        Differ,
    }

    /// One honest CTRW from `slot` on `walks`, each hop decided twice
    /// from the same draws: by the walk's table holds and by libm's
    /// holds, each with its own count of the time left. The two use
    /// the same stream until their decisions first differ. `ambiguous`
    /// is set if some hop's table hold came within the accumulated
    /// error bound (per hop [`LN_ERR`]`/degree`, plus a rounding
    /// allowance of 2⁻⁴⁸ of the duration) of the time left: only such
    /// a hop can be decided differently.
    fn coupled_ctrw(
        walks: &WalkTable,
        mut slot: u32,
        rng: &mut DetRng,
        ambiguous: &mut bool,
    ) -> Coupled {
        let (mut left, mut exact, mut slack) = (walks.duration, walks.duration, 0.0);
        let tol = (walks.duration + 1.0) / (1u64 << 48) as f64;
        loop {
            let row = walks.row(slot);
            let degree = row.len();
            let u = rng.gen_range(0..RES);
            let recip = walks.recip(degree);
            let (table, libm) = (LN_TABLE.hold(u, recip), libm_hold(u, degree));
            slack += LN_ERR * recip + tol;
            *ambiguous |= (table - left).abs() <= slack;
            match (table >= left, libm >= exact) {
                (true, true) => return Coupled::Agree(slot),
                (false, false) => {}
                _ => return Coupled::Differ,
            }
            left -= table;
            exact -= libm;
            slot = row[rng.gen_range(0..degree)];
        }
    }

    /// The table walk and libm's walk, coupled on one stream, decide
    /// alike on all but a vanishing share of CTRWs: on `steady_*`'s
    /// shape (N = 2¹², 3 072 nodes, 128 clusters, degree ≈ 16) and on
    /// a small irregular overlay (N = 2¹⁰, 20 clusters, Erdős–Rényi
    /// degrees), 10⁵ CTRWs each, chained end to start. Every CTRW
    /// that differs is an ambiguous one, and fewer than 10⁻⁴ of them
    /// are ambiguous. Two CTRWs that decide alike from the same
    /// stream are the same CTRW, so the share that differs bounds
    /// the total-variation distance between the two walks' CTRW laws,
    /// and with it what moving a walk from libm's holds to the table's
    /// moves in distribution.
    #[test]
    fn table_walk_couples_with_the_libm_walk() {
        let shapes = [
            (NowParams::new(1 << 12, 2, 1.5, 0.30, 0.05).unwrap(), 3_072),
            (NowParams::for_capacity(1 << 10).unwrap(), 400),
        ];
        for (seed, (params, n0)) in (1..).zip(shapes) {
            let sys = NowSystem::init_fast(params, n0, 0.05, seed);
            let degrees: Vec<usize> = sys
                .overlay
                .vertices()
                .map(|c| sys.overlay.degree(c))
                .collect();
            assert!(
                degrees.iter().min() < degrees.iter().max(),
                "irregular overlay"
            );
            let mut rng = DetRng::new(seed);
            let mut slot = sys.registry.cluster_slot_of(sys.cluster_ids()[0]).unwrap();
            let ctrws = 100_000;
            let (mut differ, mut ambiguous) = (0, 0);
            for _ in 0..ctrws {
                let mut close = false;
                match coupled_ctrw(&sys.walks, slot, &mut rng, &mut close) {
                    Coupled::Agree(end) => slot = end,
                    Coupled::Differ => {
                        assert!(close, "a CTRW differs outside the error band");
                        differ += 1;
                    }
                }
                ambiguous += close as u32;
            }
            assert!(
                ambiguous * 10_000 < ctrws,
                "{ambiguous} of {ctrws} CTRWs ambiguous"
            );
            println!("shape {seed}: {differ} differ, {ambiguous} ambiguous of {ctrws} CTRWs");
        }
    }
}
