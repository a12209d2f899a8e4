//! Exact message/round accounting.
//!
//! The paper's complexity claims are about *numbers of messages* (of
//! identical size) and *communication rounds*. The [`Ledger`] records both
//! with nested operation spans: when `exchange` calls `randCl`, which in
//! turn runs `randNum`s along its walks, each message counts towards every
//! open span, so `exchange`'s recorded cost includes its sub-protocols —
//! exactly how the paper states "exchange costs O(log⁶N)" (inclusive of
//! the `randCl` invocations inside it).
//!
//! Inclusive accounting is *settled at `end()`*: every add goes to the
//! global total only (O(1), whatever the nesting depth), a span
//! remembers the total it began at, and its inclusive cost is how far
//! the total has advanced when it ends. Every span therefore reports
//! the same cost as if each add had been written to every open span;
//! an open span's running cost is not observable before it ends.
//!
//! The ledger keeps aggregates only: per kind, how many spans closed,
//! their summed and their largest cost ([`CostStats`]). A closed span
//! leaves nothing else behind, so these counts are also the system's
//! per-kind operation counts.

use std::fmt;

/// Category of protocol activity a cost is attributed to.
///
/// One variant per primitive/operation named in the paper, plus
/// application-level categories for the §6 claims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostKind {
    /// Intra-cluster distributed random number generation (`randNum`).
    RandNum,
    /// Biased continuous-time random walk cluster selection (`randCl`).
    RandCl,
    /// The node-shuffling primitive (`exchange`).
    Exchange,
    /// NOW `join` operation (Algorithm 1).
    Join,
    /// NOW `leave` operation (Algorithm 2).
    Leave,
    /// NOW `split` operation.
    Split,
    /// NOW `merge` operation.
    Merge,
    /// A batch of join/leave operations executed within one time step
    /// (the paper's footnote: "the analysis can be generalized to
    /// several parallel join and leave operations"). The span's rounds
    /// are the *serial* sum; the parallel (max-over-ops) round count is
    /// reported by the batch API itself.
    Batch,
    /// Initialization: network discovery flooding.
    Discovery,
    /// Initialization: agreement + random partition into clusters.
    Clusterization,
    /// OVER overlay maintenance (`Add`/`Remove`, edge regulation).
    Overlay,
    /// Byzantine agreement / broadcast substrate runs.
    Agreement,
    /// Application: overlay broadcast (§6).
    Broadcast,
    /// Application: uniform sampling (§6).
    Sampling,
    /// Application: aggregation (§6).
    Aggregation,
    /// Anything else (tests, ad-hoc harness activity).
    Other,
}

impl CostKind {
    /// All variants, in declaration order (`ALL[k as usize] == k`), for
    /// iteration in reports.
    pub const ALL: [CostKind; 16] = [
        CostKind::RandNum,
        CostKind::RandCl,
        CostKind::Exchange,
        CostKind::Join,
        CostKind::Leave,
        CostKind::Split,
        CostKind::Merge,
        CostKind::Batch,
        CostKind::Discovery,
        CostKind::Clusterization,
        CostKind::Overlay,
        CostKind::Agreement,
        CostKind::Broadcast,
        CostKind::Sampling,
        CostKind::Aggregation,
        CostKind::Other,
    ];

    /// Stable short name used in CSV headers.
    pub fn name(self) -> &'static str {
        match self {
            CostKind::RandNum => "rand_num",
            CostKind::RandCl => "rand_cl",
            CostKind::Exchange => "exchange",
            CostKind::Join => "join",
            CostKind::Leave => "leave",
            CostKind::Split => "split",
            CostKind::Merge => "merge",
            CostKind::Batch => "batch",
            CostKind::Discovery => "discovery",
            CostKind::Clusterization => "clusterization",
            CostKind::Overlay => "overlay",
            CostKind::Agreement => "agreement",
            CostKind::Broadcast => "broadcast",
            CostKind::Sampling => "sampling",
            CostKind::Aggregation => "aggregation",
            CostKind::Other => "other",
        }
    }
}

impl fmt::Display for CostKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A message/round cost pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cost {
    /// Number of (identical-size) messages exchanged.
    pub messages: u64,
    /// Number of sequential communication rounds.
    pub rounds: u64,
}

impl Cost {
    /// Zero cost.
    pub const ZERO: Cost = Cost {
        messages: 0,
        rounds: 0,
    };

    /// Component-wise sum.
    pub(crate) fn plus(self, other: Cost) -> Cost {
        Cost {
            messages: self.messages + other.messages,
            rounds: self.rounds + other.rounds,
        }
    }
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, rhs: Cost) -> Cost {
        self.plus(rhs)
    }
}

impl std::ops::AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = self.plus(rhs);
    }
}

/// Aggregate statistics for one [`CostKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostStats {
    /// Number of completed spans of this kind.
    pub count: u64,
    /// Sum of inclusive message costs.
    pub total_messages: u64,
    /// Sum of inclusive round costs.
    pub total_rounds: u64,
    /// Maximum inclusive message cost of a single span. Spans closed
    /// together over one shared cost ([`Ledger::end_as`]) count that
    /// whole cost here: for a group of walks or a cascade, a group's
    /// cost, not one call's.
    pub max_messages: u64,
    /// Maximum inclusive round cost of a single span, or of a shared
    /// cost, as for `max_messages`.
    pub max_rounds: u64,
}

impl CostStats {
    /// Mean messages per span (0 if none recorded).
    pub fn mean_messages(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_messages as f64 / self.count as f64
        }
    }

    fn absorb(&mut self, cost: Cost) {
        self.count += 1;
        self.total_messages += cost.messages;
        self.total_rounds += cost.rounds;
        self.max_messages = self.max_messages.max(cost.messages);
        self.max_rounds = self.max_rounds.max(cost.rounds);
    }

    fn merge(&mut self, other: &CostStats) {
        self.count += other.count;
        self.total_messages += other.total_messages;
        self.total_rounds += other.total_rounds;
        self.max_messages = self.max_messages.max(other.max_messages);
        self.max_rounds = self.max_rounds.max(other.max_rounds);
    }
}

#[derive(Debug, Clone)]
struct Span {
    kind: CostKind,
    /// The ledger's global total when the span began.
    began_at: Cost,
}

/// Nested-span message/round accountant.
///
/// Costs added while a span is open count towards *every* open span
/// (inclusive accounting) and towards the global totals once: a span's
/// cost is the advance of the global total between its `begin` and its
/// `end` (see the module docs).
///
/// # Example
/// ```
/// use now_net::{Ledger, CostKind};
/// let mut l = Ledger::new();
/// l.begin(CostKind::Exchange);
/// l.begin(CostKind::RandCl);
/// l.add_messages(10);
/// l.add_rounds(2);
/// let inner = l.end();          // randCl cost
/// l.add_messages(5);
/// let outer = l.end();          // exchange cost includes randCl
/// assert_eq!(inner.messages, 10);
/// assert_eq!(outer.messages, 15);
/// assert_eq!(l.total().messages, 15);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    stack: Vec<Span>,
    total: Cost,
    /// Per-kind aggregates, indexed by `CostKind as usize`.
    stats: [CostStats; CostKind::ALL.len()],
}

impl Ledger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Ledger::default()
    }

    /// Opens a new span of the given kind (may nest).
    #[inline]
    pub fn begin(&mut self, kind: CostKind) {
        self.stack.push(Span {
            kind,
            began_at: self.total,
        });
    }

    /// Closes the innermost span, folds its inclusive cost — everything
    /// added since its `begin`, sub-spans included — into its kind's
    /// stats, and returns that cost.
    ///
    /// # Panics
    /// Panics if no span is open (an unbalanced `begin`/`end` is a
    /// programming error in protocol code).
    #[inline]
    pub fn end(&mut self) -> Cost {
        let (kind, cost) = self.pop();
        // INVARIANT: `CostKind` has exactly `ALL.len()` fieldless
        // variants, so its discriminant indexes `stats` in bounds.
        self.stats[kind as usize].absorb(cost);
        cost
    }

    /// Closes the innermost span as `n` spans of its kind that ran side
    /// by side and shared its one inclusive cost, and returns that cost.
    /// The kind's count grows by `n`, its totals by the cost once, and
    /// its peaks by the whole cost, since no span's own share is told
    /// apart. With `n = 1` this is [`Ledger::end`]. A group of walks
    /// closes its `randCl` span so, one span per call, and a leave's
    /// cascade its `exchange` span, one per receiver.
    ///
    /// # Panics
    /// Panics if no span is open.
    pub fn end_as(&mut self, n: u64) -> Cost {
        let (kind, cost) = self.pop();
        self.close(kind, n, cost, cost);
        cost
    }

    /// Pops the innermost span: its kind and inclusive cost.
    #[inline]
    fn pop(&mut self) -> (CostKind, Cost) {
        let span = self
            .stack
            .pop()
            // INVARIANT: documented contract — `end` pairs with a
            // preceding `begin`; an unbalanced call is a caller bug.
            .expect("Ledger::end called with no open span");
        let cost = Cost {
            messages: self.total.messages - span.began_at.messages,
            rounds: self.total.rounds - span.began_at.rounds,
        };
        (span.kind, cost)
    }

    /// Folds `n` spans of `kind`, with summed inclusive cost `sum` and
    /// component-wise largest cost `peak`, into its kind's stats.
    fn close(&mut self, kind: CostKind, n: u64, sum: Cost, peak: Cost) {
        // INVARIANT: as in `end`.
        self.stats[kind as usize].merge(&CostStats {
            count: n,
            total_messages: sum.messages,
            total_rounds: sum.rounds,
            max_messages: peak.messages,
            max_rounds: peak.rounds,
        });
    }

    /// A whole leaf span in one call: exactly `begin(kind)`, `add(cost)`,
    /// `end()`, without the stack push and pop. A lone `randNum` draw
    /// (an exchange partner's member pick) is booked with it.
    #[inline]
    pub fn leaf(&mut self, kind: CostKind, cost: Cost) {
        self.total += cost;
        // INVARIANT: as in `end`.
        self.stats[kind as usize].absorb(cost);
    }

    /// `count` leaf spans of `kind` that run side by side, in one call,
    /// given their summed cost `sum` and their component-wise largest
    /// cost `peak`. The kind's stats grow exactly as by `count`
    /// [`Ledger::leaf`] calls (with `count = 0`, `sum` and `peak` zero,
    /// not at all). The total gains `sum`'s messages but none of its
    /// rounds: leaves that run side by side overlap in time, so the
    /// caller adds the rounds they took together. A group of walks
    /// tallies its shared `randNum` draws locally and settles them here
    /// once.
    pub fn concurrent_leaves(&mut self, kind: CostKind, count: u64, sum: Cost, peak: Cost) {
        self.total.messages += sum.messages;
        self.close(kind, count, sum, peak);
    }

    /// Adds `n` messages to the global total, and thereby to every
    /// open span.
    #[inline]
    pub fn add_messages(&mut self, n: u64) {
        self.total.messages += n;
    }

    /// Adds `n` sequential rounds to the global total, and thereby to
    /// every open span.
    #[inline]
    pub fn add_rounds(&mut self, n: u64) {
        self.total.rounds += n;
    }

    /// Convenience: `add_messages` + `add_rounds` in one call.
    #[inline]
    pub fn add(&mut self, cost: Cost) {
        self.total += cost;
    }

    /// Global total across all activity.
    pub fn total(&self) -> Cost {
        self.total
    }

    /// Aggregate statistics for one kind (zero stats if never seen).
    pub fn stats(&self, kind: CostKind) -> CostStats {
        // INVARIANT: `CostKind` has exactly `ALL.len()` fieldless
        // variants, so its discriminant indexes `stats` in bounds.
        self.stats[kind as usize]
    }

    /// Number of currently open spans.
    pub fn open_spans(&self) -> usize {
        self.stack.len()
    }

    /// True if no span is currently open (useful as a sanity assertion
    /// between time steps).
    pub fn is_balanced(&self) -> bool {
        self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_accumulate_inclusively() {
        let mut l = Ledger::new();
        l.begin(CostKind::Join);
        l.add_messages(1);
        l.begin(CostKind::RandCl);
        l.add_messages(2);
        l.add_rounds(1);
        let inner = l.end();
        l.add_messages(4);
        let outer = l.end();
        assert_eq!(
            inner,
            Cost {
                messages: 2,
                rounds: 1
            }
        );
        assert_eq!(
            outer,
            Cost {
                messages: 7,
                rounds: 1
            }
        );
        assert_eq!(
            l.total(),
            Cost {
                messages: 7,
                rounds: 1
            }
        );
    }

    /// Inner costs reach every enclosing span, however deep the nesting
    /// and wherever the adds land.
    #[test]
    fn deep_nesting_folds_into_every_ancestor() {
        let mut l = Ledger::new();
        let kinds = [
            CostKind::Batch,
            CostKind::Leave,
            CostKind::Exchange,
            CostKind::RandCl,
        ];
        for (depth, &kind) in kinds.iter().enumerate() {
            l.begin(kind);
            l.add_messages(1 << depth);
        }
        l.leaf(
            CostKind::RandNum,
            Cost {
                messages: 100,
                rounds: 2,
            },
        );
        for depth in (0..kinds.len()).rev() {
            let cost = l.end();
            // Own add plus everything opened after it, plus the leaf.
            let own_and_inner: u64 = (depth..kinds.len()).map(|d| 1u64 << d).sum();
            assert_eq!(cost.messages, own_and_inner + 100, "depth {depth}");
            assert_eq!(cost.rounds, 2);
        }
        assert_eq!(l.total().messages, 15 + 100);
        assert_eq!(l.stats(CostKind::RandNum).count, 1);
        assert_eq!(l.stats(CostKind::RandNum).max_messages, 100);
    }

    #[test]
    fn leaf_equals_begin_add_end() {
        let cost = Cost {
            messages: 7,
            rounds: 2,
        };
        let mut spelled = Ledger::new();
        let mut leafed = Ledger::new();
        for l in [&mut spelled, &mut leafed] {
            l.begin(CostKind::RandCl);
            l.add_messages(3);
        }
        spelled.begin(CostKind::RandNum);
        spelled.add(cost);
        spelled.end();
        leafed.leaf(CostKind::RandNum, cost);
        assert_eq!(spelled.end(), leafed.end());
        assert_eq!(spelled.total(), leafed.total());
        for kind in CostKind::ALL {
            assert_eq!(spelled.stats(kind), leafed.stats(kind), "{kind}");
        }
    }

    /// A tally settled with `concurrent_leaves` grows the stats exactly
    /// as its leaves booked one by one, on a ledger with prior activity
    /// of the same kind (so maxima on both sides of the tally's peak are
    /// exercised) and with `n = 0`; the total gains the leaves' messages
    /// and none of their rounds.
    #[test]
    fn concurrent_leaves_equal_n_leaf_calls_but_their_rounds() {
        let cost = |messages, rounds| Cost { messages, rounds };
        let tallies: [&[Cost]; 4] = [
            &[],
            &[cost(12, 2)],
            &[cost(40, 2), cost(0, 2), cost(112, 2), cost(12, 2)],
            &[cost(3, 9), cost(300, 1)],
        ];
        for costs in tallies {
            for kind in [CostKind::RandNum, CostKind::Other] {
                let mut one_by_one = Ledger::new();
                one_by_one.begin(CostKind::RandCl);
                one_by_one.leaf(CostKind::RandNum, cost(60, 2));
                let mut tallied = one_by_one.clone();
                for &c in costs {
                    one_by_one.leaf(kind, c);
                }
                let sum = costs.iter().fold(Cost::ZERO, |a, &c| a + c);
                let peak = costs.iter().fold(Cost::ZERO, |a, c| Cost {
                    messages: a.messages.max(c.messages),
                    rounds: a.rounds.max(c.rounds),
                });
                tallied.concurrent_leaves(kind, costs.len() as u64, sum, peak);
                tallied.add_rounds(sum.rounds);
                assert_eq!(one_by_one.end(), tallied.end(), "{costs:?}");
                assert_eq!(one_by_one.total(), tallied.total(), "{costs:?}");
                for k in CostKind::ALL {
                    assert_eq!(one_by_one.stats(k), tallied.stats(k), "{k}: {costs:?}");
                }
            }
        }
        let mut l = Ledger::new();
        l.concurrent_leaves(CostKind::RandNum, 2, cost(10, 4), cost(6, 2));
        assert_eq!(l.total(), cost(10, 0));
    }

    /// `end_as(n)` books `n` spans over one shared cost: the count grows
    /// by `n`, the totals and the peaks by the cost once, an enclosing
    /// span sees the cost once, and `end_as(1)` is `end`.
    #[test]
    fn end_as_books_n_spans_over_one_cost() {
        let mut l = Ledger::new();
        l.begin(CostKind::Exchange);
        l.begin(CostKind::RandCl);
        l.add(Cost {
            messages: 30,
            rounds: 7,
        });
        let shared = l.end_as(5);
        let outer = l.end();
        assert_eq!(shared, outer);
        let rc = l.stats(CostKind::RandCl);
        assert_eq!((rc.count, rc.total_messages, rc.total_rounds), (5, 30, 7));
        assert_eq!((rc.max_messages, rc.max_rounds), (30, 7));
        let mut single = Ledger::new();
        let mut spelled = Ledger::new();
        for l in [&mut single, &mut spelled] {
            l.begin(CostKind::Leave);
            l.add_messages(9);
        }
        assert_eq!(single.end_as(1), spelled.end());
        assert_eq!(
            single.stats(CostKind::Leave),
            spelled.stats(CostKind::Leave)
        );
    }

    /// `stats` is indexed by discriminant, so `ALL` must list the
    /// variants in declaration order.
    #[test]
    fn all_is_in_discriminant_order() {
        for (i, kind) in CostKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn stats_track_count_mean_max() {
        let mut l = Ledger::new();
        for msgs in [10u64, 20, 30] {
            l.begin(CostKind::Exchange);
            l.add_messages(msgs);
            l.add_rounds(2);
            l.end();
        }
        let s = l.stats(CostKind::Exchange);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_messages, 60);
        assert_eq!(s.max_messages, 30);
        assert!((s.mean_messages() - 20.0).abs() < 1e-12);
        assert_eq!(s.total_rounds, 6);
        assert_eq!(s.max_rounds, 2);
    }

    #[test]
    fn unseen_kind_has_zero_stats() {
        let l = Ledger::new();
        let s = l.stats(CostKind::Merge);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean_messages(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no open span")]
    fn unbalanced_end_panics() {
        let mut l = Ledger::new();
        let _ = l.end();
    }

    #[test]
    fn balance_check() {
        let mut l = Ledger::new();
        assert!(l.is_balanced());
        l.begin(CostKind::Other);
        assert!(!l.is_balanced());
        assert_eq!(l.open_spans(), 1);
        l.end();
        assert!(l.is_balanced());
    }

    #[test]
    fn cost_arithmetic() {
        let a = Cost {
            messages: 1,
            rounds: 2,
        };
        let b = Cost {
            messages: 3,
            rounds: 4,
        };
        assert_eq!(
            a + b,
            Cost {
                messages: 4,
                rounds: 6
            }
        );
        let mut c = a;
        c += b;
        assert_eq!(c, a + b);
        assert_eq!(Cost::ZERO + a, a);
    }

    #[test]
    fn kind_names_are_stable_and_unique() {
        use std::collections::BTreeSet;
        let names: BTreeSet<&str> = CostKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), CostKind::ALL.len());
    }
}
