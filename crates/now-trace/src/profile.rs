//! The phase profiler: the workspace's **single sanctioned wall-clock
//! measurement site**.
//!
//! Lint rule D002 bans `Instant::now` / `SystemTime` from every
//! deterministic path and exempts exactly this file. All
//! engine-internal timing — `BatchReport::wall_nanos` and the
//! plan/apply/maintenance span totals in `now_core::wave_exec` — is
//! funneled through [`stopwatch`], so the wall clock has one auditable
//! entry point instead of a scatter of raw `Instant::now` calls.
//!
//! Readings from here are **advisory only**: they feed fields and
//! counters that are excluded from every byte-diffed artifact (traces,
//! metrics, campaign reports), and they must never influence
//! deterministic state. CI's `trace-smoke` grep gate enforces the
//! artifact side of that contract.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A started wall-clock measurement (see [`stopwatch`]).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

/// Starts a wall-clock measurement — the only approved way to read the
/// wall clock in this workspace.
pub fn stopwatch() -> Stopwatch {
    Stopwatch {
        start: Instant::now(),
    }
}

impl Stopwatch {
    /// Nanoseconds elapsed since [`stopwatch`] was called.
    pub fn elapsed_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Adds the elapsed time to a process-global span total.
    pub fn record_into(&self, total: &SpanTotal) {
        total.add(self.elapsed_nanos());
    }
}

/// A process-global accumulator for one profiled span (plan, apply,
/// maintenance, …). Relaxed ordering suffices: the totals are advisory
/// profiling counters, read only by benches and experiment binaries.
#[derive(Debug)]
pub struct SpanTotal(AtomicU64);

impl SpanTotal {
    /// A zeroed total, usable in `static` position.
    pub const fn new() -> Self {
        SpanTotal(AtomicU64::new(0))
    }

    /// Adds `nanos` to the total.
    pub fn add(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    /// The accumulated total.
    pub fn total(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Default for SpanTotal {
    fn default() -> Self {
        SpanTotal::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = stopwatch();
        let a = sw.elapsed_nanos();
        let b = sw.elapsed_nanos();
        assert!(b >= a, "elapsed time is monotone");
    }

    #[test]
    fn span_totals_accumulate() {
        static SPAN: SpanTotal = SpanTotal::new();
        SPAN.add(5);
        SPAN.add(7);
        assert!(SPAN.total() >= 12);
        let sw = stopwatch();
        sw.record_into(&SPAN);
        assert!(SPAN.total() >= 12);
    }
}
