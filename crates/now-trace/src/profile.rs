//! The phase profiler: the workspace's **single sanctioned wall-clock
//! measurement site**.
//!
//! Lint rule D002 bans `Instant::now` / `SystemTime` from every
//! deterministic path and exempts exactly this file. All
//! engine-internal timing — `BatchReport::wall_nanos` — is funneled
//! through [`stopwatch`], so the wall clock has one auditable entry
//! point instead of a scatter of raw `Instant::now` calls.
//!
//! Readings from here are **advisory only**: they feed fields that are
//! excluded from every byte-diffed artifact (traces,
//! metrics, campaign reports), and they must never influence
//! deterministic state. CI's `trace-smoke` grep gate enforces the
//! artifact side of that contract.

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
}
