//! D002 positive: wall-clock reads, which `crates/clippy.toml` bans.
//! Time derives from the step counter; advisory measurement goes
//! through `now_trace::stopwatch`, the one sanctioned read.

use std::time::Instant;

pub fn measure() -> u64 {
    let start = Instant::now();
    let t = std::time::SystemTime::now();
    let _ = t;
    start.elapsed().as_nanos() as u64
}
