//! D002 positive: wall-clock reads in deterministic code. Time must
//! derive from the step counter; wall measurement belongs in x_* bins
//! (`bench/` is one), or an allowlisted wall_nanos site.

use std::time::Instant;

pub fn measure() -> u64 {
    let start = Instant::now();
    let t = std::time::SystemTime::now();
    let _ = t;
    start.elapsed().as_nanos() as u64
}
