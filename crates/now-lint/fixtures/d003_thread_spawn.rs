//! D003 positive: thread spawning outside the WavePool machinery. All
//! workers must come from the pool so spawn accounting and the
//! cross-thread determinism gates keep holding.

pub fn rogue() -> i32 {
    let h = std::thread::spawn(|| 1 + 1);
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
    h.join().unwrap_or(0)
}
