//! D003 positive: thread spawning, which `crates/clippy.toml` bans.
//! Every step runs on the driving thread, so no outcome can depend on a
//! thread schedule.

pub fn rogue() -> i32 {
    let h = std::thread::spawn(|| 1 + 1);
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
    h.join().unwrap_or(0)
}
