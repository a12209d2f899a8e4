//! D003 positive: thread spawning in non-test code. Every step runs on
//! the driving thread, so no outcome can depend on a thread schedule,
//! and no file is exempt.

pub fn rogue() -> i32 {
    let h = std::thread::spawn(|| 1 + 1);
    std::thread::scope(|s| {
        s.spawn(|| ());
    });
    h.join().unwrap_or(0)
}
