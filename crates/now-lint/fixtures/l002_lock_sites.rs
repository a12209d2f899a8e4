//! L002 fixture: unsanctioned and nested Mutex acquisitions.

use std::sync::Mutex;

pub fn rogue(m: &Mutex<u32>) -> u32 {
    // INVARIANT: fixture justification (P001 stays quiet; L002 fires).
    *m.lock().unwrap()
}

// Same fn name as the sanctioned plan-slot fill in `wave_exec.rs`,
// wrong file: the site check is (path, scope), so the first guard
// still flags.
//
// The second guard in one fn flags wherever the fn lives.
pub fn claim_and_plan(a: &Mutex<u32>, b: &Mutex<u32>) {
    let _x = a.lock();
    let _y = b.lock();
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    pub fn test_scoped_lock_is_exempt(m: &Mutex<u32>) {
        let _ = m.lock();
    }
}
