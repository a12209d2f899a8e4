//! D001 positive: hash collections, which `crates/clippy.toml` bans as
//! disallowed types. HashMap and HashSet iterate in per-process
//! RandomState order, so one traversal in a report breaks byte-identity.

use std::collections::HashMap;
use std::collections::HashSet;

pub struct Index {
    by_name: HashMap<String, u32>,
}

pub fn dedup(xs: &[u32]) -> usize {
    let seen: HashSet<u32> = xs.iter().copied().collect();
    seen.len()
}
