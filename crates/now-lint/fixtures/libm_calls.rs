//! libm ban positive: each call below is a platform libm routine, which
//! `crates/clippy.toml` bans (`clippy::disallowed_methods`). A test may
//! still call libm as a reference, under an item-level `#[expect]` (see
//! the probe in `src/lib.rs`).

pub fn libm_calls(x: f64) -> [f64; 5] {
    [x.ln(), x.ln_1p(), x.log2(), x.exp(), x.powf(1.5)]
}
