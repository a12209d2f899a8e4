//! libm ban positive: each call below is a platform libm routine, which
//! `crates/clippy.toml` bans (`clippy::disallowed_methods`). The test
//! module's call is the negative case: a crate root that allows the
//! lint under `cfg(test)` lets tests use libm as a reference.

pub fn libm_calls(x: f64) -> [f64; 5] {
    [x.ln(), x.ln_1p(), x.log2(), x.exp(), x.powf(1.5)]
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference() {
        assert!(super::libm_calls(2.0)[0] == 2f64.ln());
    }
}
