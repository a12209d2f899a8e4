//! Scoping traps: library code before and after a nested test module
//! stays bound by P001; the test internals are exempt.

pub fn before_the_test_mod(v: &[u32]) -> u32 {
    v[0]
}

pub mod inner {
    #[cfg(test)]
    mod tests {
        #[test]
        fn uses_both() {
            let v = vec![1u32];
            let _ = v.first().unwrap();
            let _ = v[0];
        }
    }

    pub fn after_the_test_mod(v: &[u32]) -> u32 {
        *v.first().unwrap()
    }
}
