//! `#[cfg(not(test))]` compiles into production binaries — mentioning
//! `test` under a `not(…)` must NOT exempt the item.

#[cfg(not(test))]
pub fn prod_only(v: &[u32]) -> u32 {
    v[0]
}

#[cfg(not(test))]
pub fn also_prod(v: &[u32]) -> u32 {
    *v.last().unwrap()
}
