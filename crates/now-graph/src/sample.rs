//! Shuffles and distinct draws.
//!
//! Clusterization orders nodes by a random permutation ([`shuffle`]),
//! and the system picks Byzantine nodes, leavers and exchange partners
//! as distinct indices ([`sample_distinct`]). `randCl`'s size-biased
//! cluster choice is not drawn here: the walk in now-core makes it
//! online, and [`crate::nbrw_law`] gives its exact law.

use rand::Rng;

/// In-place Fisher–Yates shuffle (deterministic given the RNG stream —
/// used by clusterization's random node ordering).
pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Draws `k` distinct indices from `0..n` (partial Fisher–Yates).
/// Returns fewer than `k` if `k > n`.
pub fn sample_distinct<R: Rng>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let k = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::DetRng;
    use proptest::prelude::*;

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle should move things");
    }

    #[test]
    fn sample_distinct_properties() {
        let mut rng = DetRng::new(7);
        let s = sample_distinct(10, 4, &mut rng);
        assert_eq!(s.len(), 4);
        let set: std::collections::BTreeSet<_> = s.iter().collect();
        assert_eq!(set.len(), 4);
        assert!(s.iter().all(|&x| x < 10));
        // k > n clamps.
        assert_eq!(sample_distinct(3, 10, &mut rng).len(), 3);
        assert!(sample_distinct(0, 5, &mut rng).is_empty());
    }

    proptest! {
        #[test]
        fn distinct_samples_are_distinct(n in 0usize..40, k in 0usize..50, seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let s = sample_distinct(n, k, &mut rng);
            let set: std::collections::BTreeSet<_> = s.iter().collect();
            prop_assert_eq!(set.len(), s.len());
            prop_assert_eq!(s.len(), k.min(n));
        }
    }
}
