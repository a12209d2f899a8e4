//! Deterministic, fork-able randomness.
//!
//! Every simulated run must be a pure function of `(config, seed)`: the
//! experiment binaries (README § Experiment index) cite seeds, and the
//! integration tests replay runs and assert bit-identical audit trails.
//! `rand::StdRng` does not promise cross-version stability, so we pin
//! ChaCha12 explicitly.
//!
//! [`DetRng::fork`] derives an independent labeled substream. Protocol
//! components each own a fork, so adding instrumentation (which may draw
//! random numbers for sampling decisions) never perturbs protocol
//! randomness — a property the drift experiments (X-L23) rely on.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Deterministic PRNG used everywhere in the workspace.
///
/// Implements [`rand::RngCore`], so all `rand::Rng` extension methods
/// (`gen_range`, `gen_bool`, …) are available.
///
/// # Example
/// ```
/// use now_net::DetRng;
/// use rand::Rng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>()); // same seed, same stream
/// let _ = a.gen_range(0..10u32);
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: ChaCha12Rng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: ChaCha12Rng::seed_from_u64(seed),
        }
    }

    /// Derives the randomness substream of one *batched operation*:
    /// a ChaCha12 stream seeded purely from `(master, time_step,
    /// op_index)` through a splitmix64 chain.
    ///
    /// The threaded wave executor hands every operation of a batch its
    /// own substream keyed by the batch's master draw, the time step,
    /// and the operation's **canonical index** (departures before
    /// arrivals, each in input order). Because the derivation never
    /// reads shared generator state, the interleaving of worker
    /// threads cannot perturb any operation's stream — executing the
    /// batch on 1, 2, or 8 threads consumes bit-identical randomness.
    ///
    /// # Example
    /// ```
    /// use now_net::DetRng;
    /// use rand::RngCore;
    ///
    /// let mut a = DetRng::for_op(7, 3, 0);
    /// let mut b = DetRng::for_op(7, 3, 0);
    /// assert_eq!(a.next_u64(), b.next_u64()); // same triple, same stream
    /// ```
    pub fn for_op(master: u64, time_step: u64, op_index: u64) -> DetRng {
        fn splitmix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        // Chain the three keys so that flipping any single one (even to
        // a value another key held) lands on an unrelated 256-bit seed.
        let mut state = splitmix(master);
        state = splitmix(state ^ splitmix(time_step ^ 0x6A09_E667_F3BC_C908));
        state = splitmix(state ^ splitmix(op_index ^ 0xBB67_AE85_84CA_A73B));
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_exact_mut(8) {
            state = splitmix(state);
            chunk.copy_from_slice(&state.to_le_bytes());
        }
        DetRng {
            inner: ChaCha12Rng::from_seed(seed),
        }
    }
}

// Inlined across crates: a `randNum` draw is `gen_range` over
// `next_u64`, and with these forwards (and `ChaCha12Rng`'s own) marked
// it compiles to two buffered-word reads at the call site.
impl RngCore for DetRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.inner.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    #[inline]
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.inner.fill_bytes(dest)
    }

    #[inline]
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.inner.try_fill_bytes(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn for_op_is_deterministic_per_triple() {
        let draw = |m, t, i| {
            let mut rng = DetRng::for_op(m, t, i);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(draw(7, 3, 0), draw(7, 3, 0));
    }

    #[test]
    fn for_op_separates_every_key() {
        let draw = |m, t, i| {
            let mut rng = DetRng::for_op(m, t, i);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        let base = draw(7, 3, 5);
        assert_ne!(base, draw(8, 3, 5), "master must separate streams");
        assert_ne!(base, draw(7, 4, 5), "time step must separate streams");
        assert_ne!(base, draw(7, 3, 6), "op index must separate streams");
        // Swapping time step and op index must not collide.
        assert_ne!(draw(7, 3, 5), draw(7, 5, 3));
    }

    #[test]
    fn for_op_does_not_alias_plain_seeding() {
        let mut a = DetRng::for_op(42, 0, 0);
        let mut b = DetRng::new(42);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_works_via_rng_trait() {
        let mut rng = DetRng::new(11);
        for _ in 0..100 {
            let x = rng.gen_range(0..10u32);
            assert!(x < 10);
        }
    }
}
