//! Cross-commit pin of the `DetRng` word stream (ISSUE 14).
//!
//! Every seed-pinned expectation in the workspace rests on the raw
//! ChaCha12 stream behind `DetRng`, and the generator may be rewritten
//! for speed (it produces four blocks per refill since this test was
//! added). These constants were measured on the single-block generator
//! that preceded it; a generator that reproduces them leaves every
//! other pin in place. The million-draw sums cross 31 250 refills, and
//! the offset one reads every `u64` straddling a refill boundary.

use now_bft::net::DetRng;
use rand::RngCore;

fn wrapping_sum(rng: &mut DetRng, draws: u32) -> u64 {
    (0..draws).fold(0u64, |sum, _| sum.wrapping_add(rng.next_u64()))
}

#[test]
fn seeded_stream_is_pinned() {
    let mut rng = DetRng::new(1);
    assert_eq!(rng.next_u64(), 0xd58b_efc1_e62a_dee3);
    assert_eq!(rng.next_u64(), 0x4741_f34c_4fee_0b82);

    assert_eq!(
        wrapping_sum(&mut DetRng::new(1), 1_000_000),
        0xa15c_cc23_9c49_969a
    );
}

#[test]
fn op_substream_is_pinned() {
    assert_eq!(DetRng::for_op(7, 3, 0).next_u64(), 0x4584_3149_0d7a_cc6c);

    // One `u32` first, so each following `u64` sits across two words of
    // odd offset and every 32nd takes the last word of one buffer and
    // the first word of the next.
    let mut rng = DetRng::for_op(7, 3, 0);
    rng.next_u32();
    assert_eq!(wrapping_sum(&mut rng, 1_000_000), 0x9aca_0ae0_064c_9786);
}
