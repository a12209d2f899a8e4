//! Lemma 1's ideal capture law: how often a uniformly drawn cluster
//! holds a third or more Byzantine members.
//!
//! Lemma 1 bounds by a Chernoff tail the chance that a cluster of size
//! `s`, sampled uniformly from a population with a fraction τ of
//! Byzantine nodes, is *captured*: `3b ≥ s`, where `b` counts its
//! Byzantine members. Here that chance is exact. The sample is drawn
//! without replacement, so `b` is hypergeometric, and a partition of
//! the population into clusters is a chain of such samples. These are
//! the figures an ideal exchange, one that refreshes clusters with
//! uniform samples, achieves; a run's observed violations are read
//! against them.
//!
//! Floating point is IEEE `+ − × ÷` only. A pmf row is built outward
//! from its mode by the ratio recurrence
//! `p(b+1) / p(b) = (B − b)(s − b) / ((b + 1)(n − B − s + b + 1))` and
//! divided by its sum, so no factorial or logarithm is formed and no
//! term underflows before the row's largest does.

/// The Byzantine count that captures a size-`s` cluster: the least
/// `b` with `3b ≥ s` (1 for an empty cluster, which nothing captures).
fn threshold(s: usize) -> usize {
    s.div_ceil(3).max(1)
}

/// The law of `b`, the Byzantine members of a size-`s` sample drawn
/// without replacement from `n` nodes of which `byz` are Byzantine:
/// `(lo, p)` with `p[i] = P(b = lo + i)`.
fn row(n: usize, byz: usize, s: usize) -> (usize, Vec<f64>) {
    let lo = s.saturating_sub(n - byz);
    let hi = s.min(byz);
    let mode = ((s + 1) as f64 * (byz + 1) as f64 / (n + 2) as f64) as usize;
    let mode = mode.clamp(lo, hi);
    // P(b + 1) / P(b), for lo ≤ b < hi (every factor is positive there).
    let ratio = |b: usize| {
        ((byz - b) as f64 * (s - b) as f64) / ((b + 1) as f64 * (n - byz + b + 1 - s) as f64)
    };
    let mut p = Vec::with_capacity(hi - lo + 1);
    let mut w = 1.0;
    for b in (lo..mode).rev() {
        w /= ratio(b);
        p.push(w);
    }
    p.reverse();
    w = 1.0;
    p.push(w);
    for b in mode..hi {
        w *= ratio(b);
        p.push(w);
    }
    let total: f64 = p.iter().sum();
    p.iter_mut().for_each(|x| *x /= total);
    (lo, p)
}

/// P(3b ≥ s): the chance that a size-`s` sample of a population of `n`
/// nodes, `byz` of them Byzantine, is captured.
///
/// # Panics
/// Panics if `byz > n` or `s > n`.
pub fn capture_tail(n: usize, byz: usize, s: usize) -> f64 {
    assert!(byz <= n && s <= n, "need byz ≤ n and s ≤ n");
    let (lo, p) = row(n, byz, s);
    (lo..)
        .zip(p)
        .filter(|&(b, _)| b >= threshold(s))
        .map(|(_, q)| q)
        .sum()
}

/// P(any cluster captured) for a uniformly random partition of a
/// population of `n` nodes, `byz` of them Byzantine, into clusters of
/// the given sizes (drawn one after another, each from the nodes the
/// earlier ones left). A DP over the clusters on the Byzantine members
/// left; the captured mass is summed directly, so a small result keeps
/// its relative precision.
///
/// # Panics
/// Panics if `byz > n` or the sizes sum to more than `n`.
pub fn any_captured(n: usize, byz: usize, sizes: &[usize]) -> f64 {
    assert!(
        byz <= n && sizes.iter().sum::<usize>() <= n,
        "need byz ≤ n and the sizes to sum to at most n"
    );
    // clear[β]: P(no cluster captured yet, β Byzantine members left).
    let mut clear = vec![0.0; byz + 1];
    clear[byz] = 1.0;
    let mut left = n;
    let mut captured = 0.0;
    for &s in sizes {
        let mut next = vec![0.0; byz + 1];
        for (beta, &mass) in clear.iter().enumerate().filter(|&(_, &m)| m > 0.0) {
            let (lo, p) = row(left, beta, s);
            for (b, q) in (lo..).zip(p) {
                if b >= threshold(s) {
                    captured += mass * q;
                } else {
                    // INVARIANT: a row's `b` never exceeds `beta`, so
                    // `beta − b` lies in `0..=byz`, `next`'s range.
                    next[beta - b] += mass * q;
                }
            }
        }
        clear = next;
        left -= s;
    }
    captured
}

/// The expected number of captured clusters among `samples` fresh
/// size-`s` samples of the population: `samples · capture_tail`.
///
/// # Panics
/// As [`capture_tail`].
pub fn expected_captures(n: usize, byz: usize, s: usize, samples: u64) -> f64 {
    samples as f64 * capture_tail(n, byz, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(got: f64, want: f64, rel: f64) -> bool {
        (got - want).abs() <= rel * want.abs()
    }

    /// Every assignment of 4 Byzantine slots among 20, against the
    /// clusters `0..5`, `5..12` and `12..20`.
    fn brute_force_any_captured() -> f64 {
        let sizes = [5usize, 7, 8];
        let (mut hit, mut total) = (0u32, 0u32);
        for mask in 0u32..1 << 20 {
            if mask.count_ones() != 4 {
                continue;
            }
            total += 1;
            let mut start = 0;
            let captured = sizes.iter().any(|&s| {
                let byz = (mask >> start & ((1 << s) - 1)).count_ones() as usize;
                start += s;
                3 * byz >= s
            });
            hit += u32::from(captured);
        }
        f64::from(hit) / f64::from(total)
    }

    #[test]
    fn small_partition_matches_the_exact_fraction_and_brute_force() {
        let exact = 2437.0 / 4845.0;
        assert!(close(any_captured(20, 4, &[5, 7, 8]), exact, 1e-12));
        assert!(close(brute_force_any_captured(), exact, 1e-12));
    }

    #[test]
    fn steady_start_shape() {
        // 3 072 nodes, 153 Byzantine, 128 clusters of 24.
        assert!(close(capture_tail(3072, 153, 24), 1.174_596_891_5e-5, 1e-9));
        assert!(close(
            any_captured(3072, 153, &[24; 128]),
            1.502_693_001_3e-3,
            1e-9
        ));
        let tail = capture_tail(3072, 153, 24);
        assert_eq!(expected_captures(3072, 153, 24, 480), 480.0 * tail);
    }

    /// At a population of 10⁶ the hypergeometric tail is within 2 % of
    /// the binomial one, ROADMAP item 22's table (re-derived to four
    /// digits with exact integer arithmetic).
    #[test]
    fn large_population_meets_the_binomial_table() {
        let sizes = [24, 30, 48, 60, 90, 120];
        let table = [
            (
                50_000,
                [
                    1.3928e-5, 1.1615e-6, 7.3904e-10, 5.7051e-12, 3.2138e-17, 1.9168e-22,
                ],
            ),
            (
                100_000,
                [
                    1.6841e-3, 4.5436e-4, 9.7363e-6, 7.8226e-7, 1.5358e-9, 3.1871e-12,
                ],
            ),
            (
                150_000,
                [
                    1.9869e-2, 9.6576e-3, 1.2008e-3, 3.1056e-4, 1.1283e-5, 4.3203e-7,
                ],
            ),
        ];
        for (byz, binomial) in table {
            for (s, want) in sizes.into_iter().zip(binomial) {
                let got = capture_tail(1_000_000, byz, s);
                assert!(
                    close(got, want, 0.02),
                    "byz {byz}, s {s}: {got:e} vs {want:e}"
                );
            }
        }
    }

    #[test]
    fn edge_shapes() {
        assert_eq!(capture_tail(10, 0, 5), 0.0);
        assert_eq!(capture_tail(10, 10, 5), 1.0);
        // 4 of 5 Byzantine: any 3 hold at least 2.
        assert!(close(capture_tail(5, 4, 3), 1.0, 1e-15));
        assert_eq!(any_captured(10, 3, &[]), 0.0);
        assert_eq!(any_captured(10, 3, &[0]), 0.0);
        // One cluster of everyone: captured iff 3·byz ≥ n.
        assert_eq!(any_captured(9, 3, &[9]), 1.0);
        assert_eq!(any_captured(9, 2, &[9]), 0.0);
        let rows: f64 = (0..=6).map(|s| row(12, 4, s).1.iter().sum::<f64>()).sum();
        assert!(close(rows, 7.0, 1e-14));
    }
}
