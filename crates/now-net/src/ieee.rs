//! Logarithms and powers from IEEE-754 basic operations alone, so that
//! no trajectory depends on the platform's libm, which two C libraries
//! may round differently: `log₂ N`, `log^{1+α} N`, `N^{1/y}`, the
//! walk length and the init election costs come from here (`crates/clippy.toml` bans libm in every crate;
//! some crates' unit tests may call it as a reference).
//!
//! Double-double arithmetic (Knuth's and Dekker's error-free sum and
//! product, no fused multiply-add) through an `atanh` series for `ln`
//! and a Taylor series for `exp`, rounded to `f64` once: within ≈ 2⁻¹⁰⁰
//! of the exact value, so the result is correctly rounded unless the
//! exact value lies that close to a rounding boundary, and exact where
//! it is representable (`log₂ 2^e`, `4096^½`, `1000¹`). Arguments are
//! positive normal `f64`s, all the callers pass.

/// `hi + lo`, `|lo| ≤ ulp(hi)/2`.
#[derive(Clone, Copy)]
struct Dd(f64, f64);

/// `ln 2` to double-double precision.
const LN2: Dd = Dd(
    f64::from_bits(0x3FE6_2E42_FEFA_39EF),
    f64::from_bits(0x3C7A_BC9E_3B39_803F),
);

/// Entry `k` is `1/(2k + 1)`: the `atanh` series' coefficients. Its
/// argument is at most `(√2 − 1)/(√2 + 1)`, so the first term left out
/// is below 2⁻¹¹⁰ of the sum.
const ODD_RECIPS: [Dd; 22] = {
    let mut out = [Dd(0.0, 0.0); 22];
    let mut k = 0;
    while k < out.len() {
        out[k] = Dd(1.0, 0.0).div(Dd((2 * k + 1) as f64, 0.0));
        k += 1;
    }
    out
};

/// `a + b` exactly (Knuth).
const fn two_sum(a: f64, b: f64) -> Dd {
    let s = a + b;
    let v = s - a;
    Dd(s, (a - (s - v)) + (b - v))
}

/// `a` as two halves of 26 significant bits (Veltkamp).
const fn split(a: f64) -> (f64, f64) {
    let t = 134_217_729.0 * a; // 2²⁷ + 1
    let hi = t - (t - a);
    (hi, a - hi)
}

impl Dd {
    const fn add(self, b: Dd) -> Dd {
        let s = two_sum(self.0, b.0);
        let t = two_sum(self.1, b.1);
        let s = two_sum(s.0, s.1 + t.0);
        two_sum(s.0, s.1 + t.1)
    }

    /// The product, from Dekker's exact product of the high parts.
    const fn mul(self, b: Dd) -> Dd {
        let p = self.0 * b.0;
        let ((ah, al), (bh, bl)) = (split(self.0), split(b.0));
        let err = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
        two_sum(p, err + (self.0 * b.1 + self.1 * b.0))
    }

    /// The quotient, by three rounds of long division.
    const fn div(self, b: Dd) -> Dd {
        let q1 = self.0 / b.0;
        let r = self.add(b.mul(Dd(-q1, 0.0)));
        let q2 = r.0 / b.0;
        let r = r.add(b.mul(Dd(-q2, 0.0)));
        two_sum(q1, q2).add(Dd(r.0 / b.0, 0.0))
    }
}

/// `ln x`: `x = 2^e · m` with `m ∈ [√½, √2)`, exactly, then `ln x =
/// e·ln 2 + 2·atanh(s)`, `s = (m − 1)/(m + 1)`, summed by Horner.
const fn ln_dd(x: f64) -> Dd {
    let bits = x.to_bits();
    let mut e = (bits >> 52) as i64 - 1023;
    let mut m = f64::from_bits((bits & ((1 << 52) - 1)) | (1023 << 52));
    if m > std::f64::consts::SQRT_2 {
        m /= 2.0;
        e += 1;
    }
    // `m − 1` is exact (Sterbenz); `m + 1` is kept exact in two parts.
    let s = Dd(m - 1.0, 0.0).div(two_sum(m, 1.0));
    let (t, mut sum, mut k) = (s.mul(s), Dd(0.0, 0.0), ODD_RECIPS.len());
    while k > 0 {
        k -= 1;
        sum = sum.mul(t).add(ODD_RECIPS[k]);
    }
    LN2.mul(Dd(e as f64, 0.0)).add(s.mul(sum).mul(Dd(2.0, 0.0)))
}

/// `ln x`, for positive normal `x`.
pub const fn ln(x: f64) -> f64 {
    ln_dd(x).0
}

/// `log₂ x`, for positive normal `x`; exact at a power of two.
pub const fn log2(x: f64) -> f64 {
    let bits = x.to_bits();
    if bits & ((1 << 52) - 1) == 0 {
        return ((bits >> 52) as i64 - 1023) as f64;
    }
    ln_dd(x).div(LN2).0
}

/// `x^y = e^{y·ln x}`, for positive normal `x` and finite `y`; `+∞`
/// from `e^709` up, `0` below `e^−708`. `e^z` is `2^n · e^r` with `r =
/// z − n·ln 2`, `|r| ≤ ln 2 / 2`, and `e^r` by Horner over 24 Taylor
/// terms (the first left out is below 2⁻¹¹⁰).
pub fn pow(x: f64, y: f64) -> f64 {
    // The default population exponents, exactly (`√` is correctly
    // rounded by IEEE-754).
    if y == 1.0 {
        return x;
    }
    if y == 0.5 {
        return x.sqrt();
    }
    let l = ln_dd(x);
    if l.0 * y >= 709.0 {
        return f64::INFINITY;
    }
    if l.0 * y < -708.0 {
        return 0.0;
    }
    let z = l.mul(Dd(y, 0.0));
    let n = (z.0 / LN2.0 + 0.5f64.copysign(z.0)) as i64;
    let r = z.add(LN2.mul(Dd(-n as f64, 0.0)));
    let mut sum = Dd(1.0, 0.0);
    for k in (1..=24).rev() {
        sum = Dd(1.0, 0.0).add(sum.mul(r).div(Dd(k as f64, 0.0)));
    }
    // `e^r ∈ (0.7, 1.42)` and `|n| ≤ 1023`: scaling the one rounding by
    // `2^n` is exact.
    sum.0 * f64::from_bits(((n + 1023) as u64) << 52)
}

/// `⌈log₂ n⌉` for `n ≥ 2`, and 1 below, by integer arithmetic: libm's
/// `(n.max(2) as f64).log2().ceil()` for every `n` up to 2⁴⁰.
pub const fn ceil_log2(n: u64) -> u64 {
    if n <= 2 {
        return 1;
    }
    n.next_power_of_two().trailing_zeros() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    /// `ln 2` summed independently, as `2·atanh(1/3)`, agrees with the
    /// constant to double-double precision.
    #[test]
    fn ln2_constant_is_ln_2() {
        let third = Dd(1.0, 0.0).div(Dd(3.0, 0.0));
        let ninth = third.mul(third);
        let (mut sum, mut power) = (Dd(0.0, 0.0), third);
        for k in 0..40 {
            sum = sum.add(power.div(Dd((2 * k + 1) as f64, 0.0)));
            power = power.mul(ninth);
        }
        let gap = sum.mul(Dd(2.0, 0.0)).add(Dd(-LN2.0, -LN2.1));
        assert!(gap.0.abs() < 1e-31, "ln 2 off by {:e}", gap.0);
    }

    /// Against libm on random arguments across the normal range and
    /// near 1: within one ulp everywhere, and equal on nearly all. (Where
    /// they differ, a 50-digit decimal `ln` sides with this module:
    /// glibc 2.36's `log` is not correctly rounded.)
    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm is the reference the IEEE-only logarithms are checked against"
    )]
    fn logarithms_agree_with_libm() {
        let mut rng = crate::DetRng::new(7);
        let (mut trials, mut differ) = (0, 0);
        for _ in 0..20_000 {
            let x = match rng.gen_range(0..3) {
                0 => f64::from_bits(rng.gen_range(1u64 << 52..0x7FEF_FFFF_FFFF_FFFF)),
                1 => rng.gen_range(0.5..2.0),
                _ => rng.gen_range(1u64..1 << 40) as f64,
            };
            for (ours, theirs) in [(ln(x), x.ln()), (log2(x), x.log2())] {
                trials += 1;
                assert!(ulps(ours, theirs) <= 1, "{x:e}: {ours:e} vs {theirs:e}");
                differ += (ours != theirs) as u32;
            }
        }
        assert!(differ * 50 < trials, "{differ} of {trials} differ");
    }

    #[test]
    fn exact_cases_are_exact() {
        for e in -1022..1024 {
            let x = f64::from_bits(((e + 1023) as u64) << 52);
            assert_eq!(log2(x), e as f64, "log2 2^{e}");
        }
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(pow(4096.0, 0.5), 64.0);
        assert_eq!(pow(1000.0, 1.0), 1000.0);
        assert_eq!(pow(100.0, 1.5), 1000.0);
        assert_eq!(pow(2.0, 10.0), 1024.0);
        assert_eq!(pow(1024.0, 0.1), 2.0);
        assert_eq!(pow(0.25, -0.5), 2.0);
        assert_eq!(pow(2.0, 0.5), std::f64::consts::SQRT_2);
        assert_eq!(pow(2.0, 2000.0), f64::INFINITY);
        assert_eq!(pow(2.0, -2000.0), 0.0);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm is the reference the IEEE-only pow is checked against"
    )]
    fn pow_agrees_with_libm() {
        let mut rng = crate::DetRng::new(11);
        let mut differ = 0;
        for _ in 0..20_000 {
            let x = rng.gen_range(1e-3..1e6);
            let y = rng.gen_range(-8.0..8.0);
            let (ours, theirs) = (pow(x, y), x.powf(y));
            assert!(ulps(ours, theirs) <= 1, "{x:e}^{y}: {ours:e} vs {theirs:e}");
            differ += (ours != theirs) as u32;
        }
        assert!(differ < 100, "{differ} of 20000 differ");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "libm is the reference the IEEE-only ceil_log2 is checked against"
    )]
    fn ceil_log2_is_libms() {
        let mut ns: Vec<u64> = (0..5_000).collect();
        for e in 2..40 {
            ns.extend([(1u64 << e) - 1, 1 << e, (1 << e) + 1, 3 << (e - 1)]);
        }
        for n in ns {
            let libm = (n.max(2) as f64).log2().ceil() as u64;
            assert_eq!(ceil_log2(n), libm, "n = {n}");
        }
    }
}
