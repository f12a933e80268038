//! Exact rational arithmetic over `i128`.
//!
//! The §3 rounding algorithm branches on exact comparisons of LP values
//! (`Y_i − ⌊Y_i⌋` vs `½`, sums vs `1` and `3/2`). Solving the active-time LP
//! with floating point would make those branches noise-dependent, so the
//! simplex solver is generic and runs on these exact rationals by default.
//!
//! Values are kept normalized (`gcd(n, d) = 1`, `d > 0`). Arithmetic uses
//! cross-reduction to delay overflow; a genuine `i128` overflow panics with
//! a clear message (the workspace's LPs have tiny coefficients — {0, 1, g} —
//! and near-network structure, so vertex arithmetic stays small; the `f64`
//! backend exists for stress scales). Since the operands almost always fit
//! in 64 bits, every product is one hardware 64×64→128 multiply when both
//! factors fit in `i64` (it cannot overflow), and a checked `i128` multiply
//! otherwise. The order is exact: cross products past `i128` are compared
//! at 256 bits.

use std::cmp::Ordering;
use std::fmt;

/// An exact rational number `n / d` with `d > 0`, normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    n: i128,
    d: i128,
}

/// `gcd(|a|, |b|)`, at least 1.
#[inline]
pub(crate) fn gcd(a: i128, b: i128) -> i128 {
    // 128-bit `%` is a software routine on every mainstream target, and
    // LP1 data keeps almost every operand within 64 bits (often ±1), so
    // dispatch to a hardware-width binary GCD whenever both fit. Every
    // branch returns the same value the plain i128 Euclid would.
    let mut a = a.unsigned_abs();
    let mut b = b.unsigned_abs();
    if a == 0 {
        return b.max(1) as i128;
    }
    if b == 0 {
        return a as i128;
    }
    if a == 1 || b == 1 {
        return 1;
    }
    loop {
        if (a | b) >> 64 == 0 {
            return gcd_u64(a as u64, b as u64) as i128;
        }
        let t = a % b;
        if t == 0 {
            return b as i128;
        }
        a = b;
        b = t;
    }
}

/// Stein's binary GCD on hardware words; both inputs nonzero.
#[inline]
fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            core::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

#[cold]
fn overflow() -> ! {
    panic!("abt-lp: exact rational overflow (i128); use the f64 backend for this problem size")
}

/// `a·b`, or `None` past `i128`. When both factors fit in `i64` this is
/// one hardware widening multiply, which cannot overflow; otherwise the
/// checked `i128` product.
#[inline]
fn product(a: i128, b: i128) -> Option<i128> {
    match (i64::try_from(a), i64::try_from(b)) {
        (Ok(a), Ok(b)) => Some(i128::from(a) * i128::from(b)),
        _ => a.checked_mul(b),
    }
}

/// The exact 256-bit product `a·b` as `(high, low)` 128-bit halves,
/// schoolbook over 64-bit limbs.
fn wide_product(a: u128, b: u128) -> (u128, u128) {
    const LO: u128 = u64::MAX as u128;
    let (a1, a0) = (a >> 64, a & LO);
    let (b1, b0) = (b >> 64, b & LO);
    let low = a0 * b0;
    // Each cross term is below 2¹²⁸, but their sum with the carry out of
    // `low` may pass it: each overflow goes to the high half.
    let (mid, carry) = (a1 * b0).overflowing_add(a0 * b1);
    let (mid, carry2) = mid.overflowing_add(low >> 64);
    let high = a1 * b1 + (mid >> 64) + ((u128::from(carry) + u128::from(carry2)) << 64);
    (high, (mid << 64) | (low & LO))
}

impl Rat {
    /// Zero.
    pub const ZERO: Rat = Rat { n: 0, d: 1 };
    /// One.
    pub const ONE: Rat = Rat { n: 1, d: 1 };

    /// Creates `n/d`, normalizing sign and common factors. Panics if `d = 0`.
    pub fn new(n: i128, d: i128) -> Rat {
        assert!(d != 0, "zero denominator");
        let (n, d) = if d < 0 { (-n, -d) } else { (n, d) };
        let g = gcd(n, d);
        if g == 1 {
            return Rat { n, d };
        }
        Rat { n: n / g, d: d / g }
    }

    /// From an integer.
    pub fn from_int(v: i64) -> Rat {
        Rat { n: v as i128, d: 1 }
    }

    /// Numerator.
    pub fn numer(&self) -> i128 {
        self.n
    }

    /// Denominator (positive).
    pub fn denom(&self) -> i128 {
        self.d
    }

    /// Exact sum.
    pub fn add(&self, o: &Rat) -> Rat {
        // a/b + c/e = (a·(e/g) + c·(b/g)) / (b·(e/g)) with g = gcd(b, e).
        let g = gcd(self.d, o.d);
        let (e_g, b_g) = if g == 1 {
            (o.d, self.d)
        } else {
            (o.d / g, self.d / g)
        };
        let num = product(self.n, e_g)
            .and_then(|x| product(o.n, b_g).and_then(|y| x.checked_add(y)))
            .unwrap_or_else(|| overflow());
        let den = product(self.d, e_g).unwrap_or_else(|| overflow());
        Rat::new(num, den)
    }

    /// Exact difference.
    pub fn sub(&self, o: &Rat) -> Rat {
        self.add(&o.neg())
    }

    /// Exact product with cross-reduction.
    pub fn mul(&self, o: &Rat) -> Rat {
        let g1 = gcd(self.n, o.d);
        let g2 = gcd(o.n, self.d);
        let (an, bd) = if g1 == 1 {
            (self.n, o.d)
        } else {
            (self.n / g1, o.d / g1)
        };
        let (bn, ad) = if g2 == 1 {
            (o.n, self.d)
        } else {
            (o.n / g2, self.d / g2)
        };
        let n = product(an, bn).unwrap_or_else(|| overflow());
        let d = product(ad, bd).unwrap_or_else(|| overflow());
        Rat { n, d } // already reduced by construction
    }

    /// Exact quotient; panics on division by zero.
    pub fn div(&self, o: &Rat) -> Rat {
        assert!(o.n != 0, "division by zero rational");
        let recip = if o.n < 0 {
            Rat { n: -o.d, d: -o.n }
        } else {
            Rat { n: o.d, d: o.n }
        };
        self.mul(&recip)
    }

    /// Negation.
    pub fn neg(&self) -> Rat {
        Rat {
            n: -self.n,
            d: self.d,
        }
    }

    /// `⌊self⌋`.
    pub fn floor(&self) -> i128 {
        self.n.div_euclid(self.d)
    }

    /// `⌈self⌉`.
    pub fn ceil(&self) -> i128 {
        -((-self.n).div_euclid(self.d))
    }

    /// The fractional part `self − ⌊self⌋ ∈ [0, 1)`.
    pub fn fract(&self) -> Rat {
        self.sub(&Rat::from_int(self.floor() as i64))
    }

    /// Whether the value is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.n == 0
    }

    /// Sign as an integer in {-1, 0, 1}.
    pub fn signum(&self) -> i32 {
        self.n.signum() as i32
    }

    /// Lossy conversion for reporting. A numerator and denominator that
    /// fit in `i64` convert through it: the same values, without the
    /// software `i128` conversion.
    pub fn to_f64(&self) -> f64 {
        match (i64::try_from(self.n), i64::try_from(self.d)) {
            (Ok(n), Ok(d)) => n as f64 / d as f64,
            _ => self.n as f64 / self.d as f64,
        }
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b against c/e is a·e against c·b (denominators are positive).
        if let (Some(l), Some(r)) = (product(self.n, other.d), product(other.n, self.d)) {
            return l.cmp(&r);
        }
        // Past i128: the signs decide, else the magnitudes' 256-bit cross
        // products (reversed for two negatives).
        let sign = self.n.signum().cmp(&other.n.signum());
        if sign != Ordering::Equal {
            return sign;
        }
        let l = wide_product(self.n.unsigned_abs(), other.d.unsigned_abs());
        let r = wide_product(other.n.unsigned_abs(), self.d.unsigned_abs());
        if self.n < 0 {
            r.cmp(&l)
        } else {
            l.cmp(&r)
        }
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.d == 1 {
            write!(f, "{}", self.n)
        } else {
            write!(f, "{}/{}", self.n, self.d)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_display() {
        assert_eq!(Rat::new(4, 6), Rat::new(2, 3));
        assert_eq!(Rat::new(-4, -6), Rat::new(2, 3));
        assert_eq!(Rat::new(4, -6), Rat::new(-2, 3));
        assert_eq!(Rat::new(2, 3).to_string(), "2/3");
        assert_eq!(Rat::from_int(5).to_string(), "5");
    }

    #[test]
    fn field_ops() {
        let a = Rat::new(1, 2);
        let b = Rat::new(1, 3);
        assert_eq!(a.add(&b), Rat::new(5, 6));
        assert_eq!(a.sub(&b), Rat::new(1, 6));
        assert_eq!(a.mul(&b), Rat::new(1, 6));
        assert_eq!(a.div(&b), Rat::new(3, 2));
        assert_eq!(a.neg(), Rat::new(-1, 2));
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::new(7, 2).fract(), Rat::new(1, 2));
        assert_eq!(Rat::from_int(3).fract(), Rat::ZERO);
        assert_eq!(Rat::new(-1, 4).fract(), Rat::new(3, 4));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(2, 3) < Rat::new(3, 4));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert_eq!(Rat::new(2, 4).cmp(&Rat::new(1, 2)), Ordering::Equal);
    }

    #[test]
    fn order_is_exact_past_i128() {
        // Cross products past i128: an f64 comparison called these equal.
        let big = 10i128.pow(30);
        let (a, b) = (
            Rat::new(big + 1, 1_000_000_007),
            Rat::new(big, 1_000_000_007),
        );
        assert_eq!(a.cmp(&b), Ordering::Greater);
        assert_eq!(b.cmp(&a), Ordering::Less);
        assert_eq!(a.neg().cmp(&b.neg()), Ordering::Less);
        let top = i128::MAX / 3;
        let (c, d) = (
            Rat::new(top, 1_000_000_009),
            Rat::new(top - 1, 1_000_000_009),
        );
        assert_eq!(c.cmp(&d), Ordering::Greater);
        assert_eq!(d.neg().cmp(&c.neg()), Ordering::Greater);
        assert_eq!(c.cmp(&c), Ordering::Equal);
        assert_ne!(a, b);
        assert_ne!(c, d);
    }

    #[test]
    fn wide_product_carries() {
        let max = u128::MAX;
        assert_eq!(wide_product(max, max), (max - 1, 1));
        assert_eq!(wide_product(1 << 127, 2), (1, 0));
        assert_eq!(wide_product(max, 1), (0, max));
        assert_eq!(wide_product(0, max), (0, 0));
        // The middle sum fits, and the carry out of the low product
        // overflows it.
        assert_eq!(
            wide_product(max, (2 << 64) | u128::from(u64::MAX)),
            ((3 << 64) - 2, max - (3 << 64) + 2)
        );
    }

    #[test]
    #[should_panic(expected = "exact rational overflow")]
    fn sum_past_i128_panics() {
        let _ = Rat::new(i128::MAX, 3).add(&Rat::new(i128::MAX, 5));
    }

    #[test]
    #[should_panic(expected = "exact rational overflow")]
    fn product_past_i128_panics() {
        let _ = Rat::new(1 << 100, 3).mul(&Rat::new(1 << 40, 7));
    }

    /// `a·b` in 32-bit limbs, least significant first: the oracle's own
    /// wide product, independent of [`wide_product`]'s 64-bit halves.
    fn limbs(a: u128, b: u128) -> [u64; 8] {
        let split = |v: u128| [0, 32, 64, 96].map(|s| (v >> s) as u32 as u64);
        let (a, b) = (split(a), split(b));
        let mut acc = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                let t = acc[i + j] + a[i] * b[j] + carry;
                acc[i + j] = t & 0xFFFF_FFFF;
                carry = t >> 32;
            }
            if i + 4 < 8 {
                acc[i + 4] += carry;
            }
        }
        acc
    }

    /// The order of `x` and `y` by their cross products in limbs.
    fn oracle_cmp(x: &Rat, y: &Rat) -> Ordering {
        let (sx, sy) = (x.numer().signum(), y.numer().signum());
        if sx != sy {
            return sx.cmp(&sy);
        }
        let l = limbs(x.numer().unsigned_abs(), y.denom() as u128);
        let r = limbs(y.numer().unsigned_abs(), x.denom() as u128);
        let magnitude = l.iter().rev().cmp(r.iter().rev());
        if sx < 0 {
            magnitude.reverse()
        } else {
            magnitude
        }
    }

    /// The previous sum and product: checked `i128` throughout.
    fn add_checked(x: &Rat, y: &Rat) -> Option<Rat> {
        let g = gcd(x.d, y.d);
        let (e_g, b_g) = (y.d / g, x.d / g);
        let num = x.n.checked_mul(e_g)?.checked_add(y.n.checked_mul(b_g)?)?;
        Some(Rat::new(num, x.d.checked_mul(e_g)?))
    }

    fn mul_checked(x: &Rat, y: &Rat) -> Option<Rat> {
        let (g1, g2) = (gcd(x.n, y.d), gcd(y.n, x.d));
        let n = (x.n / g1).checked_mul(y.n / g2)?;
        let d = (x.d / g2).checked_mul(y.d / g1)?;
        Some(Rat { n, d })
    }

    /// SplitMix64 over one seed: rationals of every bit length.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// A nonnegative value of at most `bits` bits, `bits < 128`.
        fn bits(&mut self, bits: u32) -> i128 {
            let v = u128::from(self.next()) << 64 | u128::from(self.next());
            v.checked_shr(128 - bits).unwrap_or(0) as i128
        }

        fn rat(&mut self) -> Rat {
            let nb = (self.next() % 128) as u32;
            let db = 1 + (self.next() % 127) as u32;
            let n = self.bits(nb);
            let n = if self.next().is_multiple_of(2) { n } else { -n };
            Rat::new(n, self.bits(db).max(1))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]
        #[test]
        fn order_and_arithmetic_match_wide_oracles(seed in 0u64..u64::MAX) {
            let mut d = Draw(seed);
            for _ in 0..32 {
                let (a, b) = (d.bits(127) as u128 * 2 + d.bits(1) as u128, d.bits(127) as u128);
                let l = limbs(a, b);
                let halves = |lo: usize| (0..4).fold(0u128, |acc, k| acc | u128::from(l[lo + k] as u32) << (32 * k));
                proptest::prop_assert_eq!(wide_product(a, b), (halves(4), halves(0)));
                let (x, y) = (d.rat(), d.rat());
                // Neighbours share a denominator and differ in the last
                // unit, where a rounded comparison fails first.
                let next = Rat::new(x.n.saturating_add(1), x.d);
                for (a, b) in [(x, y), (x, next), (y, x), (x, x)] {
                    proptest::prop_assert_eq!(a.cmp(&b), oracle_cmp(&a, &b), "{} against {}", a, b);
                    proptest::prop_assert_eq!(a.cmp(&b) == Ordering::Equal, a == b);
                    if let Some(sum) = add_checked(&a, &b) {
                        proptest::prop_assert_eq!(a.add(&b), sum);
                    }
                    if let Some(prod) = mul_checked(&a, &b) {
                        proptest::prop_assert_eq!(a.mul(&b), prod);
                    }
                    let f = a.to_f64();
                    proptest::prop_assert_eq!(f.to_bits(), (a.n as f64 / a.d as f64).to_bits());
                }
            }
        }
    }

    #[test]
    fn signum_and_zero() {
        assert!(Rat::ZERO.is_zero());
        assert_eq!(Rat::new(-3, 7).signum(), -1);
        assert_eq!(Rat::new(3, 7).signum(), 1);
        assert_eq!(Rat::ZERO.signum(), 0);
    }

    #[test]
    #[should_panic]
    fn division_by_zero_panics() {
        let _ = Rat::ONE.div(&Rat::ZERO);
    }
}
