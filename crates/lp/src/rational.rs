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
//! backend exists for stress scales).

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
        let num = self
            .n
            .checked_mul(e_g)
            .and_then(|x| o.n.checked_mul(b_g).and_then(|y| x.checked_add(y)))
            .unwrap_or_else(|| overflow());
        let den = self.d.checked_mul(e_g).unwrap_or_else(|| overflow());
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
        let n = an.checked_mul(bn).unwrap_or_else(|| overflow());
        let d = ad.checked_mul(bd).unwrap_or_else(|| overflow());
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

    /// Lossy conversion for reporting.
    pub fn to_f64(&self) -> f64 {
        self.n as f64 / self.d as f64
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare a/b vs c/e via a·e vs c·b with checked arithmetic.
        let l = self.n.checked_mul(other.d);
        let r = other.n.checked_mul(self.d);
        match (l, r) {
            (Some(l), Some(r)) => l.cmp(&r),
            _ => self
                .to_f64()
                .partial_cmp(&other.to_f64())
                .unwrap_or(Ordering::Equal),
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
