//! Exact approximation-factor checks over `i128`.
//!
//! Tests and the experiment harness must check guarantees like
//! `cost ≤ 3 · OPT` exactly; doing this in `f64` would make tight gadget
//! assertions flaky. All costs in the workspace are `i64` ticks, so the
//! cross-multiplications fit comfortably in `i128`. Exact ratios are
//! `abt_lp::Rat`s.

/// Whether `a ≤ factor · b` exactly, for integer costs (the standard
/// approximation-guarantee check, e.g. `minimal ≤ 3·OPT`).
pub fn within_factor(a: i64, factor: i64, b: i64) -> bool {
    (a as i128) <= (factor as i128) * (b as i128)
}

/// Whether `a · q ≤ p · b` exactly, i.e. `a ≤ (p/q) · b` — for fractional
/// guarantee factors such as `2g/(g+1)`.
pub fn within_frac_factor(a: i64, p: i64, q: i64, b: i64) -> bool {
    (a as i128) * (q as i128) <= (p as i128) * (b as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_checks() {
        assert!(within_factor(29, 3, 10));
        assert!(within_factor(30, 3, 10));
        assert!(!within_factor(31, 3, 10));
        // 2g/(g+1) with g=3 is 3/2: 15 ≤ (3/2)·10
        assert!(within_frac_factor(15, 3, 2, 10));
        assert!(!within_frac_factor(16, 3, 2, 10));
    }
}
