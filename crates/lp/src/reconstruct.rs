//! Exact basic values and multipliers from the float pass's own numbers.
//!
//! The revised certifier ([`crate::simplex`]) needs the terminal basis's
//! basic values `x_B` and multipliers `y` in exact rationals: the solutions
//! of `B̄·x_B = b'` and `B̄ᵀ·y = c̄_B`, where `B̄` is the augmented basis
//! matrix, `c̄_B` its costs and `b'` the right-hand side less every nonbasic
//! column resting at a nonzero value. The bounded revised simplex
//! ([`crate::bounds`]) ends holding both vectors in `f64`: its basic values
//! and the multipliers of the pricing pass that found no entering column.
//! A [`Candidate`] proves their rational neighbours exact in work linear in
//! the basis's nonzeros, so the exact [`SparseLu`](crate::lu::SparseLu)
//! factor and its two solves run only as the fallback:
//!
//! 1. **Rationalize.** Each entry becomes its first continued-fraction
//!    convergent within `1e-9·max(1, |v|)`, with a denominator of at most
//!    2²⁴. Each vector then goes over one common denominator of at most
//!    2⁴⁰, giving integer numerators `n_x`, `n_y` over `d_x`, `d_y`.
//! 2. **Residuals.** `B̄·n_x = d_x·b'` and `B̄ᵀ·n_y = d_y·c̄_B` hold exactly,
//!    in `i128` over the form's integer data. Both are one pass over the
//!    basis columns and their glued dependents.
//! 3. **Rank.** `B̄` is nonsingular modulo the prime `p = 2³¹ − 1`: singleton
//!    rows and columns are peeled, and what is left, the nucleus, is
//!    eliminated densely with fraction-free row operations in `u64` and no
//!    inverses. A nucleus past [`MAX_NUCLEUS`] rows is left to the LU.
//!
//! An integer matrix that is nonsingular modulo `p` is nonsingular over ℚ,
//! so each system then has exactly one solution, and the checked values
//! are bit for bit what the LU would return. No failure is a verdict:
//! fractional or large data, no convergent, a nonzero residual, an `i128`
//! overflow, a matrix singular modulo `p` or a nucleus too large sends the
//! solve to the LU, which decides as before. A singular `B̄` is therefore
//! still refuted by the LU: the rank check never passes it.

use crate::bounds::StandardForm;
use crate::rational::Rat;

/// Relative tolerance of a convergent (times `max(1, |v|)`).
const REL_TOL: f64 = 1e-9;
/// Largest denominator of one entry's convergent.
const MAX_DEN: i64 = 1 << 24;
/// Largest common denominator of a vector.
const MAX_COMMON_DEN: i64 = 1 << 40;
/// Largest magnitude of a scaled numerator.
const MAX_NUM: i64 = 1 << 62;
/// Largest magnitude of a matrix entry or cost that the residuals read. A
/// product with a numerator then stays below 2⁹³, so no sum of fewer than
/// 2³⁴ such products can leave `i128`, and those sums need no overflow
/// checks.
const MAX_ENTRY: u128 = 1 << 31;
/// The prime of the rank check, `2³¹ − 1`: a product of two residues fits
/// in 62 bits, so a fraction-free update `a·x + (p − b)·y` fits in `u64`.
const P: u64 = (1 << 31) - 1;
/// The largest nucleus eliminated densely; a larger one goes to the LU.
const MAX_NUCLEUS: usize = 64;

/// The integer value of an exact datum, `None` when it is fractional.
fn int(v: &Rat) -> Option<i128> {
    (v.denom() == 1).then(|| v.numer())
}

/// An exact datum as an integer of magnitude at most 2³¹ (see
/// [`MAX_ENTRY`]), `None` when it is fractional or larger.
fn small(v: &Rat) -> Option<i64> {
    (v.denom() == 1 && v.numer().unsigned_abs() <= MAX_ENTRY).then(|| v.numer() as i64)
}

/// `a·n` in `i128`, for an entry `a` from [`small`] and a numerator `n` of
/// a [`Scaled`]: one 64 × 64 → 128-bit multiplication, which cannot
/// overflow.
fn product(a: i64, n: i64) -> i128 {
    i128::from(a) * i128::from(n)
}

/// `v·by` for a `by` below 2⁶², `None` on an overflow: one 64 × 64-bit
/// multiplication when `v` fits in `i64` (the product then fits in `i128`).
fn scale(v: i128, by: i64) -> Option<i128> {
    match i64::try_from(v) {
        Ok(v) => Some(product(v, by)),
        Err(_) => v.checked_mul(by.into()),
    }
}

/// A vector of rationals over one common denominator: entry `i` is
/// `num[i] / den`, with `0 < den ≤ 2⁴⁰` and `|num[i]| ≤ 2⁶²`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Scaled {
    num: Vec<i64>,
    den: i64,
}

impl Scaled {
    /// Rationalizes `v` (step 1 of the module docs); `None` when an entry
    /// has no convergent within the tolerance and the denominator bound,
    /// the common denominator passes 2⁴⁰, or a scaled numerator passes
    /// 2⁶².
    fn rationalize(v: &[f64]) -> Option<Scaled> {
        let mut fracs = Vec::with_capacity(v.len());
        let mut den: i64 = 1;
        for &x in v {
            let (n, d) = convergent(x)?;
            if d != 1 && den % d != 0 {
                den = (den / gcd(den, d)).checked_mul(d)?;
                if den > MAX_COMMON_DEN {
                    return None;
                }
            }
            fracs.push((n, d));
        }
        let num = fracs
            .iter()
            .map(|&(n, d)| {
                let scaled = if d == den { n } else { n.checked_mul(den / d)? };
                (scaled.abs() <= MAX_NUM).then_some(scaled)
            })
            .collect::<Option<_>>()?;
        Some(Scaled { num, den })
    }

    /// The entries as normalized rationals.
    pub(crate) fn rats(&self) -> Vec<Rat> {
        let den = i128::from(self.den);
        self.num.iter().map(|&n| Rat::new(n.into(), den)).collect()
    }
}

/// The first continued-fraction convergent `n/d` of `v` within
/// `1e-9·max(1, |v|)`, if one has `d ≤ 2²⁴` and `|n|` fits in `i64`
/// (a larger numerator could not be scaled below 2⁶² anyway).
fn convergent(v: f64) -> Option<(i64, i64)> {
    let a = v.abs();
    if a.is_nan() || a > MAX_NUM as f64 {
        return None;
    }
    let tol = REL_TOL * a.max(1.0);
    // Convergents h/k from the recurrences h_i = t_i·h_{i−1} + h_{i−2}
    // and k_i = t_i·k_{i−1} + k_{i−2}, seeded with h_{−1}/k_{−1} = 1/0.
    let (mut h0, mut h1, mut k0, mut k1) = (0i64, 1i64, 1i64, 0i64);
    let mut rest = a;
    loop {
        let whole = rest.floor();
        let t = whole as i64;
        let h = t.checked_mul(h1)?.checked_add(h0)?;
        let k = t.checked_mul(k1)?.checked_add(k0)?;
        if k > MAX_DEN {
            return None;
        }
        if (a - h as f64 / k as f64).abs() <= tol {
            return Some((if v < 0.0 { -h } else { h }, k));
        }
        let frac = rest - whole;
        if frac <= 0.0 {
            return None;
        }
        rest = 1.0 / frac;
        (h0, h1, k0, k1) = (h1, h, k1, k);
    }
}

/// `gcd(a, b)` of two positive denominators.
fn gcd(mut a: i64, mut b: i64) -> i64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The residue of an entry from [`small`] modulo [`P`].
fn residue(a: i64) -> u64 {
    a.rem_euclid(P as i64) as u64
}

/// The float pass's basic values and multipliers, proven to solve their
/// systems exactly (steps 1 and 2 of the module docs), with `B̄` modulo
/// [`P`] kept for the rank check (step 3).
pub(crate) struct Candidate {
    /// `x_B`, parallel to the basis.
    pub(crate) xb: Scaled,
    /// `y`, one entry per row.
    pub(crate) y: Scaled,
    /// `B̄` modulo `P` as compressed sparse columns: column `c` is
    /// `entries[start[c]..start[c + 1]]`, each `(row, residue)` with a
    /// nonzero residue.
    start: Vec<usize>,
    entries: Vec<(usize, u64)>,
}

impl Candidate {
    /// Rationalizes `xb` and `y` and checks their residuals against the
    /// basis `basis` of `sf`: each basic key's column augmented by its
    /// `glued` dependents, and `fixed` the nonbasic columns resting at
    /// nonzero values. `None` sends the solve to the LU.
    pub(crate) fn new(
        sf: &StandardForm<Rat>,
        basis: &[usize],
        glued: &[Vec<usize>],
        fixed: &[(usize, Rat)],
        xb: &[f64],
        y: &[f64],
    ) -> Option<Candidate> {
        let m = sf.m;
        if basis.len() != m || xb.len() != m || y.len() != m {
            return None;
        }
        let xs = Scaled::rationalize(xb)?;
        let ys = Scaled::rationalize(y)?;
        // b', the right-hand side less the fixed columns.
        let mut rhs = sf.b.iter().map(int).collect::<Option<Vec<i128>>>()?;
        for (j, val) in fixed {
            let val = int(val)?;
            for (i, a) in &sf.cols[*j] {
                rhs[*i] = rhs[*i].checked_sub(scale(val, small(a)?)?)?;
            }
        }
        // One pass over the augmented columns: B̄·n_x into `got`, each
        // column's B̄ᵀ·n_y against d_y·c̄, and the column modulo P, summed
        // per row in `acc` (`UNSEEN` outside the rows listed in `touched`)
        // since a key and its glued dependents share rows. Entries and
        // costs are at most 2³¹ (`small`), so none of these sums overflows.
        const UNSEEN: u64 = u64::MAX;
        let mut got = vec![0i128; m];
        let mut acc = vec![UNSEEN; m];
        let mut touched: Vec<usize> = Vec::new();
        let mut start = Vec::with_capacity(m + 1);
        let mut entries = Vec::new();
        start.push(0);
        for (at, &j) in basis.iter().enumerate() {
            let (mut dual, mut cost) = (0i128, 0i128);
            for &c in std::iter::once(&j).chain(&glued[j]) {
                cost += i128::from(small(&sf.cost[c])?);
                for (i, a) in &sf.cols[c] {
                    let a = small(a)?;
                    got[*i] += product(a, xs.num[at]);
                    dual += product(a, ys.num[*i]);
                    if acc[*i] == UNSEEN {
                        acc[*i] = 0;
                        touched.push(*i);
                    }
                    acc[*i] = (acc[*i] + residue(a)) % P;
                }
            }
            if dual != cost * i128::from(ys.den) {
                return None;
            }
            for i in touched.drain(..) {
                match std::mem::replace(&mut acc[i], UNSEEN) {
                    0 => {}
                    r => entries.push((i, r)),
                }
            }
            start.push(entries.len());
        }
        for (got, rhs) in got.iter().zip(rhs) {
            if *got != scale(rhs, xs.den)? {
                return None;
            }
        }
        Some(Candidate {
            xb: xs,
            y: ys,
            start,
            entries,
        })
    }

    /// Whether `B̄` is provably nonsingular modulo [`P`], and so over ℚ
    /// (step 3 of the module docs). `false` is not a verdict: the matrix
    /// may be singular modulo `P` only, or its nucleus too large.
    pub(crate) fn full_rank(&self) -> bool {
        let m = self.start.len() - 1;
        let col = |c: usize| &self.entries[self.start[c]..self.start[c + 1]];
        // The transpose: the columns with an entry in each row.
        let mut row_start = vec![0usize; m + 1];
        for &(i, _) in &self.entries {
            row_start[i + 1] += 1;
        }
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut fill = row_start.clone();
        let mut row_cols = vec![0usize; self.entries.len()];
        for c in 0..m {
            for &(i, _) in col(c) {
                row_cols[fill[i]] = c;
                fill[i] += 1;
            }
        }
        let row = |i: usize| &row_cols[row_start[i]..row_start[i + 1]];
        // Peel singletons: a column (row) with one live entry pivots on it,
        // which removes its row (column) from every other count.
        let mut col_live: Vec<usize> = (0..m).map(|c| col(c).len()).collect();
        let mut row_live: Vec<usize> = (0..m).map(|i| row(i).len()).collect();
        if col_live.contains(&0) || row_live.contains(&0) {
            return false;
        }
        let mut col_gone = vec![false; m];
        let mut row_gone = vec![false; m];
        let mut stack: Vec<Single> = (0..m)
            .filter(|&c| col_live[c] == 1)
            .map(Single::Col)
            .chain((0..m).filter(|&i| row_live[i] == 1).map(Single::Row))
            .collect();
        let mut left = m;
        while let Some(single) = stack.pop() {
            match single {
                Single::Col(c) => {
                    if col_gone[c] {
                        continue;
                    }
                    let (i, _) = *col(c)
                        .iter()
                        .find(|&&(i, _)| !row_gone[i])
                        .expect("a live column has a live entry");
                    (col_gone[c], row_gone[i]) = (true, true);
                    for &c2 in row(i) {
                        if !col_gone[c2] {
                            col_live[c2] -= 1;
                            match col_live[c2] {
                                0 => return false,
                                1 => stack.push(Single::Col(c2)),
                                _ => {}
                            }
                        }
                    }
                }
                Single::Row(i) => {
                    if row_gone[i] {
                        continue;
                    }
                    let c = *row(i)
                        .iter()
                        .find(|&&c| !col_gone[c])
                        .expect("a live row has a live entry");
                    (col_gone[c], row_gone[i]) = (true, true);
                    for &(i2, _) in col(c) {
                        if !row_gone[i2] {
                            row_live[i2] -= 1;
                            match row_live[i2] {
                                0 => return false,
                                1 => stack.push(Single::Row(i2)),
                                _ => {}
                            }
                        }
                    }
                }
            }
            left -= 1;
        }
        if left > MAX_NUCLEUS {
            return false;
        }
        // The nucleus, dense and row-major.
        let mut dense_row = vec![usize::MAX; m];
        for (k, i) in (0..m).filter(|&i| !row_gone[i]).enumerate() {
            dense_row[i] = k;
        }
        let mut a = vec![0u64; left * left];
        for (k, c) in (0..m).filter(|&c| !col_gone[c]).enumerate() {
            for &(i, v) in col(c) {
                if !row_gone[i] {
                    a[dense_row[i] * left + k] = v;
                }
            }
        }
        nucleus_nonsingular(&mut a, left)
    }
}

/// A singleton waiting to be peeled.
enum Single {
    Col(usize),
    Row(usize),
}

/// Whether the `n × n` row-major matrix `a` of residues is nonsingular
/// modulo [`P`]: Gaussian elimination whose row operations
/// `row_r ← piv·row_r − b·row_pivot` scale the determinant by the nonzero
/// pivot only, so no inverse is needed.
fn nucleus_nonsingular(a: &mut [u64], n: usize) -> bool {
    for k in 0..n {
        let Some(p) = (k..n).find(|&r| a[r * n + k] != 0) else {
            return false;
        };
        if p != k {
            for c in k..n {
                a.swap(p * n + c, k * n + c);
            }
        }
        let (upper, lower) = a.split_at_mut((k + 1) * n);
        let pivot_row = &upper[k * n..];
        let piv = pivot_row[k];
        for row in lower.chunks_exact_mut(n) {
            let b = row[k];
            if b == 0 {
                continue;
            }
            let nb = P - b;
            for (x, &y) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *x = (piv * *x + nb * y) % P;
            }
            row[k] = 0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convergents_recover_small_fractions() {
        assert_eq!(convergent(0.0), Some((0, 1)));
        assert_eq!(convergent(-0.0), Some((0, 1)));
        assert_eq!(convergent(3.0), Some((3, 1)));
        assert_eq!(convergent(2.999_999_999_99), Some((3, 1)));
        assert_eq!(convergent(1.0 / 3.0), Some((1, 3)));
        assert_eq!(convergent(-7.0 / 4.0), Some((-7, 4)));
        assert_eq!(convergent(1e-13), Some((0, 1)));
        // An irrational gets a nearby fraction, which a residual rejects.
        assert_eq!(convergent(std::f64::consts::PI), Some((103993, 33102)));
        // No convergent with a denominator of at most 2²⁴ is this close.
        assert_eq!(convergent(1.0 / 33_554_433.0), None);
        assert_eq!(convergent(f64::NAN), None);
        assert_eq!(convergent(1e30), None);
        assert_eq!(convergent(-(2f64.powi(62))), Some((-(1 << 62), 1)));
    }

    #[test]
    fn a_vector_goes_over_one_denominator() {
        let s = Scaled::rationalize(&[0.5, 1.0 / 3.0, 2.0, -0.25]).expect("small fractions");
        assert_eq!(s.den, 12);
        assert_eq!(s.num, [6, 4, 24, -3]);
        assert_eq!(
            s.rats(),
            [
                Rat::new(1, 2),
                Rat::new(1, 3),
                Rat::from_int(2),
                Rat::new(-1, 4)
            ]
        );
        // Three coprime denominators near 2¹⁵ pass 2⁴⁰ together.
        let wide = [1.0 / 32749.0, 1.0 / 32719.0, 1.0 / 32717.0];
        assert!(Scaled::rationalize(&wide[..2]).is_some());
        assert_eq!(Scaled::rationalize(&wide), None);
    }

    /// `full_rank` over the integer columns `cols` of an `m × m` matrix.
    fn full_rank(cols: &[&[(usize, i64)]]) -> bool {
        let mut start = vec![0];
        let mut entries = Vec::new();
        for col in cols {
            entries.extend(
                col.iter()
                    .map(|&(i, a)| (i, residue(a)))
                    .filter(|e| e.1 != 0),
            );
            start.push(entries.len());
        }
        Candidate {
            xb: Scaled {
                num: vec![],
                den: 1,
            },
            y: Scaled {
                num: vec![],
                den: 1,
            },
            start,
            entries,
        }
        .full_rank()
    }

    #[test]
    fn rank_check_peels_and_eliminates() {
        // Triangular: peeled entirely.
        assert!(full_rank(&[&[(0, 2), (1, 1)], &[(1, -3)]]));
        // A 3-cycle has no singleton: the dense nucleus decides.
        assert!(full_rank(&[
            &[(0, 1), (1, 1)],
            &[(1, 1), (2, 1)],
            &[(0, 1), (2, 1)],
        ]));
        // An even cycle is singular.
        assert!(!full_rank(&[
            &[(0, 1), (1, 1)],
            &[(1, 1), (2, 1)],
            &[(2, 1), (3, 1)],
            &[(0, 1), (3, 1)],
        ]));
        // Column 2 = column 0 + column 1.
        assert!(!full_rank(&[
            &[(0, 1), (1, 1)],
            &[(1, 1), (2, 1)],
            &[(0, 1), (1, 2), (2, 1)],
        ]));
        // Nonsingular over ℚ, singular modulo p: not a verdict.
        assert!(!full_rank(&[&[(0, P as i64)]]));
        assert!(!full_rank(&[
            &[(0, 1), (1, 1)],
            &[(0, 1), (1, 1 + P as i64)]
        ]));
    }

    #[test]
    fn a_nucleus_past_the_limit_goes_to_the_lu() {
        // An odd cycle (nonsingular, no singleton) of each size.
        let cycle = |n: usize| -> bool {
            let cols: Vec<Vec<(usize, i64)>> =
                (0..n).map(|c| vec![(c, 1), ((c + 1) % n, 1)]).collect();
            let cols: Vec<&[(usize, i64)]> = cols.iter().map(Vec::as_slice).collect();
            full_rank(&cols)
        };
        assert!(cycle(MAX_NUCLEUS - 1));
        assert!(!cycle(MAX_NUCLEUS + 1));
    }
}
