//! Sparse LU factorization of a basis matrix, generic over the scalar.
//!
//! The revised simplex needs two kinds of solves against the basis matrix
//! `B`: `B·x = v` (FTRAN — basic values, entering columns) and
//! `Bᵀ·y = c_B` (BTRAN — simplex multipliers). The paper's LPs give `B`
//! columns with at most 3 nonzeros (a structural `x_{I,j}` column touches
//! its variable-upper-bound row, one capacity row, and one demand row), so
//! a sparsity-guided elimination keeps the factors near-linear in the
//! nonzero count instead of the `O(m³)` a dense factorization would pay.
//!
//! The same code serves both worlds of the hybrid solver:
//!
//! * `SparseLu<f64>` inside the float-first bounded revised simplex
//!   (refactorized periodically, with product-form updates in between), and
//! * `SparseLu<Rat>` as the *fallback* of the exact verification of the
//!   terminal basis: the certifier first proves the float pass's own basic
//!   values and duals exact (`crate::reconstruct`) and factors in
//!   rationals only when it cannot — for the dense hybrid's proposals,
//!   fractional data, or a basis it cannot show nonsingular modulo its
//!   prime. The factorization is near-linear in `nnz(B)` on LP1 bases.
//!
//! # Pivoting
//!
//! Pivot columns are chosen by a Markowitz-style rule: a bucket queue keyed
//! by column nonzero count yields the sparsest eligible columns, and among
//! a small candidate set the pivot with the largest magnitude (via a lossy
//! `to_f64` — only the *choice* is approximate, never the arithmetic) wins.
//! For `f64` this doubles as threshold partial pivoting; for `Rat` any
//! exactly nonzero pivot is valid and the magnitude preference merely keeps
//! intermediate numerators small.

use crate::arena::SolveArena;
use crate::scalar::Scalar;

/// How many candidate columns the pivot search inspects per step.
const PIVOT_CANDIDATES: usize = 4;

/// Candidate pivots with `|value|` below this (in the lossy `f64` view) are
/// deferred in favour of denser but better-conditioned columns.
const TINY_PIVOT: f64 = 1e-8;

/// An LU factorization `B = L·U` (with implicit row/column permutations)
/// of a square sparse matrix, supporting solves against `B` and `Bᵀ`.
#[derive(Debug, Clone)]
pub struct SparseLu<S> {
    m: usize,
    /// Original row of the pivot chosen at each elimination step.
    steprow: Vec<usize>,
    /// Original column of the pivot chosen at each elimination step.
    stepcol: Vec<usize>,
    /// Pivot values `U[k,k]` per step.
    upiv: Vec<S>,
    /// Unit-lower-triangular multipliers per step: `(original row, L[i,k])`
    /// over rows eliminated at a later step.
    lcols: Vec<Vec<(usize, S)>>,
    /// Upper-triangular row per step: `(original column, U[k,j])` over
    /// columns eliminated at a later step (the pivot itself is `upiv`).
    urows: Vec<Vec<(usize, S)>>,
    /// Original column → elimination step.
    colstep: Vec<usize>,
}

impl<S: Scalar> SparseLu<S> {
    /// Factorizes the `m × m` matrix whose `j`-th column holds the sparse
    /// entries `(row, value)` of `cols[j]`. Returns `None` if the matrix is
    /// (numerically) singular.
    pub fn factor(m: usize, cols: &[Vec<(usize, S)>]) -> Option<SparseLu<S>> {
        assert_eq!(cols.len(), m, "basis must be square");
        // Working copy: sorted columns, exact-zero entries dropped.
        let mut acols: Vec<Vec<(usize, S)>> = cols
            .iter()
            .map(|c| {
                let mut v: Vec<(usize, S)> =
                    c.iter().filter(|e| !e.1.is_zero_s()).cloned().collect();
                v.sort_unstable_by_key(|e| e.0);
                v.windows(2).for_each(|w| {
                    debug_assert_ne!(w[0].0, w[1].0, "duplicate row entry in basis column")
                });
                v
            })
            .collect();
        let mut rows_of: Vec<Vec<usize>> = vec![Vec::new(); m];
        for (j, col) in acols.iter().enumerate() {
            for (i, _) in col {
                rows_of[*i].push(j);
            }
        }
        let mut row_alive = vec![true; m];
        let mut col_alive = vec![true; m];
        // Bucket queue over column nonzero counts (lazy deletion: entries
        // are revalidated against the current count when popped).
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); m + 1];
        for (j, col) in acols.iter().enumerate() {
            buckets[col.len()].push(j);
        }

        let mut lu = SparseLu {
            m,
            steprow: Vec::with_capacity(m),
            stepcol: Vec::with_capacity(m),
            upiv: Vec::with_capacity(m),
            lcols: Vec::with_capacity(m),
            urows: Vec::with_capacity(m),
            colstep: vec![usize::MAX; m],
        };

        for _step in 0..m {
            // --- pivot selection -----------------------------------------
            let mut cands: Vec<usize> = Vec::with_capacity(PIVOT_CANDIDATES);
            let mut stash: Vec<(usize, usize)> = Vec::new(); // (count, col) to restore
            'gather: for count in 1..=m {
                while let Some(j) = buckets[count].pop() {
                    if !col_alive[j] || acols[j].len() != count {
                        if col_alive[j] && !acols[j].is_empty() {
                            buckets[acols[j].len()].push(j);
                        }
                        continue;
                    }
                    cands.push(j);
                    stash.push((count, j));
                    if cands.len() >= PIVOT_CANDIDATES {
                        break 'gather;
                    }
                }
            }
            // Restore candidates so future steps can still find them.
            for (count, j) in stash {
                buckets[count].push(j);
            }
            // Among the sparsest candidates prefer the largest pivot; defer
            // tiny pivots to denser candidates when possible.
            let mut choice: Option<(usize, usize, f64)> = None; // (col, row, |v|)
            for &j in &cands {
                let (mut best_row, mut best_abs) = (usize::MAX, -1.0f64);
                for (i, v) in &acols[j] {
                    let a = v.to_f64().abs();
                    if a > best_abs {
                        best_abs = a;
                        best_row = *i;
                    }
                }
                debug_assert!(best_row != usize::MAX);
                let take = match &choice {
                    None => true,
                    Some((_, _, abs)) => *abs < TINY_PIVOT && best_abs > *abs,
                };
                if take {
                    choice = Some((j, best_row, best_abs));
                }
                if choice.map(|(_, _, a)| a >= TINY_PIVOT) == Some(true) {
                    break;
                }
            }
            let (pc, pr, _) = choice?; // no eligible column: singular
            let pivot_col = std::mem::take(&mut acols[pc]);
            let pivval = pivot_col
                .iter()
                .find(|(i, _)| *i == pr)
                .map(|(_, v)| v.clone())
                .expect("pivot entry present");
            if pivval.is_zero_s() {
                return None;
            }
            // L multipliers: the pivot column below/above the pivot row.
            let mut lcol: Vec<(usize, S)> = Vec::with_capacity(pivot_col.len() - 1);
            for (i, v) in &pivot_col {
                if *i != pr {
                    lcol.push((*i, v.div(&pivval)));
                }
            }
            // U row + Schur update of every alive column with an entry in
            // the pivot row.
            let touched = std::mem::take(&mut rows_of[pr]);
            let mut urow: Vec<(usize, S)> = Vec::new();
            for c2 in touched {
                if c2 == pc || !col_alive[c2] {
                    continue;
                }
                let Ok(pos) = acols[c2].binary_search_by_key(&pr, |e| e.0) else {
                    continue; // stale adjacency entry
                };
                let a_rc = acols[c2][pos].1.clone();
                if a_rc.is_zero_s() {
                    acols[c2].remove(pos);
                    continue;
                }
                urow.push((c2, a_rc.clone()));
                let f = a_rc.div(&pivval);
                // Sparse merge: acols[c2] ← acols[c2] − f · lcol·pivval
                // (i.e. subtract f times the pivot column, dropping row pr).
                let old = std::mem::take(&mut acols[c2]);
                let mut merged: Vec<(usize, S)> = Vec::with_capacity(old.len() + lcol.len());
                let (mut ai, mut bi) = (0usize, 0usize);
                while ai < old.len() || bi < pivot_col.len() {
                    // Skip the pivot-row entries on both sides.
                    if ai < old.len() && old[ai].0 == pr {
                        ai += 1;
                        continue;
                    }
                    if bi < pivot_col.len() && pivot_col[bi].0 == pr {
                        bi += 1;
                        continue;
                    }
                    let arow = old.get(ai).map(|e| e.0).unwrap_or(usize::MAX);
                    let brow = pivot_col.get(bi).map(|e| e.0).unwrap_or(usize::MAX);
                    match arow.cmp(&brow) {
                        std::cmp::Ordering::Less => {
                            merged.push(old[ai].clone());
                            ai += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            let v = f.mul(&pivot_col[bi].1).neg();
                            if !v.is_zero_s() {
                                rows_of[brow].push(c2); // fill-in
                                merged.push((brow, v));
                            }
                            bi += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let v = old[ai].1.sub(&f.mul(&pivot_col[bi].1));
                            if !v.is_zero_s() {
                                merged.push((arow, v));
                            }
                            ai += 1;
                            bi += 1;
                        }
                    }
                }
                acols[c2] = merged;
                buckets[acols[c2].len().min(m)].push(c2);
            }
            row_alive[pr] = false;
            col_alive[pc] = false;
            lu.colstep[pc] = lu.steprow.len();
            lu.steprow.push(pr);
            lu.stepcol.push(pc);
            lu.upiv.push(pivval);
            lu.lcols.push(lcol);
            lu.urows.push(urow);
        }
        Some(lu)
    }

    /// Solves `B·x = v`; `v` is indexed by original rows, the result by
    /// original columns.
    pub fn solve(&self, v: &[S]) -> Vec<S> {
        assert_eq!(v.len(), self.m);
        let mut y = v.to_vec();
        let mut xstep = vec![S::zero(); self.m];
        let mut x = vec![S::zero(); self.m];
        self.solve_into(&mut y, &mut xstep, &mut x);
        x
    }

    /// FTRAN core on caller-provided length-`m` buffers: `y` holds the
    /// right-hand side on entry and is destroyed; `xstep` is scratch; `x`
    /// receives the solution (every entry is overwritten).
    fn solve_into(&self, y: &mut [S], xstep: &mut [S], x: &mut [S]) {
        for k in 0..self.m {
            let yk = y[self.steprow[k]].clone();
            if !yk.is_zero_s() {
                for (i, l) in &self.lcols[k] {
                    y[*i] = y[*i].sub(&l.mul(&yk));
                }
            }
        }
        for k in (0..self.m).rev() {
            let mut acc = y[self.steprow[k]].clone();
            for (c, u) in &self.urows[k] {
                let xs = &xstep[self.colstep[*c]];
                if !xs.is_zero_s() {
                    acc = acc.sub(&u.mul(xs));
                }
            }
            xstep[k] = acc.div(&self.upiv[k]);
        }
        for k in 0..self.m {
            x[self.stepcol[k]] = xstep[k].clone();
        }
    }

    /// Solves `Bᵀ·y = c`; `c` is indexed by original columns, the result by
    /// original rows.
    pub fn solve_transposed(&self, c: &[S]) -> Vec<S> {
        assert_eq!(c.len(), self.m);
        let mut cacc = c.to_vec();
        let mut w = vec![S::zero(); self.m];
        let mut z = vec![S::zero(); self.m];
        self.solve_transposed_into(&mut cacc, &mut w, &mut z);
        z
    }

    /// BTRAN core on caller-provided length-`m` buffers: `cacc` holds the
    /// cost vector on entry and is destroyed; `w` is scratch; `z` receives
    /// the solution (every entry is overwritten).
    fn solve_transposed_into(&self, cacc: &mut [S], w: &mut [S], z: &mut [S]) {
        for k in 0..self.m {
            let wk = cacc[self.stepcol[k]].div(&self.upiv[k]);
            if !wk.is_zero_s() {
                for (col, u) in &self.urows[k] {
                    cacc[*col] = cacc[*col].sub(&u.mul(&wk));
                }
            }
            w[k] = wk;
        }
        for k in (0..self.m).rev() {
            let mut acc = w[k].clone();
            for (i, l) in &self.lcols[k] {
                let zi = &z[*i];
                if !zi.is_zero_s() {
                    acc = acc.sub(&l.mul(zi));
                }
            }
            z[self.steprow[k]] = acc;
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.m
    }
}

impl SparseLu<f64> {
    /// [`SparseLu::solve`] with every work vector drawn from (and the
    /// scratch returned to) `arena`. The returned solution is itself an
    /// arena buffer — give it back when done to keep the revised simplex's
    /// per-pivot FTRANs allocator-quiet.
    pub fn solve_pooled(&self, v: &[f64], arena: &mut SolveArena) -> Vec<f64> {
        assert_eq!(v.len(), self.m);
        let mut y = arena.take_f64(self.m, 0.0);
        y.copy_from_slice(v);
        let mut xstep = arena.take_f64(self.m, 0.0);
        let mut x = arena.take_f64(self.m, 0.0);
        self.solve_into(&mut y, &mut xstep, &mut x);
        arena.give_f64(y);
        arena.give_f64(xstep);
        x
    }

    /// [`SparseLu::solve_transposed`] with every work vector drawn from
    /// (and the scratch returned to) `arena`; the returned solution is an
    /// arena buffer.
    pub fn solve_transposed_pooled(&self, c: &[f64], arena: &mut SolveArena) -> Vec<f64> {
        assert_eq!(c.len(), self.m);
        let mut cacc = arena.take_f64(self.m, 0.0);
        cacc.copy_from_slice(c);
        let mut w = arena.take_f64(self.m, 0.0);
        let mut z = arena.take_f64(self.m, 0.0);
        self.solve_transposed_into(&mut cacc, &mut w, &mut z);
        arena.give_f64(cacc);
        arena.give_f64(w);
        z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rat;

    fn r(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    /// Dense multiply `B·x` from sparse columns.
    fn mul<S: Scalar>(m: usize, cols: &[Vec<(usize, S)>], x: &[S]) -> Vec<S> {
        let mut out = vec![S::zero(); m];
        for (j, col) in cols.iter().enumerate() {
            for (i, v) in col {
                out[*i] = out[*i].add(&v.mul(&x[j]));
            }
        }
        out
    }

    /// Dense multiply `Bᵀ·z`.
    fn mul_t<S: Scalar>(cols: &[Vec<(usize, S)>], z: &[S]) -> Vec<S> {
        cols.iter()
            .map(|col| {
                let mut acc = S::zero();
                for (i, v) in col {
                    acc = acc.add(&v.mul(&z[*i]));
                }
                acc
            })
            .collect()
    }

    #[test]
    fn exact_solve_roundtrips() {
        // A 4×4 with LP1-like column shapes (≤ 3 nonzeros each).
        let cols: Vec<Vec<(usize, Rat)>> = vec![
            vec![(0, r(1, 1)), (2, r(-1, 1))],
            vec![(0, r(2, 1)), (1, r(1, 1)), (3, r(1, 2))],
            vec![(1, r(3, 1)), (2, r(1, 1))],
            vec![(2, r(5, 1)), (3, r(-2, 3))],
        ];
        let lu = SparseLu::factor(4, &cols).expect("nonsingular");
        let x_true = vec![r(1, 2), r(-2, 1), r(3, 5), r(7, 1)];
        let v = mul(4, &cols, &x_true);
        assert_eq!(lu.solve(&v), x_true);
        let z_true = vec![r(4, 3), r(0, 1), r(-1, 7), r(2, 1)];
        let c = mul_t(&cols, &z_true);
        assert_eq!(lu.solve_transposed(&c), z_true);
    }

    #[test]
    fn singular_detected() {
        // Column 2 = column 0 + column 1.
        let cols: Vec<Vec<(usize, Rat)>> = vec![
            vec![(0, r(1, 1)), (1, r(1, 1))],
            vec![(1, r(1, 1)), (2, r(1, 1))],
            vec![(0, r(1, 1)), (1, r(2, 1)), (2, r(1, 1))],
        ];
        assert!(SparseLu::factor(3, &cols).is_none());
        // An empty column is singular too.
        let cols2: Vec<Vec<(usize, Rat)>> = vec![vec![(0, r(1, 1))], vec![]];
        assert!(SparseLu::factor(2, &cols2).is_none());
    }

    #[test]
    fn f64_solve_is_accurate() {
        let cols: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0), (3, -1.0)],
            vec![(0, 1.0), (1, 2.0)],
            vec![(1, 1.0), (2, 4.0), (3, 0.5)],
            vec![(2, -3.0), (3, 1.0)],
        ];
        let lu = SparseLu::factor(4, &cols).unwrap();
        let x_true = vec![2.0, -1.5, 0.25, 8.0];
        let v = mul(4, &cols, &x_true);
        for (a, b) in lu.solve(&v).iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        let z_true = vec![1.0, 0.0, -2.0, 3.5];
        let c = mul_t(&cols, &z_true);
        for (a, b) in lu.solve_transposed(&c).iter().zip(&z_true) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn random_exact_roundtrip() {
        // Pseudo-random sparse matrices; skip the singular draws.
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut solved = 0;
        for _ in 0..40 {
            let m = 3 + (next() % 6) as usize;
            let mut cols: Vec<Vec<(usize, Rat)>> = Vec::new();
            for _ in 0..m {
                let nnz = 1 + (next() % 3) as usize;
                let mut col = Vec::new();
                for _ in 0..nnz {
                    let row = (next() % m as u64) as usize;
                    if col.iter().any(|(r2, _)| *r2 == row) {
                        continue;
                    }
                    let val = (next() % 9) as i64 - 4;
                    if val != 0 {
                        col.push((row, Rat::from_int(val)));
                    }
                }
                cols.push(col);
            }
            let Some(lu) = SparseLu::factor(m, &cols) else {
                continue;
            };
            solved += 1;
            let x_true: Vec<Rat> = (0..m).map(|i| r(i as i64 + 1, 3)).collect();
            let v = mul(m, &cols, &x_true);
            assert_eq!(lu.solve(&v), x_true);
            let c = mul_t(&cols, &x_true);
            assert_eq!(lu.solve_transposed(&c), x_true);
        }
        assert!(solved >= 5, "too few nonsingular draws ({solved})");
    }
}
