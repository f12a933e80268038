//! The sparse LU as it was before it kept its factors in flat slabs and
//! refactored in place: L and U as a `Vec` per elimination step, and a
//! fresh working copy, row lists, buckets, candidate list and stash for
//! every factorization. Kept verbatim as the differential oracle of
//! [`super::SparseLu`]: the same pivots, the same factors and the same
//! FTRAN/BTRAN bits.

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
    pub(super) m: usize,
    /// Original row of the pivot chosen at each elimination step.
    pub(super) steprow: Vec<usize>,
    /// Original column of the pivot chosen at each elimination step.
    pub(super) stepcol: Vec<usize>,
    /// Pivot values `U[k,k]` per step.
    pub(super) upiv: Vec<S>,
    /// Unit-lower-triangular multipliers per step: `(original row, L[i,k])`
    /// over rows eliminated at a later step.
    pub(super) lcols: Vec<Vec<(usize, S)>>,
    /// Upper-triangular row per step: `(original column, U[k,j])` over
    /// columns eliminated at a later step (the pivot itself is `upiv`).
    pub(super) urows: Vec<Vec<(usize, S)>>,
    /// Original column → elimination step.
    pub(super) colstep: Vec<usize>,
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
    pub(crate) fn solve_into(&self, y: &mut [S], xstep: &mut [S], x: &mut [S]) {
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
    pub(crate) fn solve_transposed_into(&self, cacc: &mut [S], w: &mut [S], z: &mut [S]) {
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
}
