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
//!
//! # Storage
//!
//! The factors sit in flat per-step slabs: step `k`'s multipliers and its
//! row of `U` are contiguous runs of one slab each. A factorization runs
//! through an `LuWork`, which holds the active submatrix's columns in one
//! slab (a Schur update appends the updated column at its end), each row's
//! list of columns and the count buckets as links in two more. The
//! revised simplex keeps one `SparseLu` and one `LuWork` for a whole solve
//! and refactors in place (`SparseLu::refactor`), gathering the basis
//! columns straight into the workspace, so a refactorization allocates
//! nothing once the buffers have grown. [`SparseLu::factor`] is the
//! one-shot form over fresh buffers. Both pivot, eliminate and solve
//! exactly as a factor with a `Vec` per column, row, bucket and step did
//! (kept as the test oracle), bit for bit.

use crate::scalar::Scalar;

/// How many candidate columns the pivot search inspects per step.
const PIVOT_CANDIDATES: usize = 4;

/// Candidate pivots with `|value|` below this (in the lossy `f64` view) are
/// deferred in favour of denser but better-conditioned columns.
const TINY_PIVOT: f64 = 1e-8;

/// The end of a list in an [`LuWork`] link slab.
const NIL: usize = usize::MAX;

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
    /// Step `k`'s unit-lower-triangular multipliers are
    /// `lent[lstart[k]..lstart[k + 1]]`: `(original row, L[i,k])` over rows
    /// eliminated at a later step.
    lstart: Vec<usize>,
    lent: Vec<(usize, S)>,
    /// Step `k`'s upper-triangular row is `uent[ustart[k]..ustart[k + 1]]`:
    /// `(original column, U[k,j])` over columns eliminated at a later step
    /// (the pivot itself is `upiv`).
    ustart: Vec<usize>,
    uent: Vec<(usize, S)>,
    /// Original column → elimination step.
    colstep: Vec<usize>,
}

/// The working set of a factorization, kept between factorizations: load
/// a matrix column by column ([`LuWork::load`], then
/// [`LuWork::push_column`] per column) and eliminate it with
/// [`SparseLu::refactor`].
#[derive(Debug, Clone)]
pub(crate) struct LuWork<S> {
    m: usize,
    /// The active submatrix: column `j` is `entries[at[j]..at[j] +
    /// len[j]]`, sorted by row, without zeros. A Schur update appends the
    /// updated column at the slab's end; the run it replaces stays behind
    /// until the next load.
    at: Vec<usize>,
    len: Vec<usize>,
    entries: Vec<(usize, S)>,
    /// Columns not yet eliminated.
    alive: Vec<bool>,
    /// Per row, the columns with an entry in it, in insertion order (an
    /// entry may be stale): a list of `(column, next)` links from
    /// `row_first` to `row_last`.
    row_first: Vec<usize>,
    row_last: Vec<usize>,
    row_links: Vec<(usize, usize)>,
    /// The bucket queue over column counts: per count a stack of
    /// `(column, next)` links from `bucket_top` (lazy deletion: a popped
    /// column is revalidated against its current count).
    bucket_top: Vec<usize>,
    bucket_links: Vec<(usize, usize)>,
}

impl<S: Scalar> LuWork<S> {
    /// An empty workspace with room for `m × m` matrices whose
    /// elimination makes up to `room` entries in each slab.
    pub(crate) fn with_capacity(m: usize, room: usize) -> LuWork<S> {
        LuWork {
            m: 0,
            at: Vec::with_capacity(m),
            len: Vec::with_capacity(m),
            entries: Vec::with_capacity(room),
            alive: Vec::with_capacity(m),
            row_first: Vec::with_capacity(m),
            row_last: Vec::with_capacity(m),
            row_links: Vec::with_capacity(room),
            bucket_top: Vec::with_capacity(m + 1),
            bucket_links: Vec::with_capacity(room),
        }
    }

    /// Starts loading an `m × m` matrix; every buffer keeps its capacity.
    pub(crate) fn load(&mut self, m: usize) {
        self.m = m;
        self.at.clear();
        self.len.clear();
        self.entries.clear();
    }

    /// Appends the next column: the sum of `parts`, each with distinct
    /// rows. Their entries are laid end to end, sorted by row and each
    /// row's run summed in that order, as
    /// [`crate::bounds::augmented_column`] sums a key column; then zeros
    /// are dropped.
    pub(crate) fn push_column<'c>(&mut self, parts: impl IntoIterator<Item = &'c [(usize, S)]>)
    where
        S: 'c,
    {
        let from = self.entries.len();
        for part in parts {
            self.entries.extend_from_slice(part);
        }
        let col = &mut self.entries[from..];
        col.sort_unstable_by_key(|e| e.0);
        let mut rows = 0;
        for k in 0..col.len() {
            if rows > 0 && col[rows - 1].0 == col[k].0 {
                col[rows - 1].1 = col[rows - 1].1.add(&col[k].1);
            } else {
                col[rows] = col[k].clone();
                rows += 1;
            }
        }
        let mut kept = 0;
        for k in 0..rows {
            if !col[k].1.is_zero_s() {
                col.swap(kept, k);
                kept += 1;
            }
        }
        self.entries.truncate(from + kept);
        self.at.push(from);
        self.len.push(kept);
    }

    /// Column `j` of the active submatrix.
    fn col(&self, j: usize) -> &[(usize, S)] {
        &self.entries[self.at[j]..self.at[j] + self.len[j]]
    }

    /// Appends column `j` to row `i`'s list.
    fn push_row(&mut self, i: usize, j: usize) {
        let link = self.row_links.len();
        self.row_links.push((j, NIL));
        match self.row_last[i] {
            NIL => self.row_first[i] = link,
            last => self.row_links[last].1 = link,
        }
        self.row_last[i] = link;
    }

    /// Pushes column `j` onto the bucket of count `count`.
    fn push_bucket(&mut self, count: usize, j: usize) {
        self.bucket_links.push((j, self.bucket_top[count]));
        self.bucket_top[count] = self.bucket_links.len() - 1;
    }

    /// Pops the last column pushed onto the bucket of count `count`.
    fn pop_bucket(&mut self, count: usize) -> Option<usize> {
        let (j, next) = *self.bucket_links.get(self.bucket_top[count])?;
        self.bucket_top[count] = next;
        Some(j)
    }

    /// Lists the loaded columns by row and by count, all alive.
    fn index(&mut self) {
        let m = self.m;
        assert_eq!(self.at.len(), m, "basis must be square");
        self.alive.clear();
        self.alive.resize(m, true);
        self.row_first.clear();
        self.row_first.resize(m, NIL);
        self.row_last.clear();
        self.row_last.resize(m, NIL);
        self.row_links.clear();
        for j in 0..m {
            for k in self.at[j]..self.at[j] + self.len[j] {
                self.push_row(self.entries[k].0, j);
            }
        }
        self.bucket_top.clear();
        self.bucket_top.resize(m + 1, NIL);
        self.bucket_links.clear();
        for j in 0..m {
            self.push_bucket(self.len[j], j);
        }
    }
}

impl<S: Scalar> SparseLu<S> {
    /// An empty factorization for [`SparseLu::refactor`] to fill, with
    /// room for `m` steps and `room` entries in each of L and U.
    pub(crate) fn with_capacity(m: usize, room: usize) -> SparseLu<S> {
        SparseLu {
            m: 0,
            steprow: Vec::with_capacity(m),
            stepcol: Vec::with_capacity(m),
            upiv: Vec::with_capacity(m),
            lstart: Vec::with_capacity(m + 1),
            lent: Vec::with_capacity(room),
            ustart: Vec::with_capacity(m + 1),
            uent: Vec::with_capacity(room),
            colstep: Vec::with_capacity(m),
        }
    }

    /// Factorizes the `m × m` matrix whose `j`-th column holds the sparse
    /// entries `(row, value)` of `cols[j]`. Returns `None` if the matrix is
    /// (numerically) singular.
    pub fn factor(m: usize, cols: &[Vec<(usize, S)>]) -> Option<SparseLu<S>> {
        assert_eq!(cols.len(), m, "basis must be square");
        let room = cols.iter().map(Vec::len).sum::<usize>() + 2 * m;
        let mut work = LuWork::with_capacity(m, room);
        work.load(m);
        for col in cols {
            work.push_column([col.as_slice()]);
        }
        let mut lu = SparseLu::with_capacity(m, room);
        lu.refactor(&mut work).then_some(lu)
    }

    /// Factorizes the matrix loaded into `work` in place of this
    /// factorization, reusing every buffer of both. Returns `false` if the
    /// matrix is (numerically) singular; this factorization is then
    /// unusable until the next refactorization succeeds.
    pub(crate) fn refactor(&mut self, work: &mut LuWork<S>) -> bool {
        work.index();
        let m = work.m;
        self.m = m;
        self.steprow.clear();
        self.stepcol.clear();
        self.upiv.clear();
        self.lstart.clear();
        self.lstart.push(0);
        self.lent.clear();
        self.ustart.clear();
        self.ustart.push(0);
        self.uent.clear();
        self.colstep.clear();
        self.colstep.resize(m, usize::MAX);
        for _step in 0..m {
            // --- pivot selection -----------------------------------------
            let mut cands = [(0usize, 0usize); PIVOT_CANDIDATES]; // (col, count)
            let mut found = 0;
            'gather: for count in 1..=m {
                while let Some(j) = work.pop_bucket(count) {
                    if !work.alive[j] || work.len[j] != count {
                        if work.alive[j] && work.len[j] != 0 {
                            work.push_bucket(work.len[j], j);
                        }
                        continue;
                    }
                    cands[found] = (j, count);
                    found += 1;
                    if found >= PIVOT_CANDIDATES {
                        break 'gather;
                    }
                }
            }
            // Restore candidates so future steps can still find them.
            for &(j, count) in &cands[..found] {
                work.push_bucket(count, j);
            }
            // Among the sparsest candidates prefer the largest pivot; defer
            // tiny pivots to denser candidates when possible.
            let mut choice: Option<(usize, usize, f64)> = None; // (col, row, |v|)
            for &(j, _) in &cands[..found] {
                let (mut best_row, mut best_abs) = (usize::MAX, -1.0f64);
                for (i, v) in work.col(j) {
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
            let Some((pc, pr, _)) = choice else {
                return false; // no eligible column: singular
            };
            let pivot = work.at[pc]..work.at[pc] + work.len[pc];
            let pivval = work.entries[pivot.clone()]
                .iter()
                .find(|(i, _)| *i == pr)
                .map(|(_, v)| v.clone())
                .expect("pivot entry present");
            if pivval.is_zero_s() {
                return false;
            }
            // L multipliers: the pivot column below/above the pivot row.
            for (i, v) in &work.entries[pivot.clone()] {
                if *i != pr {
                    self.lent.push((*i, v.div(&pivval)));
                }
            }
            self.lstart.push(self.lent.len());
            // U row + Schur update of every alive column with an entry in
            // the pivot row.
            work.row_last[pr] = NIL;
            let mut link = std::mem::replace(&mut work.row_first[pr], NIL);
            while link != NIL {
                let (c2, next) = work.row_links[link];
                link = next;
                if c2 == pc || !work.alive[c2] {
                    continue;
                }
                let old = work.at[c2]..work.at[c2] + work.len[c2];
                let Ok(off) = work.entries[old.clone()].binary_search_by_key(&pr, |e| e.0) else {
                    continue; // stale adjacency entry
                };
                let a_rc = work.entries[old.start + off].1.clone();
                if a_rc.is_zero_s() {
                    work.entries[old.start + off..old.end].rotate_left(1);
                    work.len[c2] -= 1;
                    continue;
                }
                self.uent.push((c2, a_rc.clone()));
                let f = a_rc.div(&pivval);
                // Sparse merge onto the slab's end: column c2 − f · the
                // pivot column, dropping row pr.
                let merged = work.entries.len();
                let (mut ai, mut bi) = (old.start, pivot.start);
                while ai < old.end || bi < pivot.end {
                    // Skip the pivot-row entries on both sides.
                    if ai < old.end && work.entries[ai].0 == pr {
                        ai += 1;
                        continue;
                    }
                    if bi < pivot.end && work.entries[bi].0 == pr {
                        bi += 1;
                        continue;
                    }
                    let arow = if ai < old.end {
                        work.entries[ai].0
                    } else {
                        usize::MAX
                    };
                    let brow = if bi < pivot.end {
                        work.entries[bi].0
                    } else {
                        usize::MAX
                    };
                    match arow.cmp(&brow) {
                        std::cmp::Ordering::Less => {
                            let e = work.entries[ai].clone();
                            work.entries.push(e);
                            ai += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            let v = f.mul(&work.entries[bi].1).neg();
                            if !v.is_zero_s() {
                                work.push_row(brow, c2); // fill-in
                                work.entries.push((brow, v));
                            }
                            bi += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            let v = work.entries[ai].1.sub(&f.mul(&work.entries[bi].1));
                            if !v.is_zero_s() {
                                work.entries.push((arow, v));
                            }
                            ai += 1;
                            bi += 1;
                        }
                    }
                }
                work.at[c2] = merged;
                work.len[c2] = work.entries.len() - merged;
                work.push_bucket(work.len[c2].min(m), c2);
            }
            self.ustart.push(self.uent.len());
            work.alive[pc] = false;
            self.colstep[pc] = self.steprow.len();
            self.steprow.push(pr);
            self.stepcol.push(pc);
            self.upiv.push(pivval);
        }
        true
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
        for (k, &row) in self.steprow.iter().enumerate() {
            let yk = y[row].clone();
            if !yk.is_zero_s() {
                for (i, l) in &self.lent[self.lstart[k]..self.lstart[k + 1]] {
                    y[*i] = y[*i].sub(&l.mul(&yk));
                }
            }
        }
        for k in (0..self.m).rev() {
            let mut acc = y[self.steprow[k]].clone();
            for (c, u) in &self.uent[self.ustart[k]..self.ustart[k + 1]] {
                let xs = &xstep[self.colstep[*c]];
                if !xs.is_zero_s() {
                    acc = acc.sub(&u.mul(xs));
                }
            }
            xstep[k] = acc.div(&self.upiv[k]);
        }
        for (xs, &col) in xstep.iter().zip(&self.stepcol) {
            x[col] = xs.clone();
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
                for (col, u) in &self.uent[self.ustart[k]..self.ustart[k + 1]] {
                    cacc[*col] = cacc[*col].sub(&u.mul(&wk));
                }
            }
            w[k] = wk;
        }
        for k in (0..self.m).rev() {
            let mut acc = w[k].clone();
            for (i, l) in &self.lent[self.lstart[k]..self.lstart[k + 1]] {
                let zi = &z[*i];
                if !zi.is_zero_s() {
                    acc = acc.sub(&l.mul(zi));
                }
            }
            z[self.steprow[k]] = acc;
        }
    }
}

#[cfg(test)]
mod oracle;

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
    /// A scalar's exact identity: an `f64`'s bits, a `Rat`'s terms.
    trait Exact: Scalar {
        fn key(&self) -> (i128, i128);
    }

    impl Exact for f64 {
        fn key(&self) -> (i128, i128) {
            (i128::from(self.to_bits()), 0)
        }
    }

    impl Exact for Rat {
        fn key(&self) -> (i128, i128) {
            (self.numer(), self.denom())
        }
    }

    fn keys<S: Exact>(v: &[S]) -> Vec<(i128, i128)> {
        v.iter().map(Exact::key).collect()
    }

    fn entry_keys<S: Exact>(v: &[(usize, S)]) -> Vec<(usize, (i128, i128))> {
        v.iter().map(|(i, x)| (*i, x.key())).collect()
    }

    /// Asserts that `lu` holds the replaced factor's pivots, multipliers
    /// and `U` rows, and that FTRAN and BTRAN give its bits on every unit
    /// vector and on a dense vector.
    fn assert_same<S: Exact>(lu: &SparseLu<S>, old: &oracle::SparseLu<S>, what: &str) {
        let m = old.m;
        assert_eq!(lu.m, m, "{what}");
        assert_eq!(
            (&lu.steprow, &lu.stepcol, &lu.colstep),
            (&old.steprow, &old.stepcol, &old.colstep),
            "{what}: pivots"
        );
        assert_eq!(keys(&lu.upiv), keys(&old.upiv), "{what}: pivot values");
        for k in 0..m {
            assert_eq!(
                entry_keys(&lu.lent[lu.lstart[k]..lu.lstart[k + 1]]),
                entry_keys(&old.lcols[k]),
                "{what}: L of step {k}"
            );
            assert_eq!(
                entry_keys(&lu.uent[lu.ustart[k]..lu.ustart[k + 1]]),
                entry_keys(&old.urows[k]),
                "{what}: U of step {k}"
            );
        }
        for k in 0..=m {
            let v: Vec<S> = (0..m)
                .map(|i| match k == m {
                    true => S::from_ratio(i as i64 + 1, 3),
                    false => S::from_i64(i64::from(i == k)),
                })
                .collect();
            assert_eq!(keys(&lu.solve(&v)), keys(&old.solve(&v)), "{what}: FTRAN");
            assert_eq!(
                keys(&lu.solve_transposed(&v)),
                keys(&old.solve_transposed(&v)),
                "{what}: BTRAN"
            );
        }
    }

    /// SplitMix64: the matrices below are drawn from one seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.below(from.len())].clone()
        }
    }

    /// An entry of a random sparse matrix: mostly ±1, then small integers
    /// and fractions, magnitudes around `TINY_PIVOT` (deferred pivots)
    /// and, in `f64`, around `F64_EPS` (dropped as zero at or below it).
    trait Palette: Exact {
        fn draw(d: &mut Draw) -> Self;
    }

    impl Palette for f64 {
        fn draw(d: &mut Draw) -> f64 {
            match d.below(10) {
                0..=4 => d.pick(&[1.0, -1.0]),
                5 => d.pick(&[2.0, -3.0, 4.0, -4.0, 0.5, 1.0 / 3.0, 1e6, -1e-3]),
                6 => d.pick(&[0.9e-8, 1e-8, -1e-8, 1.1e-8, 3e-8]),
                7 => d.pick(&[0.5e-9, 1e-9, -1e-9, 1.5e-9, -2e-9]),
                _ => d.pick(&[-1.0, 2.0, -2.0, 3.0]),
            }
        }
    }

    impl Palette for Rat {
        fn draw(d: &mut Draw) -> Rat {
            match d.below(40) {
                0..=19 => d.pick(&[Rat::ONE, Rat::from_int(-1)]),
                20..=38 => d.pick(&[r(2, 1), r(-3, 1), r(-4, 1), r(1, 2), r(-2, 3), r(5, 7)]),
                _ => d.pick(&[r(1, 100_000_000), r(-1, 200_000_000)]),
            }
        }
    }

    /// An `m × m` matrix: LP1-shaped (slack and artificial singletons,
    /// `x_{I,j}` columns of ±1 over a capacity and a demand row, key
    /// columns `−g` on their capacity row) or random (1–3 palette entries
    /// per column). One draw in four is made singular: an empty column, a
    /// repeated column, a sum of two columns, or a multiple of one.
    fn matrix<S: Palette>(d: &mut Draw, m: usize, lp1: bool) -> Vec<Vec<(usize, S)>> {
        let mut cols: Vec<Vec<(usize, S)>> = (0..m)
            .map(|_| {
                let mut col: Vec<(usize, S)> = Vec::new();
                let nnz = if lp1 {
                    d.pick(&[1, 1, 2, 2, 1])
                } else {
                    1 + d.below(3)
                };
                for _ in 0..nnz {
                    let row = d.below(m);
                    if col.iter().all(|e| e.0 != row) {
                        let v = if lp1 {
                            d.pick(&[S::one(), S::one().neg(), S::one(), S::from_i64(-4)])
                        } else {
                            S::draw(d)
                        };
                        col.push((row, v));
                    }
                }
                col
            })
            .collect();
        if m >= 2 && d.below(4) == 0 {
            let (i, j) = (d.below(m), d.below(m));
            let sum = |a: &[(usize, S)], b: &[(usize, S)]| {
                let mut out: Vec<(usize, S)> = a.to_vec();
                for (row, v) in b {
                    match out.iter_mut().find(|e| e.0 == *row) {
                        Some(e) => e.1 = e.1.add(v),
                        None => out.push((*row, v.clone())),
                    }
                }
                out
            };
            cols[j] = match d.below(4) {
                0 => Vec::new(),
                1 => cols[i].clone(),
                2 => sum(&cols[i], &cols[(i + 1) % m]),
                _ => cols[i]
                    .iter()
                    .map(|(row, v)| (*row, v.mul(&S::from_i64(3))))
                    .collect(),
            };
        }
        cols
    }

    /// Factors a sequence of matrices three ways: the replaced factor, a
    /// fresh [`SparseLu::factor`], and one `SparseLu` refactored in place
    /// through one workspace across the whole sequence.
    fn refactor_sequence<S: Palette>(seed: u64) -> (u32, u32) {
        let mut d = Draw(seed);
        let mut work = LuWork::with_capacity(0, 0);
        let mut lu = SparseLu::with_capacity(0, 0);
        let (mut factored, mut singular) = (0, 0);
        for step in 0..8 {
            let m = 1 + d.below(12);
            let lp1 = d.below(2) == 0;
            let cols: Vec<Vec<(usize, S)>> = matrix(&mut d, m, lp1);
            let what = format!("seed {seed}, matrix {step}: {cols:?}");
            let old = oracle::SparseLu::factor(m, &cols);
            let fresh = SparseLu::factor(m, &cols);
            work.load(m);
            for col in &cols {
                work.push_column([col.as_slice()]);
            }
            let in_place = lu.refactor(&mut work);
            assert_eq!(fresh.is_some(), old.is_some(), "{what}: verdict");
            assert_eq!(in_place, old.is_some(), "{what}: verdict in place");
            match (old, fresh) {
                (Some(old), Some(fresh)) => {
                    assert_same(&fresh, &old, &what);
                    assert_same(&lu, &old, &what);
                    factored += 1;
                }
                _ => singular += 1,
            }
        }
        (factored, singular)
    }

    /// Basis columns gathered as sums of a pool's columns, in place,
    /// against the replaced factor of [`crate::bounds::augmented_column`]'s
    /// columns: a key column with its glued dependents, as the revised
    /// simplex gathers it.
    fn gather_sequence<S: Palette>(seed: u64) {
        use crate::bounds::{augmented_column, Columns};
        let mut d = Draw(seed);
        let mut work = LuWork::with_capacity(0, 0);
        let mut lu = SparseLu::with_capacity(0, 0);
        for _ in 0..4 {
            let m = 1 + d.below(10);
            let lp1 = d.below(2) == 0;
            let pool: Vec<Vec<(usize, S)>> = matrix(&mut d, m, lp1)
                .into_iter()
                .chain(matrix(&mut d, m, true))
                .map(|mut col| {
                    col.sort_unstable_by_key(|e| e.0);
                    col
                })
                .collect();
            let mut start = vec![0];
            let mut entries = Vec::new();
            for col in &pool {
                entries.extend_from_slice(col);
                start.push(entries.len());
            }
            let slab = Columns { start, entries };
            let basis: Vec<(usize, Vec<usize>)> = (0..m)
                .map(|_| {
                    let glued = (0..d.below(4)).map(|_| d.below(pool.len())).collect();
                    (d.below(pool.len()), glued)
                })
                .collect();
            let cols: Vec<Vec<(usize, S)>> = basis
                .iter()
                .map(|(j, glued)| augmented_column(&slab, *j, glued))
                .collect();
            work.load(m);
            for (j, glued) in &basis {
                let summed = std::iter::once(j).chain(glued);
                work.push_column(summed.map(|&g| &slab[g]));
            }
            let in_place = lu.refactor(&mut work);
            let old = oracle::SparseLu::factor(m, &cols);
            assert_eq!(in_place, old.is_some(), "seed {seed}: {cols:?}");
            if let Some(old) = old {
                assert_same(&lu, &old, &format!("seed {seed}: {cols:?}"));
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(128))]
        #[test]
        fn refactors_like_the_replaced_factor(seed in 0u64..u64::MAX) {
            refactor_sequence::<f64>(seed);
            refactor_sequence::<Rat>(seed);
            gather_sequence::<f64>(seed);
            gather_sequence::<Rat>(seed);
        }
    }

    #[test]
    fn the_oracle_suite_draws_both_verdicts() {
        let (mut factored, mut singular) = (0, 0);
        for seed in 0..64 {
            for (f, s) in [
                refactor_sequence::<f64>(seed),
                refactor_sequence::<Rat>(seed),
            ] {
                factored += f;
                singular += s;
            }
        }
        assert!(
            factored > 100 && singular > 100,
            "{factored} factored, {singular} singular"
        );
    }
}
