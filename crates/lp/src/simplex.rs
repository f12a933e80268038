//! Simplex solvers: a dense two-phase primal simplex over a flat tableau,
//! a float-first **hybrid** mode for exact-rational problems, and the
//! bounded-variable **revised** hybrid that keeps variable bounds out of
//! the tableau and verifies its terminal basis exactly. All
//! three are reached through [`crate::api::solve_lp`]
//! ([`SolverBackend::DenseExact`](crate::SolverBackend::DenseExact),
//! [`DenseHybrid`](crate::SolverBackend::DenseHybrid) and
//! [`Revised`](crate::SolverBackend::Revised)); [`solve`] stays public as
//! the generic dense oracle.
//!
//! # Tableau layout
//!
//! The tableau is a single row-major arena `a: Vec<S>` of `rows` rows with
//! stride `cols + 1`; the last entry of every row is the RHS. Its columns
//! are exactly those of [`StandardForm::build`] — structural, then one
//! slack/surplus per inequality row, then the artificials, rows
//! sign-normalized — so a dense basis is meaningful to the exact
//! certifier without translation. Row `i` is
//! the slice `a[i*stride .. (i+1)*stride]`, walked with
//! [`chunks_exact`](slice::chunks_exact) — one allocation, pure index
//! arithmetic, linear scans. A pivot normalizes the pivot row in place,
//! snapshots it into a reused `scratch` buffer, and then streams every
//! other row once, skipping rows whose pivot-column entry is zero and,
//! within a row, scratch entries that are exactly zero (rational tableaus
//! of the paper's LPs are sparse, so both skips matter).
//!
//! # Solve modes
//!
//! * [`solve`] — the classic generic path: two-phase primal simplex in the
//!   scalar type `S` (exact [`Rat`] or tolerance-
//!   aware `f64`). Anti-cycling: Dantzig's rule with an automatic permanent
//!   switch to Bland's rule after a run of degenerate pivots.
//! * The dense hybrid (`DenseHybrid`) — for `LpProblem<Rat>`: solve the
//!   whole LP in `f64` first, then *re-verify the terminal basis exactly*.
//!   Exactness is only needed at the final vertex, not during the search,
//!   so this is typically an order of magnitude faster than pivoting in
//!   rationals.
//!
//! # Hybrid verification contract
//!
//! The dense hybrid returns **bit-identical status and objective** to the
//! pure-rational [`solve`] (`x`/`duals` may differ between alternate
//! optimal bases, but are always an exactly-optimal vertex and exactly
//! feasible duals). The steps:
//!
//! 1. Solve a lossless `f64` image of the LP (coefficients in the paper's
//!    LPs are tiny integers, exactly representable).
//! 2. If the float solve claims `Optimal`, hand its terminal basis to the
//!    revised engine's exact certifier as a bounded proposal whose
//!    nonbasic columns all rest at zero. The proposal carries no float
//!    values, so the certifier takes the exact LU path below. With no
//!    bounds and no VUBs in play, the per-resting-state certificate below
//!    reduces to the classic one: a nonsingular basis (factored with a
//!    [`SparseLu`] in exact rationals — the dense exact tableau is never
//!    re-pivoted), primal
//!    feasibility (`B·x_B = b` with all basic values ≥ 0), artificials out
//!    (every basic artificial at value 0), and dual feasibility (reduced
//!    costs of nonbasic non-artificial columns ≥ 0 against the duals from
//!    `Bᵀ·y = c_B`), checked by the one exact sweep described below.
//! 3. On any failure — or a float claim of `Infeasible`/`Unbounded`, which
//!    tolerance-based pivoting cannot certify — fall back to the pure
//!    exact simplex. The fallback is the correctness backstop; the float
//!    pass is only ever an accelerator.
//!
//! Because the certifier is shared, a dense certification passes the same
//! `slow_certify` failpoint and opens the same `solve.certify` span as a
//! revised one.
//!
//! Two phases: artificials for `≥`/`=` rows; redundant rows are left
//! harmlessly basic at zero after phase 1 with their artificial columns
//! barred from re-entering.
//!
//! # Bounded-variable revised hybrid
//!
//! The `Revised` backend upgrades the hybrid scheme along both axes named
//! in the roadmap:
//!
//! * the `f64` search is the bounded **revised** simplex of
//!   [`crate::bounds`]: implicit `[0, u]` variable bounds (plain `x ≤ const`
//!   rows vanish from the model when callers use
//!   [`LpProblem::set_upper`]), Schrage-style **variable upper bounds**
//!   (`x ≤ y` rows vanish when callers use [`LpProblem::set_vub`] —
//!   dependents rest glued to their key and basic keys carry augmented
//!   key columns), nonbasic-at-upper states, bound flips, and a
//!   periodically refactorized sparse LU basis with product-form updates;
//!   and
//! * the exact pass needs the terminal basis's basic values and duals in
//!   rationals. It first takes the float pass's own: its basic values and
//!   the multipliers of its last pricing pass, rounded to small-denominator
//!   rationals and proven exact by integer residuals over the augmented
//!   basis and a rank check modulo a prime (`crate::reconstruct`), in
//!   work linear in `nnz(B)`. Only when that fails (fractional data, values
//!   it cannot prove, a basis singular modulo the prime or too dense) does
//!   it factor the terminal basis matrix with a [`SparseLu`] in exact
//!   rationals, the fallback, counted in [`SolveStats::certify_lu`]. A
//!   nonsingular basis gives each system exactly one solution, so both
//!   paths return the same values. It then certifies exact optimality
//!   **per resting state**. With the augmented
//!   key columns `Ā_k = A_k + Σ_{glued j} A_j` and costs
//!   `c̄_k = c_k + Σ_{glued j} c_j`: primal feasibility
//!   `B̄·x_B = b − Σ_{j at a fixed value} val_j·A_j` with `0 ≤ x_B ≤ u_B`
//!   and every basic dependent below its key's value, every basic
//!   artificial exactly 0, and duals `y` from `B̄ᵀ·y = c̄_B` whose reduced
//!   costs satisfy `d̄_j ≥ 0` at lower bounds, `d̄_j ≤ 0` at upper bounds
//!   (`d̄` augmented over glued dependents for keys), and `d_j ≤ 0` for
//!   every glued dependent (the VUB multiplier `λ_j = −d_j` must be
//!   nonnegative). Together with complementary slackness — automatic from
//!   the basis/glue structure — this certifies exact optimality.
//!
//! A certified revised answer has **bit-identical status and objective**
//! to the pure-rational [`solve`]. Unlike the dense hybrid, the revised
//! engine never falls back on its own: any float outcome it cannot
//! certify is a typed [`SolveFailure`], and the caller — the supervision
//! ladder in `abt-active` — picks the next backend. For problems with
//! implicit bounds or VUBs, the dense solvers materialize each as a
//! trailing `≤` row via
//! [`LpProblem::bounds_as_rows`]/[`LpProblem::vubs_as_rows`] and drop the
//! extra duals, so every backend accepts every problem. Note that with
//! implicit bounds strong duality reads
//! `b·y + Σ_{j at upper} u_j·d_j = c·x`: the row duals alone no longer
//! account for the bound constraints' contribution.
//!
//! # The reduced-cost sweep
//!
//! The sign conditions are checked in one pass over the VUB families —
//! each nonbasic column with the dependents glued to it, and each basic key
//! with its glued dependents — each rule stated once and evaluated exactly
//! in one of two ways. In integers: over the duals' common denominator
//! `d_y` (the float path's proven `n_y/d_y`, or the LU's rationals put over
//! one denominator), a reduced cost is `d_y·d_j = c_j·d_y − Σ_i
//! a_ij·n_{y,i}` in `i128`, which has the sign of `d_j`. In `Rat`: for a
//! family whose cost or entries are fractional or pass 2³¹, that reads a
//! dual whose scaled numerator passes 2⁶², or whose `i128` sum would
//! overflow. Both are exact, so the verdict does not depend on which ran;
//! [`SolveStats::interval_accepts`] and
//! [`SolveStats::interval_escalations`] count the certifications swept
//! wholly in integers and those where some family needed `Rat`. The
//! deadline is checked every 512 columns.

#![allow(clippy::needless_range_loop)] // index loops mirror the tableau math

use crate::api::{LpOptions, LpReport};
use crate::bounds::{solve_bounded_f64_with, BoundedBasis, BoundedStatus, StandardForm, VarState};
use crate::lu::SparseLu;
use crate::model::LpProblem;
use crate::rational::Rat;
use crate::reconstruct::{product, small, Candidate, Duals};
use crate::scalar::Scalar;
use abt_core::error::{BudgetKind, SolveFailure};
use abt_core::faultinject;
use std::cmp::Ordering;
use std::time::Instant;

/// Outcome of a solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
}

/// An LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution<S> {
    /// Solve outcome.
    pub status: LpStatus,
    /// Optimal objective value (meaningful only when `Optimal`).
    pub objective: S,
    /// Values of the original variables (meaningful only when `Optimal`).
    pub x: Vec<S>,
    /// Dual values, one per constraint, in the sign convention of
    /// `min c·x` duality: `y_i ≤ 0` for `≤` rows, `y_i ≥ 0` for `≥` rows,
    /// free for `=` rows; at optimality `b·y = c·x` (strong duality) and
    /// `Σ_i y_i a_ij ≤ c_j` for every variable (dual feasibility). Empty
    /// unless `Optimal`.
    pub duals: Vec<S>,
}

/// The counts of one solve, each written once where it happens: the
/// bounded float pass counts its pivots, flips and refactorizations here
/// ([`crate::bounds::BoundedBasis::stats`]), and the exact certifier adds
/// its clock and how the certificate was proven. All zero on paths that
/// do not track them, e.g. the dense hybrid's float pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Basis-changing pivots of the float pass.
    pub pivots: u64,
    /// The pivots of the float pass's phase 1 (a subset of `pivots`; 0
    /// for solves whose crash start was feasible).
    pub phase1_pivots: u64,
    /// Bound/VUB flips of the float pass (iterations without a basis
    /// change).
    pub bound_flips: u64,
    /// LU refactorizations of the float pass (each when its eta file
    /// grew too long or too dense).
    pub refactorizations: u64,
    /// Total wall time of the certification step, in nanoseconds.
    pub certify_nanos: u64,
    /// Certifications that proved every reduced-cost sign in integers (0
    /// or 1 per solve; summable across solves). The name predates the
    /// integer sweep: it counted the accepts of an interval tier.
    pub interval_accepts: u64,
    /// Certifications whose reduced-cost sweep evaluated some VUB family
    /// in `Rat` (fractional or large data, or an `i128` overflow; see the
    /// module docs), whatever its verdict. The name predates the integer
    /// sweep: it counted the escalations of an interval tier.
    pub interval_escalations: u64,
    /// Certifications whose basic values and multipliers came from the
    /// exact LU (0 or 1 per solve): the float pass offered none (the dense
    /// hybrid) or they could not be proven exact (see
    /// `crate::reconstruct`).
    pub certify_lu: u64,
}

/// Number of consecutive degenerate pivots tolerated before switching to
/// Bland's rule.
const DEGENERATE_SWITCH: usize = 64;

/// Hard iteration cap (simplex with Bland's rule terminates; this is a
/// safety net against implementation bugs, not a tuning knob).
fn iteration_cap(rows: usize, cols: usize) -> usize {
    10_000 + 64 * (rows + cols)
}

/// The flat row-major tableau (see the module docs for the layout).
struct Tableau<S> {
    /// `rows × stride` arena; within a row the last entry is the RHS.
    a: Vec<S>,
    /// Reduced-cost row, length `stride`; last entry is −(objective value).
    cost: Vec<S>,
    /// Basic column per row.
    basis: Vec<usize>,
    /// Columns barred from entering (artificials in phase 2).
    barred: Vec<bool>,
    rows: usize,
    /// Column count; the arena stride is `cols + 1`.
    cols: usize,
    /// Reused snapshot of the normalized pivot row.
    scratch: Vec<S>,
}

impl<S: Scalar> Tableau<S> {
    #[inline]
    fn stride(&self) -> usize {
        self.cols + 1
    }

    #[inline]
    fn at(&self, row: usize, col: usize) -> &S {
        &self.a[row * self.stride() + col]
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.stride();
        let zero = S::zero();
        let piv = self.a[row * stride + col].clone();
        debug_assert!(!piv.is_zero_s());
        // Normalize the pivot row and snapshot it.
        {
            let r = &mut self.a[row * stride..(row + 1) * stride];
            for v in r.iter_mut() {
                if *v != zero {
                    *v = v.div(&piv);
                }
            }
            r[col] = S::one();
            self.scratch.clear();
            self.scratch.extend_from_slice(r);
        }
        // Eliminate the pivot column from every other row in one linear
        // sweep over the arena.
        for (i, r) in self.a.chunks_exact_mut(stride).enumerate() {
            if i == row {
                continue;
            }
            let factor = r[col].clone();
            if factor.is_zero_s() {
                continue;
            }
            for (v, p) in r.iter_mut().zip(&self.scratch) {
                if *p != zero {
                    *v = v.sub(&factor.mul(p));
                }
            }
            r[col] = S::zero();
        }
        let factor = self.cost[col].clone();
        if !factor.is_zero_s() {
            for (v, p) in self.cost.iter_mut().zip(&self.scratch) {
                if *p != zero {
                    *v = v.sub(&factor.mul(p));
                }
            }
            self.cost[col] = S::zero();
        }
        self.basis[row] = col;
    }

    /// Runs the simplex loop on the current cost row. Returns `false` if
    /// unbounded.
    fn optimize(&mut self) -> bool {
        let mut bland = false;
        let mut degenerate_run = 0usize;
        let cap = iteration_cap(self.rows, self.cols);
        let stride = self.stride();
        for _ in 0..cap {
            // Entering column: negative reduced cost.
            let mut enter: Option<usize> = None;
            if bland {
                for j in 0..self.cols {
                    if !self.barred[j] && self.cost[j].is_neg() {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                let mut best: Option<(usize, S)> = None;
                for j in 0..self.cols {
                    if self.barred[j] || !self.cost[j].is_neg() {
                        continue;
                    }
                    match &best {
                        Some((_, b)) if self.cost[j].cmp_s(b) != std::cmp::Ordering::Less => {}
                        _ => best = Some((j, self.cost[j].clone())),
                    }
                }
                enter = best.map(|(j, _)| j);
            }
            let Some(col) = enter else { return true };
            // Leaving row: minimum ratio, Bland tie-break on basis index.
            let mut leave: Option<(usize, S)> = None;
            for (i, r) in self.a.chunks_exact(stride).enumerate() {
                if !r[col].is_pos() {
                    continue;
                }
                let ratio = r[self.cols].div(&r[col]);
                let better = match &leave {
                    None => true,
                    Some((li, lr)) => match ratio.cmp_s(lr) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Equal => self.basis[i] < self.basis[*li],
                        std::cmp::Ordering::Greater => false,
                    },
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
            let Some((row, ratio)) = leave else {
                return false;
            };
            if ratio.is_zero_s() {
                degenerate_run += 1;
                if degenerate_run >= DEGENERATE_SWITCH {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }
            self.pivot(row, col);
        }
        panic!("abt-lp: simplex iteration cap exceeded — please report this instance");
    }
}

/// A freshly built tableau plus the bookkeeping both solve paths need.
struct Built<S> {
    t: Tableau<S>,
    is_artificial: Vec<bool>,
    /// Per original row: (auxiliary column, its sign in the dual read-out,
    /// whether the row was flipped to normalize the RHS).
    row_aux: Vec<(usize, bool, bool)>,
    n_art: usize,
}

/// Builds the initial tableau by laying [`StandardForm::build`]'s sparse
/// columns — structural, then slack/surplus, then artificials, rows
/// sign-normalized — into the dense arena, with its slack/artificial
/// starting basis. No cost row yet. `lp` carries no implicit bounds or
/// VUBs (callers materialize them as rows first), so the standard form
/// has exactly one row per constraint.
fn build<S: Scalar>(lp: &LpProblem<S>) -> Built<S> {
    let sf = StandardForm::build(lp);
    debug_assert!(sf.upper.iter().all(Option::is_none) && sf.vub.iter().all(Option::is_none));
    let (m, cols) = (sf.m, sf.ncols);
    let stride = cols + 1;
    let mut a: Vec<S> = vec![S::zero(); m * stride];
    for (j, col) in sf.cols.iter().enumerate() {
        for (i, v) in col {
            a[i * stride + j] = v.clone();
        }
    }
    for (i, b) in sf.b.iter().enumerate() {
        a[i * stride + cols] = b.clone();
    }
    // Each row's dual is read off its first auxiliary column — the
    // slack/surplus when it has one, else its artificial — as
    // `y_i = −coef·r_aux` for the column's ±1 entry.
    let mut row_aux: Vec<Option<(usize, bool, bool)>> = vec![None; m];
    for j in sf.nstruct..cols {
        let (i, coef) = &sf.cols[j][0];
        row_aux[*i].get_or_insert((j, coef.is_pos(), sf.row_flip[*i]));
    }
    let t = Tableau {
        a,
        cost: vec![S::zero(); stride],
        basis: sf.init_basis,
        barred: vec![false; cols],
        rows: m,
        cols,
        scratch: Vec::with_capacity(stride),
    };
    Built {
        t,
        is_artificial: sf.artificial,
        row_aux: row_aux
            .into_iter()
            .map(|aux| aux.expect("every row has an auxiliary column"))
            .collect(),
        n_art: sf.n_art,
    }
}

/// Phase 1: minimize the sum of artificials. Returns `false` on
/// infeasibility. Afterwards artificials are driven out where possible and
/// barred from re-entering.
fn phase1<S: Scalar>(b: &mut Built<S>) -> bool {
    if b.n_art == 0 {
        return true;
    }
    let t = &mut b.t;
    let m = t.rows;
    let cols = t.cols;
    // Reduced costs: for column j, r_j = c1_j − Σ_{rows with artificial
    // basis} a_ij, where c1 is 1 on artificials. Artificial basis columns
    // start with r = 0.
    for j in 0..=cols {
        let mut r = if j < cols && b.is_artificial[j] {
            S::one()
        } else {
            S::zero()
        };
        for i in 0..m {
            if b.is_artificial[t.basis[i]] {
                r = r.sub(t.at(i, j));
            }
        }
        t.cost[j] = r;
    }
    let bounded = t.optimize();
    debug_assert!(bounded, "phase 1 cannot be unbounded");
    // Objective value is −cost[cols].
    if t.cost[cols].neg().is_pos() {
        return false;
    }
    // Drive artificials out of the basis where possible.
    for i in 0..m {
        if b.is_artificial[t.basis[i]] {
            if let Some(j) = (0..cols).find(|&j| !b.is_artificial[j] && !t.at(i, j).is_zero_s()) {
                t.pivot(i, j);
            }
            // Otherwise the row is redundant; its artificial stays basic
            // at value 0, and barring artificial columns keeps it there.
        }
    }
    for j in 0..cols {
        if b.is_artificial[j] {
            t.barred[j] = true;
        }
    }
    true
}

/// Installs the phase-2 reduced-cost row for the current basis:
/// `r_j = c_j − Σ_i c_{basis(i)} a_ij`.
fn set_phase2_costs<S: Scalar>(lp: &LpProblem<S>, b: &mut Built<S>) {
    let n = lp.num_vars();
    let t = &mut b.t;
    let real_cost = |j: usize| -> S {
        if j < n {
            lp.objective()[j].clone()
        } else {
            S::zero()
        }
    };
    for j in 0..=t.cols {
        let mut r = if j < t.cols { real_cost(j) } else { S::zero() };
        for i in 0..t.rows {
            let cb = real_cost(t.basis[i]);
            if !cb.is_zero_s() {
                r = r.sub(&cb.mul(t.at(i, j)));
            }
        }
        t.cost[j] = r;
    }
}

/// Reads the optimal solution out of a tableau whose cost row holds the
/// phase-2 reduced costs for its (optimal) basis.
fn extract<S: Scalar>(lp: &LpProblem<S>, b: &Built<S>) -> LpSolution<S> {
    let n = lp.num_vars();
    let t = &b.t;
    let mut x = vec![S::zero(); n];
    for i in 0..t.rows {
        if t.basis[i] < n {
            x[t.basis[i]] = t.at(i, t.cols).clone();
        }
    }
    // Duals from the reduced costs of each row's auxiliary column (the
    // classic y = c_B B⁻¹ read-out), undoing RHS-normalization flips.
    let duals = b
        .row_aux
        .iter()
        .map(|&(col, negate, flip)| {
            let mut y = if negate {
                t.cost[col].neg()
            } else {
                t.cost[col].clone()
            };
            if flip {
                y = y.neg();
            }
            y
        })
        .collect();
    let objective = lp.objective_value(&x);
    LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
        duals,
    }
}

fn failure<S: Scalar>(status: LpStatus) -> LpSolution<S> {
    LpSolution {
        status,
        objective: S::zero(),
        x: vec![],
        duals: vec![],
    }
}

/// Full two-phase solve returning the solution and the terminal basis
/// (one basic column per row; empty unless `Optimal`).
fn solve_internal<S: Scalar>(lp: &LpProblem<S>) -> (LpSolution<S>, Vec<usize>) {
    let mut b = build(lp);
    if !phase1(&mut b) {
        return (failure(LpStatus::Infeasible), vec![]);
    }
    set_phase2_costs(lp, &mut b);
    if !b.t.optimize() {
        return (failure(LpStatus::Unbounded), vec![]);
    }
    let basis = b.t.basis.clone();
    (extract(lp, &b), basis)
}

/// Solves `lp` to optimality (or detects infeasibility/unboundedness) in
/// the scalar type `S`. Implicit variable bounds and VUBs are materialized
/// as trailing rows internally; their duals are dropped.
pub fn solve<S: Scalar>(lp: &LpProblem<S>) -> LpSolution<S> {
    if lp.has_upper_bounds() || lp.has_vubs() {
        let rows = lp.vubs_as_rows().bounds_as_rows();
        let mut sol = solve_internal(&rows).0;
        sol.duals.truncate(lp.num_constraints());
        return sol;
    }
    solve_internal(lp).0
}

/// The lossless `f64` image of an exact-rational LP (bounds and VUBs
/// included).
pub(crate) fn to_f64(lp: &LpProblem<Rat>) -> LpProblem<f64> {
    let mut out: LpProblem<f64> = LpProblem::new();
    for c in lp.objective() {
        out.add_var(c.to_f64());
    }
    for v in 0..lp.num_vars() {
        if let Some(u) = lp.upper(v) {
            out.set_upper(v, u.to_f64());
        }
        if let Some(k) = lp.vub(v) {
            out.set_vub(v, k);
        }
    }
    for c in lp.constraints() {
        let terms = c.terms.iter().map(|&(v, ref a)| (v, a.to_f64())).collect();
        out.add_constraint(terms, c.cmp, c.rhs.to_f64());
    }
    out
}

/// Certifies `target` (a basis proposed by the dense float pass) through
/// the one exact certifier, [`verify_bounded`]: the dense layout is
/// [`StandardForm::build`]'s, so the proposal is the bounded one with
/// every nonbasic column `AtLower`. A column index outside the exact form
/// is refuted.
fn verify_basis(lp: &LpProblem<Rat>, target: &[usize], stats: &mut SolveStats) -> Certified {
    let sf = StandardForm::build(lp);
    let mut state = vec![VarState::AtLower; sf.ncols];
    for &c in target {
        match state.get_mut(c) {
            Some(s) => *s = VarState::Basic,
            None => return Certified::Refuted,
        }
    }
    let prop = BoundedBasis {
        status: BoundedStatus::Optimal,
        basis: target.to_vec(),
        state,
        stats: SolveStats::default(),
        xb: Vec::new(),
        y: Vec::new(),
    };
    verify_bounded(lp, &sf, &prop, None, stats)
}

/// The dense hybrid engine behind [`crate::api::solve_lp`]'s
/// `DenseHybrid` backend: runs the simplex in `f64`, re-verifies the
/// terminal basis in exact rationals, and falls back to the pure exact
/// simplex when verification fails (see the module docs for the
/// contract). Status and objective are always bit-identical to
/// [`solve`]`::<Rat>`.
pub(crate) fn dense_hybrid(lp: &LpProblem<Rat>) -> LpReport {
    if lp.has_upper_bounds() || lp.has_vubs() {
        // The dense hybrid works on the row encoding; recurse on the
        // materialized problem and drop the bound/VUB rows' duals.
        let rows = lp.vubs_as_rows().bounds_as_rows();
        let mut rep = dense_hybrid(&rows);
        rep.solution.duals.truncate(lp.num_constraints());
        return rep;
    }
    let (fsol, fbasis) = solve_internal(&to_f64(lp));
    if fsol.status == LpStatus::Optimal {
        let mut stats = SolveStats::default();
        if let Certified::Verified(solution) = verify_basis(lp, &fbasis, &mut stats) {
            return LpReport {
                solution,
                fallback: false,
                stats,
            };
        }
    }
    LpReport {
        solution: solve(lp),
        fallback: true,
        stats: SolveStats::default(),
    }
}

/// Tri-state outcome of the exact certifier ([`verify_bounded`]).
#[derive(Debug)]
pub(crate) enum Certified {
    /// Every exact check passed; the certified solution is attached.
    Verified(LpSolution<Rat>),
    /// Some exact check failed — the float proposal is singular, primal or
    /// dual infeasible, or keeps an artificial at a nonzero value. A
    /// verdict about the *proposal*, not the LP.
    Refuted,
    /// The certifier's wall-clock deadline passed before a verdict was
    /// reached. **Not** a verdict: the proposal may well be optimal.
    /// Callers must surface this as a budget trip, never silently treat
    /// it like a refutation.
    Deadline,
}

/// Verifies, in exact rationals, the terminal basis+state proposal of the
/// bounded `f64` revised simplex (see the module docs for the
/// per-resting-state certificate): from the proposal's own float values
/// when they can be proven exact, via a sparse LU of the basis matrix
/// otherwise.
///
/// The optional `deadline` bounds the certification work: it is checked
/// at entry and between the expensive stages (after the residual checks,
/// after the rank check or the LU factorization, after the basic values,
/// after the duals, and every 512 columns of the reduced-cost sweep), so
/// an adversarial instance whose rationals blow up cannot pin the
/// certifier past its budget by more than one stage.
///
/// It writes its own wall time, whether the exact LU ran and how the
/// reduced-cost sweep evaluated its families into `stats`
/// (`certify_nanos`, `certify_lu`, `interval_accepts`,
/// `interval_escalations`).
pub(crate) fn verify_bounded(
    lp: &LpProblem<Rat>,
    sf: &StandardForm<Rat>,
    prop: &BoundedBasis,
    deadline: Option<Instant>,
    stats: &mut SolveStats,
) -> Certified {
    let started = Instant::now();
    faultinject::hit("slow_certify");
    let mut span = abt_core::obs_span!("solve.certify");
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let certified = match verify_bounded_staged(lp, sf, prop, &expired, stats) {
        Ok(Some(solution)) => Certified::Verified(solution),
        Ok(None) => Certified::Refuted,
        Err(DeadlinePassed) => Certified::Deadline,
    };
    span.field(
        "outcome",
        match &certified {
            Certified::Verified(_) => "verified",
            Certified::Refuted => "refuted",
            Certified::Deadline => "deadline",
        },
    );
    span.field("interval_accepts", stats.interval_accepts);
    stats.certify_nanos = started.elapsed().as_nanos() as u64;
    certified
}

/// Error marker of [`verify_bounded_staged`]: the stage deadline passed.
struct DeadlinePassed;

fn verify_bounded_staged(
    lp: &LpProblem<Rat>,
    sf: &StandardForm<Rat>,
    prop: &BoundedBasis,
    expired: &dyn Fn() -> bool,
    stats: &mut SolveStats,
) -> Result<Option<LpSolution<Rat>>, DeadlinePassed> {
    if expired() {
        return Err(DeadlinePassed);
    }
    let m = sf.m;
    if prop.basis.len() != m || prop.state.len() != sf.ncols {
        return Ok(None);
    }
    // State consistency: exactly the basis columns are `Basic`, every
    // `AtUpper` column has a finite bound, every `AtVub` column a VUB.
    let mut basic_count = 0usize;
    for j in 0..sf.ncols {
        match prop.state[j] {
            VarState::Basic => basic_count += 1,
            VarState::AtUpper => {
                if sf.upper[j].is_none() {
                    return Ok(None);
                }
            }
            VarState::AtVub => {
                let Some(k) = sf.vub[j] else {
                    return Ok(None);
                };
                // Families are flat: a key never rests glued itself.
                if prop.state[k] == VarState::AtVub {
                    return Ok(None);
                }
            }
            VarState::AtLower => {}
        }
    }
    if basic_count != m {
        return Ok(None);
    }
    let mut pos = vec![usize::MAX; sf.ncols];
    for (i, &j) in prop.basis.iter().enumerate() {
        if j >= sf.ncols || prop.state[j] != VarState::Basic || pos[j] != usize::MAX {
            return Ok(None);
        }
        pos[j] = i;
    }
    // The resting value of a nonbasic key (AtLower/AtUpper by the flatness
    // check above).
    let key_rest = |k: usize| -> Rat {
        match prop.state[k] {
            VarState::AtLower => Rat::ZERO,
            VarState::AtUpper => *sf.upper[k].as_ref().expect("checked above"),
            VarState::Basic | VarState::AtVub => unreachable!("not a nonbasic key"),
        }
    };
    // Glued dependents per key (they ride inside the augmented column of a
    // basic key); dependents glued to nonbasic keys rest at fixed values,
    // like columns at their upper bounds.
    let mut glued: Vec<Vec<usize>> = vec![Vec::new(); sf.ncols];
    let mut fixed: Vec<(usize, Rat)> = Vec::new();
    for j in 0..sf.ncols {
        let val = match prop.state[j] {
            VarState::AtUpper => *sf.upper[j].as_ref().expect("checked above"),
            VarState::AtVub => {
                let k = sf.vub[j].expect("checked above");
                glued[k].push(j);
                if pos[k] != usize::MAX {
                    continue; // inside the augmented key column
                }
                key_rest(k)
            }
            VarState::Basic | VarState::AtLower => continue,
        };
        if !val.is_zero_s() {
            fixed.push((j, val));
        }
    }
    // The float pass's own basic values and multipliers, proven exact (see
    // `crate::reconstruct`); the exact LU factors the basis only when they
    // cannot be.
    let mut candidate = Candidate::new(sf, &prop.basis, &glued, &fixed, &prop.xb, &prop.y);
    if candidate.is_some() {
        if expired() {
            return Err(DeadlinePassed);
        }
        candidate = candidate.filter(Candidate::full_rank);
    }
    let source = match candidate {
        Some(proven) => Source::Float(proven),
        None => {
            stats.certify_lu = 1;
            let bcols: Vec<Vec<(usize, Rat)>> = prop
                .basis
                .iter()
                .map(|&j| crate::bounds::augmented_column(&sf.cols, j, &glued[j]))
                .collect();
            let Some(lu) = SparseLu::factor(m, &bcols) else {
                return Ok(None);
            };
            Source::Lu(lu)
        }
    };
    if expired() {
        return Err(DeadlinePassed);
    }
    // Exact basic values against the bound-adjusted right-hand side.
    let xb = match &source {
        Source::Float(proven) => proven.xb.rats(),
        Source::Lu(lu) => {
            let mut rhs = sf.b.clone();
            for (j, val) in &fixed {
                for (i, v) in &sf.cols[*j] {
                    rhs[*i] = rhs[*i].sub(&val.mul(v));
                }
            }
            lu.solve(&rhs)
        }
    };
    if expired() {
        return Err(DeadlinePassed);
    }
    // The exact value of any column under the proposal.
    let value_of = |j: usize| -> Rat {
        match prop.state[j] {
            VarState::Basic => xb[pos[j]],
            VarState::AtLower => Rat::ZERO,
            VarState::AtUpper => *sf.upper[j].as_ref().expect("checked above"),
            VarState::AtVub => {
                let k = sf.vub[j].expect("checked above");
                if pos[k] == usize::MAX {
                    key_rest(k)
                } else {
                    xb[pos[k]]
                }
            }
        }
    };
    for (i, &j) in prop.basis.iter().enumerate() {
        if xb[i].is_neg() {
            return Ok(None);
        }
        if let Some(u) = &sf.upper[j] {
            if xb[i].sub(u).is_pos() {
                return Ok(None);
            }
        }
        // A basic dependent must sit below its key's exact value.
        if let Some(k) = sf.vub[j] {
            if xb[i].sub(&value_of(k)).is_pos() {
                return Ok(None);
            }
        }
        if sf.artificial[j] && !xb[i].is_zero_s() {
            return Ok(None);
        }
    }
    // Glued values must be nonnegative (a key resting below zero is
    // impossible, but a defensive exact check is cheap).
    for j in 0..sf.ncols {
        if prop.state[j] == VarState::AtVub && value_of(j).is_neg() {
            return Ok(None);
        }
    }
    // Exact duals from the augmented system B̄ᵀ·y = c̄_B, and the same over
    // one common denominator for the sweep's integer evaluation.
    let (y, duals) = match &source {
        Source::Float(proven) => (proven.y.rats(), Some(proven.y.duals())),
        Source::Lu(lu) => {
            let cb: Vec<Rat> = prop
                .basis
                .iter()
                .map(|&j| {
                    let mut c = sf.cost[j];
                    for &g in &glued[j] {
                        c = c.add(&sf.cost[g]);
                    }
                    c
                })
                .collect();
            let y = lu.solve_transposed(&cb);
            let duals = Duals::of(&y);
            (y, duals)
        }
    };
    if expired() {
        return Err(DeadlinePassed);
    }
    if !dual_sweep(sf, &prop.state, &glued, &y, duals.as_ref(), expired, stats)? {
        return Ok(None);
    }
    // Certified optimal: extract structural values and row duals (promoted
    // bound rows of VUB dependents are internal — drop their duals).
    let n = lp.num_vars();
    let mut x = vec![Rat::ZERO; n];
    for (j, xj) in x.iter_mut().enumerate() {
        *xj = value_of(j);
    }
    let objective = lp.objective_value(&x);
    let mut duals: Vec<Rat> = y
        .iter()
        .zip(&sf.row_flip)
        .map(|(yi, flip)| if *flip { yi.neg() } else { *yi })
        .collect();
    duals.truncate(lp.num_constraints());
    Ok(Some(LpSolution {
        status: LpStatus::Optimal,
        objective,
        x,
        duals,
    }))
}

/// Where the certifier's exact basic values and multipliers come from.
enum Source {
    /// The float pass's own values, proven exact.
    Float(Candidate),
    /// The exact LU of the augmented basis (the fallback).
    Lu(SparseLu<Rat>),
}

/// A reduced-cost evaluator of [`dual_sweep`]: the value of `d_j = c_j −
/// Σ_i y_i·a_ij` for a column `j`, read only for its sign.
trait Reduced {
    /// A reduced cost, or a sum of them.
    type Value: Copy;
    /// `d_j`, or `None` when this evaluator cannot represent it.
    fn reduced(&self, j: usize) -> Option<Self::Value>;
    /// `a + b`, or `None` when this evaluator cannot represent it.
    fn sum(a: Self::Value, b: Self::Value) -> Option<Self::Value>;
    /// The sign of `v`.
    fn sign(v: Self::Value) -> Ordering;
}

/// Reduced costs in `i128`, scaled by the duals' common denominator:
/// `den·d_j = c_j·den − Σ_i a_ij·num_i`, which has the sign of `d_j`.
/// `None` for a column whose cost or entries fail [`small`], that reads a
/// dual past 2⁶², or whose sum overflows.
struct InIntegers<'a> {
    sf: &'a StandardForm<Rat>,
    duals: &'a Duals,
}

impl Reduced for InIntegers<'_> {
    type Value = i128;
    fn reduced(&self, j: usize) -> Option<i128> {
        let mut d = i128::from(small(&self.sf.cost[j])?).checked_mul(self.duals.den)?;
        for (i, a) in &self.sf.cols[j] {
            d = d.checked_sub(product(small(a)?, self.duals.num[*i]?))?;
        }
        Some(d)
    }
    fn sum(a: i128, b: i128) -> Option<i128> {
        a.checked_add(b)
    }
    fn sign(v: i128) -> Ordering {
        v.cmp(&0)
    }
}

/// Reduced costs in exact rationals: every column, at `Rat`'s price.
struct InRat<'a> {
    sf: &'a StandardForm<Rat>,
    y: &'a [Rat],
}

impl Reduced for InRat<'_> {
    type Value = Rat;
    fn reduced(&self, j: usize) -> Option<Rat> {
        let mut d = self.sf.cost[j];
        for (i, v) in &self.sf.cols[j] {
            d = d.sub(&self.y[*i].mul(v));
        }
        Some(d)
    }
    fn sum(a: Rat, b: Rat) -> Option<Rat> {
        Some(a.add(&b))
    }
    fn sign(v: Rat) -> Ordering {
        v.signum().cmp(&0)
    }
}

/// Whether the VUB family of column `k` (resting in `state`, with the
/// dependents `glued` to it) meets the sign rules of the module docs: every
/// glued dependent has `d_g ≤ 0` (its multiplier `λ_g = −d_g` is
/// nonnegative), and a nonbasic `k` has an augmented `d̄_k = d_k + Σ_g d_g`
/// of `≥ 0` at its lower bound and `≤ 0` at its upper one. `None` when
/// `eval` cannot evaluate the family.
fn family_signs_hold<E: Reduced>(
    eval: &E,
    k: usize,
    state: VarState,
    glued: &[usize],
) -> Option<bool> {
    let mut dbar = match state {
        VarState::Basic => None,
        _ => Some(eval.reduced(k)?),
    };
    for &g in glued {
        let d = eval.reduced(g)?;
        if E::sign(d) == Ordering::Greater {
            return Some(false);
        }
        if let Some(s) = dbar {
            dbar = Some(E::sum(s, d)?);
        }
    }
    Some(!matches!(
        (state, dbar.map(E::sign)),
        (VarState::AtLower, Some(Ordering::Less)) | (VarState::AtUpper, Some(Ordering::Greater))
    ))
}

/// The reduced-cost sign rules over every VUB family (see the module
/// docs): each family in integers over `duals` when they are given and it
/// can be, in `Rat` over `y` otherwise, the deadline checked every 512
/// columns. Returns `false` on the first violated rule, and records in
/// `stats` whether the certification was swept wholly in integers
/// (`interval_accepts`) or some family needed `Rat`
/// (`interval_escalations`).
fn dual_sweep(
    sf: &StandardForm<Rat>,
    state: &[VarState],
    glued: &[Vec<usize>],
    y: &[Rat],
    duals: Option<&Duals>,
    expired: &dyn Fn() -> bool,
    stats: &mut SolveStats,
) -> Result<bool, DeadlinePassed> {
    let ints = duals.map(|duals| InIntegers { sf, duals });
    #[cfg(test)]
    let ints = ints.filter(|_| !tests::FORCE_RAT.with(std::cell::Cell::get));
    let rats = InRat { sf, y };
    let (mut holds, mut in_rat) = (true, false);
    for k in 0..sf.ncols {
        if k % 512 == 0 && expired() {
            return Err(DeadlinePassed);
        }
        // Dependents are swept with their key. A basic key has no rule
        // of its own, only its glued dependents do; an artificial has none.
        let family = glued[k].as_slice();
        let skip = match state[k] {
            VarState::AtVub => true,
            VarState::Basic => family.is_empty(),
            VarState::AtLower | VarState::AtUpper => sf.artificial[k],
        };
        if skip {
            continue;
        }
        holds = match ints
            .as_ref()
            .and_then(|e| family_signs_hold(e, k, state[k], family))
        {
            Some(holds) => holds,
            None => {
                in_rat = true;
                family_signs_hold(&rats, k, state[k], family).expect("`Rat` evaluates every family")
            }
        };
        if !holds {
            break;
        }
    }
    stats.interval_accepts = u64::from(holds && !in_rat);
    stats.interval_escalations = u64::from(in_rat);
    Ok(holds)
}

/// The revised engine behind [`crate::api::solve_lp`]'s `Revised`
/// backend: the bounded revised simplex of [`crate::bounds`] in `f64`
/// under `opts.pricing` — from `opts.start` when one is offered and fits
/// (see [`crate::start::StartBasis`]), else from the all-slack basis —
/// then exact certification of its terminal basis under the per-stage
/// deadline of `opts.pricing`. It never runs a dense
/// fallback itself — every outcome it cannot certify is a typed
/// [`SolveFailure`], so the **caller** decides what to run next. This is
/// the rung interface of the supervision ladder in `abt-active`: each
/// failure class maps to a distinct demotion.
///
/// * `Ok(report)` — the float pass finished and the terminal basis was
///   certified exactly optimal (`report.fallback` is always `false`).
/// * `Err(BudgetExceeded(_))` — a pivot or wall-time budget in
///   `opts.pricing` tripped, in the float pass or the certifier. The
///   wall-time budget is **per stage**: the float pass and the certifier
///   each get a fresh clock of the same duration.
/// * `Err(NumericalStall)` — the float pass stalled or claimed unbounded,
///   or its terminal basis was exactly refuted; an exact backend must
///   decide.
/// * `Err(Infeasible)` — the *float* pass claims infeasibility. Tolerance
///   pivoting cannot certify that claim, so callers must confirm with an
///   exact backend before reporting infeasibility outward.
pub(crate) fn revised_cold(
    lp: &LpProblem<Rat>,
    opts: &LpOptions,
) -> Result<LpReport, SolveFailure> {
    let sfr = StandardForm::build(lp);
    let sf64 = sfr.to_f64();
    let start = opts.start.and_then(|s| s.snapshot(&sf64));
    let prop = solve_bounded_f64_with(&sf64, &opts.pricing, start.as_ref());
    match prop.status {
        BoundedStatus::Optimal => {}
        BoundedStatus::Budget(k) => return Err(SolveFailure::BudgetExceeded(k)),
        BoundedStatus::Infeasible => return Err(SolveFailure::Infeasible),
        BoundedStatus::Unbounded | BoundedStatus::Stalled => {
            return Err(SolveFailure::NumericalStall)
        }
    }
    let mut stats = prop.stats;
    match verify_bounded(lp, &sfr, &prop, opts.pricing.stage_deadline(), &mut stats) {
        Certified::Verified(solution) => Ok(LpReport {
            solution,
            fallback: false,
            stats,
        }),
        Certified::Refuted => Err(SolveFailure::NumericalStall),
        Certified::Deadline => Err(SolveFailure::BudgetExceeded(BudgetKind::Time)),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::api::{solve_lp, SolverBackend};
    use crate::bounds::BoundedOptions;
    use crate::model::{Cmp, LpProblem};
    use crate::rational::Rat;

    thread_local! {
        /// Sends every family of [`dual_sweep`] on this thread to `Rat`,
        /// the evaluation the integer one is checked against.
        pub(crate) static FORCE_RAT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn r(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    /// The `Revised` backend's certified answer, or its typed refusal.
    fn revised(lp: &LpProblem<Rat>) -> Result<LpReport, SolveFailure> {
        solve_lp(lp, &LpOptions::new())
    }

    /// A dense backend's answer (the dense backends never fail).
    fn dense(lp: &LpProblem<Rat>, backend: SolverBackend) -> LpReport {
        solve_lp(lp, &LpOptions::new().backend(backend)).expect("dense backends never fail")
    }

    #[test]
    fn simple_min_le() {
        // min -x - 2y  s.t. x + y <= 4, x <= 2  => x=2, y=2, obj=-6
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        let y = lp.add_var(r(-2, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
        lp.bound_var(x, r(2, 1));
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, r(-8, 1)); // actually x=0, y=4 gives -8
        assert_eq!(sol.x[1], r(4, 1));
    }

    #[test]
    fn phase1_needed_ge() {
        // min x + y  s.t. x + 2y >= 4, 3x + y >= 6 => intersection (8/5, 6/5), obj 14/5
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(2, 1))], Cmp::Ge, r(4, 1));
        lp.add_constraint(vec![(x, r(3, 1)), (y, Rat::ONE)], Cmp::Ge, r(6, 1));
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, r(14, 5));
        assert_eq!(sol.x, vec![r(8, 5), r(6, 5)]);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 5, x - y = 1 => x=3, y=2, obj=12
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(2, 1));
        let y = lp.add_var(r(3, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(5, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(-1, 1))], Cmp::Eq, r(1, 1));
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.x, vec![r(3, 1), r(2, 1)]);
        assert_eq!(sol.objective, r(12, 1));
    }

    #[test]
    fn infeasible_detected() {
        // x >= 3 and x <= 1
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(3, 1));
        lp.bound_var(x, Rat::ONE);
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        // min -x with only x >= 1
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        lp.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(solve(&lp).status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, r(-1, 1))], Cmp::Le, r(-3, 1));
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.x[0], r(3, 1));
    }

    #[test]
    fn redundant_equalities_ok() {
        // x + y = 2 listed twice plus min x.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ZERO);
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, Rat::ZERO);
        assert_eq!(sol.x[1], r(2, 1));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // A classic degenerate LP (multiple bases at the same vertex).
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-3, 4));
        let y = lp.add_var(r(150, 1));
        let z = lp.add_var(r(-1, 50));
        let w = lp.add_var(r(6, 1));
        lp.add_constraint(
            vec![(x, r(1, 4)), (y, r(-60, 1)), (z, r(-1, 25)), (w, r(9, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![(x, r(1, 2)), (y, r(-90, 1)), (z, r(-1, 50)), (w, r(3, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(vec![(z, Rat::ONE)], Cmp::Le, Rat::ONE);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, r(-1, 20)); // Beale's example optimum −1/20
    }

    #[test]
    fn f64_backend_agrees() {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 14.0 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn zero_constraint_problem() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let _ = lp.add_var(Rat::ONE);
        let sol = solve(&lp);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, Rat::ZERO);
    }

    // ---- hybrid-specific coverage -------------------------------------

    /// Runs both paths on `lp` and checks the hybrid contract.
    fn assert_hybrid_matches(lp: &LpProblem<Rat>) -> LpReport {
        let exact = solve(lp);
        let rep = dense(lp, SolverBackend::DenseHybrid);
        assert_eq!(rep.solution.status, exact.status);
        if exact.status == LpStatus::Optimal {
            assert_eq!(rep.solution.objective, exact.objective);
            assert!(lp.is_feasible(&rep.solution.x));
            assert_eq!(lp.objective_value(&rep.solution.x), exact.objective);
        }
        rep
    }

    #[test]
    fn hybrid_matches_exact_on_basics() {
        // Re-run the fixed instances above through the hybrid path.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(2, 1))], Cmp::Ge, r(4, 1));
        lp.add_constraint(vec![(x, r(3, 1)), (y, Rat::ONE)], Cmp::Ge, r(6, 1));
        let rep = assert_hybrid_matches(&lp);
        assert!(!rep.fallback, "clean LP must verify without fallback");

        let mut eq: LpProblem<Rat> = LpProblem::new();
        let x = eq.add_var(r(2, 1));
        let y = eq.add_var(r(3, 1));
        eq.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(5, 1));
        eq.add_constraint(vec![(x, Rat::ONE), (y, r(-1, 1))], Cmp::Eq, r(1, 1));
        assert_hybrid_matches(&eq);
    }

    #[test]
    fn hybrid_matches_exact_on_degenerate_and_redundant() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-3, 4));
        let y = lp.add_var(r(150, 1));
        let z = lp.add_var(r(-1, 50));
        let w = lp.add_var(r(6, 1));
        lp.add_constraint(
            vec![(x, r(1, 4)), (y, r(-60, 1)), (z, r(-1, 25)), (w, r(9, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![(x, r(1, 2)), (y, r(-90, 1)), (z, r(-1, 50)), (w, r(3, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(vec![(z, Rat::ONE)], Cmp::Le, Rat::ONE);
        assert_hybrid_matches(&lp);

        let mut red: LpProblem<Rat> = LpProblem::new();
        let x = red.add_var(Rat::ONE);
        let y = red.add_var(Rat::ZERO);
        red.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        red.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        assert_hybrid_matches(&red);
    }

    #[test]
    fn hybrid_reports_infeasible_and_unbounded_exactly() {
        let mut inf: LpProblem<Rat> = LpProblem::new();
        let x = inf.add_var(Rat::ONE);
        inf.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(3, 1));
        inf.bound_var(x, Rat::ONE);
        let rep = assert_hybrid_matches(&inf);
        assert!(rep.fallback, "non-Optimal float status must re-run exactly");

        let mut unb: LpProblem<Rat> = LpProblem::new();
        let x = unb.add_var(r(-1, 1));
        unb.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_hybrid_matches(&unb);
    }

    #[test]
    fn hybrid_falls_back_on_sub_epsilon_cost_gap() {
        // min (1 + 2⁻⁶⁰)·x₀ + x₁  s.t.  x₀ + x₁ ≥ 1. In f64 both costs
        // round to 1.0, the float pass lands on the basis {x₀} (Dantzig
        // tie-break enters the first column) and declares it optimal; the
        // exact reduced cost of x₁ there is −2⁻⁶⁰ < 0, so verification
        // must reject the basis and the fallback must find x₁ = 1.
        let eps = Rat::new(1, 1i128 << 60);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x0 = lp.add_var(Rat::ONE.add(&eps));
        let x1 = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x0, Rat::ONE), (x1, Rat::ONE)], Cmp::Ge, Rat::ONE);
        let rep = dense(&lp, SolverBackend::DenseHybrid);
        assert!(
            rep.fallback,
            "sub-epsilon cost gap must force the exact fallback"
        );
        assert_eq!(rep.solution.status, LpStatus::Optimal);
        assert_eq!(rep.solution.objective, Rat::ONE);
        assert_eq!(rep.solution.x, vec![Rat::ZERO, Rat::ONE]);
        assert_eq!(solve(&lp).objective, Rat::ONE);
    }

    // ---- bounded revised hybrid coverage ------------------------------

    /// Runs the dense exact path and the revised path on an LP with an
    /// optimum and checks the shared contract: a certified answer
    /// bit-identical to the dense one.
    fn assert_revised_matches(lp: &LpProblem<Rat>) -> LpReport {
        let exact = solve(lp);
        assert_eq!(exact.status, LpStatus::Optimal);
        let rep = revised(lp).expect("the revised backend certifies clean LPs");
        assert!(!rep.fallback);
        assert_eq!(rep.solution.status, LpStatus::Optimal);
        assert_eq!(rep.solution.objective, exact.objective);
        assert!(lp.is_feasible(&rep.solution.x));
        assert_eq!(lp.objective_value(&rep.solution.x), exact.objective);
        rep
    }

    #[test]
    fn revised_matches_exact_on_fixed_instances() {
        // The phase-1 instance.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(2, 1))], Cmp::Ge, r(4, 1));
        lp.add_constraint(vec![(x, r(3, 1)), (y, Rat::ONE)], Cmp::Ge, r(6, 1));
        let rep = assert_revised_matches(&lp);
        assert!(!rep.fallback, "clean LP must verify without fallback");
        assert_eq!(rep.solution.objective, r(14, 5));

        // Equalities.
        let mut eq: LpProblem<Rat> = LpProblem::new();
        let x = eq.add_var(r(2, 1));
        let y = eq.add_var(r(3, 1));
        eq.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(5, 1));
        eq.add_constraint(vec![(x, Rat::ONE), (y, r(-1, 1))], Cmp::Eq, r(1, 1));
        assert_revised_matches(&eq);

        // Degenerate (Beale) + duplicated equality rows.
        let mut beale: LpProblem<Rat> = LpProblem::new();
        let x = beale.add_var(r(-3, 4));
        let y = beale.add_var(r(150, 1));
        let z = beale.add_var(r(-1, 50));
        let w = beale.add_var(r(6, 1));
        beale.add_constraint(
            vec![(x, r(1, 4)), (y, r(-60, 1)), (z, r(-1, 25)), (w, r(9, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        beale.add_constraint(
            vec![(x, r(1, 2)), (y, r(-90, 1)), (z, r(-1, 50)), (w, r(3, 1))],
            Cmp::Le,
            Rat::ZERO,
        );
        beale.add_constraint(vec![(z, Rat::ONE)], Cmp::Le, Rat::ONE);
        let rep = assert_revised_matches(&beale);
        assert_eq!(rep.solution.objective, r(-1, 20));

        let mut red: LpProblem<Rat> = LpProblem::new();
        let x = red.add_var(Rat::ONE);
        let y = red.add_var(Rat::ZERO);
        red.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        red.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Eq, r(2, 1));
        assert_revised_matches(&red);
    }

    #[test]
    fn revised_handles_implicit_bounds_and_row_bounds_identically() {
        // min −x − 2y  s.t.  x + y ≤ 4, x ≤ 2 — once as a row, once as an
        // implicit bound; all backends, same optimum −8 (x=0, y=4).
        let build = |implicit: bool| {
            let mut lp: LpProblem<Rat> = LpProblem::new();
            let x = lp.add_var(r(-1, 1));
            let y = lp.add_var(r(-2, 1));
            lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
            if implicit {
                lp.set_upper(x, r(2, 1));
            } else {
                lp.bound_var(x, r(2, 1));
            }
            lp
        };
        for implicit in [false, true] {
            let lp = build(implicit);
            let exact = solve(&lp);
            let hybrid = dense(&lp, SolverBackend::DenseHybrid).solution;
            let rep = revised(&lp).expect("certified revised solve");
            for sol in [&exact, &hybrid, &rep.solution] {
                assert_eq!(sol.status, LpStatus::Optimal);
                assert_eq!(sol.objective, r(-8, 1), "implicit={implicit}");
                assert_eq!(sol.duals.len(), lp.num_constraints());
            }
            assert!(!rep.fallback);
        }
    }

    #[test]
    fn revised_bound_flip_only_iteration_terminates() {
        // min −x  s.t.  x + y ≤ 10, x ≤ 5 implicit. The only simplex step
        // is a bound flip (no basis change); the solve must terminate and
        // verify without fallback.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        let _y = lp.add_var(Rat::ZERO);
        lp.add_constraint(vec![(x, Rat::ONE), (_y, Rat::ONE)], Cmp::Le, r(10, 1));
        lp.set_upper(x, r(5, 1));
        let rep = revised(&lp).expect("bound-flip optimum must verify exactly");
        assert!(!rep.fallback);
        assert_eq!(rep.solution.status, LpStatus::Optimal);
        assert_eq!(rep.solution.objective, r(-5, 1));
        assert_eq!(rep.solution.x[0], r(5, 1));
    }

    #[test]
    fn revised_binding_bound_has_nonzero_bound_multiplier() {
        // min −x − y  s.t.  x + y ≤ 4 with x ≤ 1 implicit: x sticks at its
        // bound. With implicit bounds strong duality needs the bound term:
        // b·y = −4 but c·x = −4 as well here (both constraints tight and
        // the bound's reduced cost is 0)… pick costs making them differ.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-3, 1)); // strictly prefers x
        let y = lp.add_var(r(-1, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
        lp.set_upper(x, Rat::ONE);
        let rep = revised(&lp).expect("certified revised solve");
        assert!(!rep.fallback);
        let sol = &rep.solution;
        assert_eq!(sol.objective, r(-6, 1)); // x=1, y=3
        assert_eq!(sol.x, vec![Rat::ONE, r(3, 1)]);
        // Row dual y₁ = −1; the gap −6 − (−4) = −2 is carried by the bound
        // multiplier d_x = c_x − y₁ = −3 + 1 = −2 ≤ 0 at the upper bound.
        assert_eq!(sol.duals, vec![r(-1, 1)]);
    }

    #[test]
    fn revised_reports_infeasible_and_unbounded_exactly() {
        // A non-Optimal float verdict is a typed refusal, never a silent
        // dense re-run; the exact status comes from the dense backends.
        let mut inf: LpProblem<Rat> = LpProblem::new();
        let x = inf.add_var(Rat::ONE);
        inf.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(3, 1));
        inf.set_upper(x, Rat::ONE);
        assert_eq!(revised(&inf).unwrap_err(), SolveFailure::Infeasible);
        for backend in [SolverBackend::DenseHybrid, SolverBackend::DenseExact] {
            let rep = dense(&inf, backend);
            assert!(rep.fallback, "non-Optimal float status must re-run exactly");
            assert_eq!(rep.solution.status, LpStatus::Infeasible);
        }

        let mut unb: LpProblem<Rat> = LpProblem::new();
        let x = unb.add_var(r(-1, 1));
        unb.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(revised(&unb).unwrap_err(), SolveFailure::NumericalStall);
        for backend in [SolverBackend::DenseHybrid, SolverBackend::DenseExact] {
            assert_eq!(dense(&unb, backend).solution.status, LpStatus::Unbounded);
        }
    }

    #[test]
    fn revised_refuses_sub_epsilon_cost_gap() {
        // Same adversarial instance as the dense hybrid: costs that
        // collide in f64 must be caught by the exact verification. The
        // revised backend refuses the refuted basis as a typed stall; the
        // dense backends answer it exactly.
        let eps = Rat::new(1, 1i128 << 60);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x0 = lp.add_var(Rat::ONE.add(&eps));
        let x1 = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x0, Rat::ONE), (x1, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(revised(&lp).unwrap_err(), SolveFailure::NumericalStall);
        for backend in [SolverBackend::DenseHybrid, SolverBackend::DenseExact] {
            let rep = dense(&lp, backend);
            assert!(rep.fallback, "the gap must force the exact path");
            assert_eq!(rep.solution.objective, Rat::ONE);
            assert_eq!(rep.solution.x, vec![Rat::ZERO, Rat::ONE]);
        }
    }

    // ---- VUB coverage -------------------------------------------------

    /// Runs the dense exact oracle (rows) against the revised solver on
    /// both encodings of the same VUB structure, for an LP with an
    /// optimum.
    fn assert_vub_matches(vub_lp: &LpProblem<Rat>) -> LpReport {
        let oracle = solve(&vub_lp.vubs_as_rows());
        assert_eq!(oracle.status, LpStatus::Optimal);
        let rep = revised(vub_lp).expect("the revised backend certifies clean VUB LPs");
        assert_eq!(rep.solution.status, LpStatus::Optimal);
        assert_eq!(rep.solution.objective, oracle.objective);
        assert!(vub_lp.is_feasible(&rep.solution.x));
        assert_eq!(vub_lp.objective_value(&rep.solution.x), oracle.objective);
        assert_eq!(rep.solution.duals.len(), vub_lp.num_constraints());
        rep
    }

    #[test]
    fn vub_family_of_size_one() {
        // min −x  s.t.  x + y ≥ 1, x ≤ y (single-dependent family), y ≤ 3.
        // Optimum x = y = 3.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        let y = lp.add_var(Rat::ZERO);
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Ge, Rat::ONE);
        lp.set_upper(y, r(3, 1));
        lp.set_vub(x, y);
        let rep = assert_vub_matches(&lp);
        assert!(!rep.fallback, "clean VUB LP must verify without fallback");
        assert_eq!(rep.solution.objective, r(-3, 1));
        assert_eq!(rep.solution.x[x], r(3, 1));
    }

    #[test]
    fn vub_key_fixed_at_zero() {
        // The key's constant bound is 0, pinning the whole family to 0:
        // min x0 + x1  s.t.  x0 + x1 + z ≥ 2, x_i ≤ y, y ≤ 0. All demand
        // must flow through the free variable z.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x0 = lp.add_var(Rat::ONE);
        let x1 = lp.add_var(Rat::ONE);
        let y = lp.add_var(r(5, 1)); // expensive key, pinned anyway
        let z = lp.add_var(r(2, 1));
        lp.add_constraint(
            vec![(x0, Rat::ONE), (x1, Rat::ONE), (z, Rat::ONE)],
            Cmp::Ge,
            r(2, 1),
        );
        lp.set_upper(y, Rat::ZERO);
        lp.set_vub(x0, y);
        lp.set_vub(x1, y);
        let rep = assert_vub_matches(&lp);
        assert_eq!(rep.solution.objective, r(4, 1));
        assert_eq!(rep.solution.x[x0], Rat::ZERO);
        assert_eq!(rep.solution.x[x1], Rat::ZERO);
        assert_eq!(rep.solution.x[z], r(2, 1));
    }

    #[test]
    fn vub_dependent_at_constant_cap_and_vub_simultaneously() {
        // x carries both a constant cap and a VUB and the optimum makes
        // both tight: min −3x − y  s.t.  x + y ≤ 4, x ≤ 2 (constant),
        // x ≤ y (VUB) ⇒ x = y = 2, objective −8. The standard form
        // promotes the constant cap to a row (see bounds.rs docs).
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-3, 1));
        let y = lp.add_var(r(-1, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
        lp.set_upper(x, r(2, 1));
        lp.set_vub(x, y);
        let rep = assert_vub_matches(&lp);
        assert_eq!(rep.solution.objective, r(-8, 1));
        assert_eq!(rep.solution.x, vec![r(2, 1), r(2, 1)]);
    }

    #[test]
    fn vub_lp1_shaped_family_verifies_without_fallback() {
        // A miniature LP1: two super-slots Y_I ≤ w_I, three jobs with
        // x_{I,j} ≤ Y_I caps as VUBs, capacity Σ_j x ≤ g·Y, demand rows.
        let g = r(2, 1);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let y0 = lp.add_var(Rat::ONE);
        let y1 = lp.add_var(Rat::ONE);
        lp.set_upper(y0, r(3, 1));
        lp.set_upper(y1, r(2, 1));
        // job 0 in both runs, job 1 in run 0, job 2 in run 1.
        let x00 = lp.add_var(Rat::ZERO);
        let x10 = lp.add_var(Rat::ZERO);
        let x01 = lp.add_var(Rat::ZERO);
        let x21 = lp.add_var(Rat::ZERO);
        for (x, y) in [(x00, y0), (x10, y0), (x01, y1), (x21, y1)] {
            lp.set_vub(x, y);
        }
        lp.add_constraint(
            vec![(x00, Rat::ONE), (x10, Rat::ONE), (y0, g.neg())],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![(x01, Rat::ONE), (x21, Rat::ONE), (y1, g.neg())],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(vec![(x00, Rat::ONE), (x01, Rat::ONE)], Cmp::Ge, r(3, 1));
        lp.add_constraint(vec![(x10, Rat::ONE)], Cmp::Ge, r(2, 1));
        lp.add_constraint(vec![(x21, Rat::ONE)], Cmp::Ge, Rat::ONE);
        let rep = assert_vub_matches(&lp);
        assert!(!rep.fallback, "LP1-shaped VUB model must verify exactly");
        // Work 6 over capacity g = 2 needs ≥ 3 open mass.
        assert_eq!(rep.solution.objective, r(3, 1));
        assert!(rep.stats.pivots + rep.stats.bound_flips > 0);
    }

    #[test]
    fn vub_infeasible_and_unbounded_detected() {
        // Infeasible: demand 5 but the whole family is capped by y ≤ 1
        // and capacity 2y.
        let mut inf: LpProblem<Rat> = LpProblem::new();
        let y = inf.add_var(Rat::ONE);
        let x = inf.add_var(Rat::ZERO);
        inf.set_upper(y, Rat::ONE);
        inf.set_vub(x, y);
        inf.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(5, 1));
        assert_eq!(revised(&inf).unwrap_err(), SolveFailure::Infeasible);
        assert_eq!(solve(&inf.vubs_as_rows()).status, LpStatus::Infeasible);
        assert_eq!(
            dense(&inf, SolverBackend::DenseHybrid).solution.status,
            LpStatus::Infeasible
        );

        // Unbounded: the key has no constant bound and pays off.
        let mut unb: LpProblem<Rat> = LpProblem::new();
        let y = unb.add_var(r(-1, 1));
        let x = unb.add_var(Rat::ZERO);
        unb.set_vub(x, y);
        unb.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(revised(&unb).unwrap_err(), SolveFailure::NumericalStall);
        assert_eq!(solve(&unb.vubs_as_rows()).status, LpStatus::Unbounded);
        assert_eq!(
            dense(&unb, SolverBackend::DenseHybrid).solution.status,
            LpStatus::Unbounded
        );
    }

    // ---- fallible (try_) revised coverage -----------------------------

    #[test]
    fn try_solve_certifies_clean_instances() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(2, 1))], Cmp::Ge, r(4, 1));
        lp.add_constraint(vec![(x, r(3, 1)), (y, Rat::ONE)], Cmp::Ge, r(6, 1));
        let rep = revised(&lp).expect("clean LP");
        assert!(!rep.fallback);
        assert_eq!(rep.solution.objective, r(14, 5));
        assert_eq!(rep.solution.objective, solve(&lp).objective);
    }

    #[test]
    fn try_solve_surfaces_budget_trips() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, r(2, 1))], Cmp::Ge, r(4, 1));
        lp.add_constraint(vec![(x, r(3, 1)), (y, Rat::ONE)], Cmp::Ge, r(6, 1));
        let opts = LpOptions::new().pricing(BoundedOptions {
            pivot_budget: 1,
            ..BoundedOptions::default()
        });
        assert_eq!(
            solve_lp(&lp, &opts).unwrap_err(),
            SolveFailure::BudgetExceeded(BudgetKind::Pivots)
        );
    }

    #[test]
    fn try_solve_maps_float_verdicts_to_typed_failures() {
        // Float infeasibility is a *claim*, not a certificate: the typed
        // error tells the supervisor to confirm with an exact rung.
        let mut inf: LpProblem<Rat> = LpProblem::new();
        let x = inf.add_var(Rat::ONE);
        inf.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(3, 1));
        inf.set_upper(x, Rat::ONE);
        assert_eq!(revised(&inf).unwrap_err(), SolveFailure::Infeasible);

        // Unbounded claims demote to an exact backend as a stall.
        let mut unb: LpProblem<Rat> = LpProblem::new();
        let x = unb.add_var(r(-1, 1));
        unb.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(revised(&unb).unwrap_err(), SolveFailure::NumericalStall);

        // An exactly-refuted terminal basis (the sub-epsilon cost gap) is
        // a numerical stall, not a silent dense fallback.
        let eps = Rat::new(1, 1i128 << 60);
        let mut gap: LpProblem<Rat> = LpProblem::new();
        let x0 = gap.add_var(Rat::ONE.add(&eps));
        let x1 = gap.add_var(Rat::ONE);
        gap.add_constraint(vec![(x0, Rat::ONE), (x1, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(revised(&gap).unwrap_err(), SolveFailure::NumericalStall);
    }

    /// The float pass's proposal for `lp` after `edit`, certified: the
    /// certified solution (`None` when refuted) and whether the exact LU
    /// ran.
    fn certify_edited(
        lp: &LpProblem<Rat>,
        edit: impl FnOnce(&mut BoundedBasis),
    ) -> (Option<LpSolution<Rat>>, u64) {
        let sf = StandardForm::build(lp);
        let mut prop = solve_bounded_f64_with(&sf.to_f64(), &BoundedOptions::default(), None);
        assert_eq!(prop.status, BoundedStatus::Optimal);
        edit(&mut prop);
        let mut stats = SolveStats::default();
        match verify_bounded(lp, &sf, &prop, None, &mut stats) {
            Certified::Verified(sol) => (Some(sol), stats.certify_lu),
            Certified::Refuted | Certified::Deadline => (None, stats.certify_lu),
        }
    }

    /// Asserts that `lp` certifies through the exact LU with the dense
    /// exact oracle's objective and values.
    fn certifies_through_the_lu(lp: &LpProblem<Rat>) {
        let oracle = solve(lp);
        let rep = revised(lp).expect("the revised rung certifies");
        assert_eq!(rep.stats.certify_lu, 1, "the LU certified");
        assert_eq!(rep.solution.objective, oracle.objective);
        assert_eq!(rep.solution.x, oracle.x);
    }

    /// min −x − 2y  s.t.  x + y ≤ 4, x ≤ 2 (a row), 2x + y ≥ 1: x = 2,
    /// y = 2 with nonzero basic values and multipliers.
    fn small_lp() -> LpProblem<Rat> {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        let y = lp.add_var(r(-2, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
        lp.add_constraint(vec![(x, Rat::ONE)], Cmp::Le, r(2, 1));
        lp.add_constraint(vec![(x, r(2, 1)), (y, Rat::ONE)], Cmp::Ge, Rat::ONE);
        lp
    }

    #[test]
    fn float_values_certify_an_integral_lp_without_the_lu() {
        let lp = small_lp();
        let rep = revised(&lp).expect("clean solve");
        assert_eq!(rep.stats.certify_lu, 0);
        assert_eq!(rep.solution.objective, solve(&lp).objective);
        // The dense hybrid hands over no float values: it always factors.
        let hybrid = dense(&lp, SolverBackend::DenseHybrid);
        assert!(!hybrid.fallback);
        assert_eq!(hybrid.stats.certify_lu, 1);
    }

    #[test]
    fn perturbed_float_values_fail_a_residual_and_fall_back_to_the_lu() {
        let lp = small_lp();
        let oracle = solve(&lp);
        let (plain, lu) = certify_edited(&lp, |_| {});
        assert_eq!(lu, 0);
        assert_eq!(plain.expect("verified").objective, oracle.objective);
        for edit in [
            (|p: &mut BoundedBasis| p.xb[0] += 0.25) as fn(&mut BoundedBasis),
            |p| p.y[0] -= 0.5,
            |p| p.xb[1] += 1e-6,
        ] {
            let (sol, lu) = certify_edited(&lp, edit);
            assert_eq!(lu, 1, "a nonzero residual sends the solve to the LU");
            let sol = sol.expect("the LU verifies the basis");
            assert_eq!(sol.objective, oracle.objective);
            assert_eq!(sol.x, oracle.x);
        }
    }

    #[test]
    fn a_fractional_coefficient_falls_back_to_the_lu() {
        // min x + 3y  s.t.  x/2 + y ≥ 1, x + y ≥ 1: x = 2 is basic with a
        // fractional coefficient, so the residuals cannot be checked in
        // integers. (A fractional entry of a nonbasic column at zero does
        // not matter: the residuals read only the basis and the values.)
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(r(3, 1));
        lp.add_constraint(vec![(x, r(1, 2)), (y, Rat::ONE)], Cmp::Ge, Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Ge, Rat::ONE);
        assert_eq!(solve(&lp).x, [r(2, 1), Rat::ZERO]);
        certifies_through_the_lu(&lp);
    }

    #[test]
    fn a_basis_singular_modulo_the_prime_falls_back_to_the_lu() {
        // min p·x  s.t.  p·x ≥ p with p = 2³¹ − 1: the basis is the 1×1
        // matrix [p], nonsingular over ℚ but zero modulo p. Both residuals
        // hold (x = 1, y = 1), so only the rank check sends it to the LU.
        let p = Rat::from_int((1 << 31) - 1);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(p);
        lp.add_constraint(vec![(x, p)], Cmp::Ge, p);
        let sf = StandardForm::build(&lp);
        let prop = solve_bounded_f64_with(&sf.to_f64(), &BoundedOptions::default(), None);
        assert_eq!(
            (prop.basis.as_slice(), prop.xb.as_slice()),
            ([x].as_slice(), [1.0].as_slice())
        );
        let glued = vec![Vec::new(); sf.ncols];
        let candidate = Candidate::new(&sf, &prop.basis, &glued, &[], &prop.xb, &prop.y)
            .expect("both residuals hold");
        assert!(!candidate.full_rank());
        certifies_through_the_lu(&lp);
    }

    #[test]
    fn a_common_denominator_past_2_to_the_40_falls_back_to_the_lu() {
        // min Σ x_i  s.t.  q_i·x_i ≥ 1 for three primes q_i near 2¹⁵:
        // x_i = 1/q_i, whose common denominator passes 2⁴⁰.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        for q in [32749, 32719, 32717] {
            let x = lp.add_var(Rat::ONE);
            lp.add_constraint(vec![(x, r(q, 1))], Cmp::Ge, Rat::ONE);
        }
        certifies_through_the_lu(&lp);
    }

    #[test]
    fn each_sign_rule_refutes_the_proposal_that_breaks_it() {
        // Both LPs have one row, so one basic column; the proposals below
        // are primal feasible and break exactly one sign rule each. With
        // their values cleared the LU supplies the duals.
        let refuted = |lp: &LpProblem<Rat>, basis: usize, state: [VarState; 3]| {
            for force_rat in [false, true] {
                FORCE_RAT.with(|f| f.set(force_rat));
                let (sol, lu) = certify_edited(lp, |p| {
                    (p.basis, p.state, p.xb, p.y) = (vec![basis], state.to_vec(), vec![], vec![]);
                });
                FORCE_RAT.with(|f| f.set(false));
                assert_eq!(lu, 1);
                assert!(sol.is_none(), "force_rat {force_rat}: verified {sol:?}");
            }
        };
        use VarState::{AtLower, AtUpper, AtVub, Basic};
        // min −x − 2y  s.t.  x + y ≤ 4, x ≤ 2, y ≤ 3 (implicit): with x at
        // 2 and y = 2 basic, the row dual is −2 and x's reduced cost is
        // −1 + 2 = 1, positive at its upper bound.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(r(-1, 1));
        let y = lp.add_var(r(-2, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Le, r(4, 1));
        lp.set_upper(x, r(2, 1));
        lp.set_upper(y, r(3, 1));
        assert_eq!(revised(&lp).expect("optimal").solution.objective, r(-7, 1));
        refuted(&lp, y, [AtUpper, Basic, AtLower]);
        // min x − k  s.t.  x + k ≤ 10, x ≤ k (VUB), k ≤ 2: with x glued to
        // k at its upper bound and the slack basic, x's reduced cost is 1,
        // a negative VUB multiplier (k's augmented −1 + 1 = 0 holds).
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let k = lp.add_var(r(-1, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (k, Rat::ONE)], Cmp::Le, r(10, 1));
        lp.set_upper(k, r(2, 1));
        lp.set_vub(x, k);
        assert_eq!(revised(&lp).expect("optimal").solution.objective, r(-2, 1));
        refuted(&lp, 2, [AtVub, AtUpper, Basic]);
    }

    #[test]
    fn hybrid_duals_satisfy_strong_duality() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(r(2, 1));
        lp.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Ge, r(3, 1));
        lp.bound_var(x, r(2, 1));
        let sol = dense(&lp, SolverBackend::DenseHybrid).solution;
        assert_eq!(sol.status, LpStatus::Optimal);
        let mut by = Rat::ZERO;
        for (c, yv) in lp.constraints().iter().zip(&sol.duals) {
            by = by.add(&yv.mul(&c.rhs));
        }
        assert_eq!(by, sol.objective, "strong duality b·y = c·x");
    }
}
