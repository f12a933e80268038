//! Bounded-variable machinery: the computational standard form and the
//! float-first **bounded revised simplex** with Schrage-style variable
//! upper bounds (VUBs).
//!
//! # Standard form
//!
//! [`StandardForm`] rewrites `min c·x  s.t.  rows, 0 ≤ x ≤ u, x_j ≤ x_{k(j)}`
//! into `min c·x  s.t.  A·x = b, 0 ≤ x ≤ u, b ≥ 0` (VUBs carried as side
//! metadata, never rows) by normalizing row signs and appending
//! slack/surplus/artificial columns, kept **column-major and sparse**
//! throughout: the columns are one compressed-sparse-column slab
//! ([`Columns`]), which [`StandardForm::build`] fills in two passes over
//! the rows (count each column's rows, then place the entries, summing a
//! row's repeated terms and dropping what cancels; a flipped row's terms
//! are negated, not multiplied by −1). The construction is generic over
//! the scalar and deterministic; the revised path builds the exact form
//! once and searches over its `f64` image (`StandardForm::to_f64`, one
//! pass over the slab), so a basis found by the float search indexes the
//! columns the exact verifier checks. The dense
//! tableau of [`crate::simplex`] lays out the same form, so its bases are
//! certified by the same verifier. One normalization keeps the VUB pivoting
//! rules simple: a
//! variable carrying **both** a VUB and a finite constant bound gets its
//! constant bound materialized as a trailing `≤` row, so VUB dependents
//! never have finite constant bounds of their own.
//!
//! # Bounded revised simplex
//!
//! [`solve_bounded_f64_with`] runs a two-phase revised simplex in which
//! neither constant bounds nor VUBs become rows. The pass starts from the
//! all-slack/artificial basis and runs phase 1 whenever the form has
//! artificials — unless the caller hands it a starting basis (a crash
//! start, see [`crate::start::StartBasis`]). That
//! start is factored *in place of* the all-slack basis, its basic values
//! are checked against their bounds and VUBs, and phase 1 then runs only
//! while one of its basic artificials is positive: a start that covers
//! every `≥` row goes straight to phase 2. A start that fails a check is
//! dropped for the all-slack basis. A nonbasic variable rests at a
//! bound ([`VarState::AtLower`]/[`VarState::AtUpper`]) **or glued to its
//! VUB key** ([`VarState::AtVub`], value identically equal to the key's).
//! The resting-state invariants:
//!
//! * a dependent glued to a **nonbasic** key behaves exactly like a
//!   variable at a constant bound equal to the key's resting value — only
//!   the right-hand-side adjustment sees it;
//! * a dependent glued to a **basic** key rides inside the basis: the
//!   key's basis column is the *augmented* column `A_k + Σ_{glued j} A_j`
//!   (Schrage's key column), and the key's basic cost is likewise
//!   `c_k + Σ_{glued j} c_j`. A VUB row therefore never enters the basis;
//! * the ratio test bounds every step by constant bounds, by VUBs against
//!   nonbasic keys (plain ceilings), and by VUBs between two basic
//!   variables or against the entering key (pairwise rates);
//! * iterations that change a family's glued set under a *basic* key
//!   change the augmented key column — the basis *matrix* itself, not just
//!   which columns are basic. Each such change is the rank-one update
//!   `B ← B ± A_col·e_p^T`, absorbed by the product-form file as the eta
//!   `(p, ±B⁻¹A_col + e_p)`. A pivot that also changes key columns puts
//!   its etas in an order that keeps every intermediate basis nonsingular:
//!   a glue grows the key column first (pivot exactly 1, the glued column
//!   being basic), the entering column is installed at the leaving row
//!   `r` (pivot above the ratio test's threshold), and a key column the
//!   entering variable came off shrinks last by what is then basis column
//!   `r` (pivot exactly 1). Structural events never refactorize: a full
//!   refactorization runs only when the eta file grows too long or too
//!   dense, and a singular one ends the pass as a stall.
//!
//! Pricing uses a rotating **partial-pricing** window
//! ([`BoundedOptions::pricing_window`]): a window of columns is priced per
//! iteration and the sweep only degrades to a full Dantzig pass when every
//! window in the cycle is optimal (Bland's anti-cycling rule always scans
//! in full). The rotation doubles as diversification: always chasing the
//! single most negative reduced cost concentrates pivots in one VUB family
//! and multiplies degenerate glue/unglue churn. Each iteration prices from
//! one reduced-cost vector, filled over the window (at most two slices of
//! columns) by three straight passes: the plain `d = c − y·A` over the
//! `f64` form's column slab; each key's sum over its list
//! of currently glued dependents (ascending, so the sum runs in column
//! order); and a per-column direction (+1 at the lower bound, −1 at the
//! upper bound or glued, 0 for basic and barred columns). Every state
//! change keeps the glued lists and the directions in step. The selection
//! is then a branch-light minimum over those slices, so the work of an
//! iteration follows the window, not the column count.
//!
//! The float pass never certifies anything: its terminal
//! [`basis`](BoundedBasis::basis)/[`state`](BoundedBasis::state) proposal is
//! re-verified exactly (see the [`crate::simplex`] module docs), and any
//! numerical mishap here is a typed failure that demotes the solve to an
//! exact backend.
//!
//! # Scratch space
//!
//! A solve allocates its dense work vectors once, at length `m`, and
//! reuses them on every iteration: FTRAN and BTRAN read their input from
//! one work vector (the entering column, the right-hand side of the basic
//! values, or the basic costs) and write the entering column's image and
//! the simplex multipliers into vectors of their own. The off-pivot
//! entries of every product-form eta sit in one slab, which a
//! refactorization clears without freeing. The LU factors and the
//! factorization's workspace ([`crate::lu`]) are the solve's too, sized
//! at the start for the form's nonzeros: the start factor, the all-slack
//! fallback and every refactorization gather the augmented basis columns
//! straight into the workspace and refactor in place, each under a
//! `solve.factor` span. So an iteration allocates nothing but the eta
//! slab's and the glued lists' amortized growth, a refactorization
//! nothing at all on LP1, and nothing outlives the solve.

#![allow(clippy::needless_range_loop)] // index loops mirror the simplex math

use crate::lu::{LuWork, SparseLu};
use crate::model::{Cmp, LpProblem};
use crate::scalar::Scalar;
use crate::simplex::SolveStats;
use crate::start::BasisSnapshot;
use abt_core::error::BudgetKind;
use abt_core::faultinject;
use std::ops::{Index, Range};
use std::time::{Duration, Instant};

/// Entering tolerance on reduced costs.
const ENTER_TOL: f64 = 1e-9;
/// Minimum magnitude for a ratio-test pivot element.
const PIV_TOL: f64 = 1e-7;
/// Consecutive degenerate iterations before switching to Bland's rule.
const DEGENERATE_SWITCH: usize = 64;
/// Eta-file length that triggers a refactorization.
const REFACTOR_EVERY: usize = 128;
/// Eta-file *fill* budget, as a multiple of the row count: product-form
/// updates get denser as the file grows (each eta is an FTRAN image of an
/// entering column), so refactorization also triggers once applying the
/// file costs more than a handful of dense passes.
const ETA_NNZ_PER_ROW: usize = 12;
/// Primal-feasibility tolerance: of the crash-start check (a start whose
/// basic values violate a bound by more than this is dropped for the
/// all-slack basis) and of phase 1 (a sum of basic artificials above it
/// is infeasibility).
const FEAS_TOL: f64 = 1e-7;

/// Where a variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarState {
    /// In the basis.
    Basic,
    /// Nonbasic at its lower bound (always 0 here).
    AtLower,
    /// Nonbasic at its finite upper bound.
    AtUpper,
    /// Nonbasic glued to its VUB key: the variable's value *is* the key's
    /// value (0, the key's constant bound, or the key's basic value).
    AtVub,
}

/// Outcome classification of the float pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedStatus {
    /// The pass believes the terminal basis is optimal.
    Optimal,
    /// Phase 1 could not zero the artificials.
    Infeasible,
    /// Phase 2 found an unbounded ray.
    Unbounded,
    /// The pass gave up (iteration cap, singular refactorization). Callers
    /// must fall back to an exact solve; this is never a verdict.
    Stalled,
    /// The pass exhausted one of its [`BoundedOptions`] solve budgets
    /// before reaching a verdict. Like `Stalled`, never a verdict — but
    /// callers should *not* silently fall back to an exact solve (which
    /// has no cheaper tier to charge the budget to); supervisors surface
    /// it as [`abt_core::error::SolveFailure::BudgetExceeded`] instead.
    Budget(BudgetKind),
}

/// Tuning knobs of the float pass.
#[derive(Debug, Clone, Copy)]
pub struct BoundedOptions {
    /// Columns priced per partial-pricing window; `0` disables partial
    /// pricing (every iteration runs a full Dantzig sweep).
    pub pricing_window: usize,
    /// Basis-changing pivot budget across both phases; `0` = unlimited.
    /// On exhaustion the pass stops with [`BoundedStatus::Budget`]
    /// instead of spinning (active-time is NP-complete, so no exact tier
    /// can promise termination on adversarial inputs without a budget).
    pub pivot_budget: u64,
    /// Wall-clock budget. Applies per stage: the float pass measures from
    /// its own entry, and the exact certifier (see
    /// [`crate::simplex`]) starts a fresh clock of the same length —
    /// enforcement points are the pivot loop (checked every
    /// [`TIME_CHECK_EVERY`] iterations) and the certifier's staged
    /// checkpoints. `None` = unlimited.
    pub time_budget: Option<Duration>,
}

impl Default for BoundedOptions {
    fn default() -> Self {
        BoundedOptions {
            pricing_window: DEFAULT_PRICING_WINDOW,
            pivot_budget: 0,
            time_budget: None,
        }
    }
}

impl BoundedOptions {
    /// The deadline a stage starting *now* must finish by (`None` =
    /// unbudgeted).
    pub(crate) fn stage_deadline(&self) -> Option<Instant> {
        self.time_budget.map(|d| Instant::now() + d)
    }
}

/// How many pivot-loop iterations pass between wall-clock reads when a
/// [`BoundedOptions::time_budget`] is set (an `Instant::now()` call is
/// tens of nanoseconds against microsecond-scale iterations, but there is
/// no reason to pay it every iteration).
pub const TIME_CHECK_EVERY: u64 = 64;

/// Default partial-pricing window (see [`BoundedOptions::pricing_window`]).
pub const DEFAULT_PRICING_WINDOW: usize = 256;

/// Terminal basis proposal of the float pass.
#[derive(Debug, Clone)]
pub struct BoundedBasis {
    /// Outcome.
    pub status: BoundedStatus,
    /// Basic column per row (meaningful when `Optimal`).
    pub basis: Vec<usize>,
    /// Resting state of every standard-form column (meaningful when
    /// `Optimal`).
    pub state: Vec<VarState>,
    /// The pass's pivots, phase-1 pivots, bound flips and
    /// refactorizations; the certifier adds its own counts
    /// ([`crate::simplex`]).
    pub stats: SolveStats,
    /// The pass's basic values, parallel to `basis` (empty unless
    /// `Optimal`).
    pub xb: Vec<f64>,
    /// The simplex multipliers of the final pricing pass, the one that
    /// found no entering column: `B̄ᵀ·y = c̄_B` for the terminal basis
    /// (empty unless `Optimal`).
    pub y: Vec<f64>,
}

/// Sparse columns in one slab (compressed sparse columns): column `j` is
/// `entries[start[j]..start[j + 1]]`, sorted by row. Indexing yields a
/// column's entries `(row, value)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns<S> {
    pub(crate) start: Vec<usize>,
    pub(crate) entries: Vec<(usize, S)>,
}

impl<S> Columns<S> {
    /// The columns in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[(usize, S)]> {
        self.start.windows(2).map(|w| &self.entries[w[0]..w[1]])
    }
}

impl<S> Index<usize> for Columns<S> {
    type Output = [(usize, S)];

    fn index(&self, j: usize) -> &[(usize, S)] {
        &self.entries[self.start[j]..self.start[j + 1]]
    }
}

/// The equality standard form `min c·x, A·x = b, 0 ≤ x ≤ u` of an
/// [`LpProblem`], column-major, with VUBs as side metadata.
#[derive(Debug, Clone)]
pub struct StandardForm<S> {
    /// Rows (original constraints plus any promoted constant-bound rows of
    /// VUB dependents).
    pub m: usize,
    /// Total columns (structural + slack/surplus + artificial).
    pub ncols: usize,
    /// Structural columns (`0..nstruct` are the problem's variables).
    pub nstruct: usize,
    /// Sparse columns, each sorted by row, in one slab.
    pub cols: Columns<S>,
    /// Phase-2 objective (0 on auxiliary columns).
    pub cost: Vec<S>,
    /// Per-column finite upper bound (`None` = +∞). Lower bounds are 0.
    /// Always `None` on columns that carry a VUB (see the module docs).
    pub upper: Vec<Option<S>>,
    /// Per-column VUB key (`None` on keys, plain columns, and auxiliaries).
    pub vub: Vec<Option<usize>>,
    /// Right-hand side, normalized nonnegative.
    pub b: Vec<S>,
    /// Which columns are artificials.
    pub artificial: Vec<bool>,
    /// Number of artificial columns.
    pub n_art: usize,
    /// Whether the original row was sign-flipped during normalization.
    pub row_flip: Vec<bool>,
    /// The all-slack/artificial starting basis (one column per row).
    pub init_basis: Vec<usize>,
}

impl<S: Scalar> StandardForm<S> {
    /// Builds the standard form of `lp` (implicit variable bounds and VUBs
    /// stay implicit; they are *not* materialized as rows — except the
    /// constant bound of a variable that also carries a VUB, which becomes
    /// a trailing `≤` row so dependents never have two upper bounds).
    pub fn build(lp: &LpProblem<S>) -> StandardForm<S> {
        let n = lp.num_vars();
        // Constant bounds of VUB dependents get promoted to rows.
        let promoted: Vec<(usize, S)> = (0..n)
            .filter(|&v| lp.vub(v).is_some())
            .filter_map(|v| lp.upper(v).map(|u| (v, u.clone())))
            .collect();
        let rows = lp.constraints();
        let m = rows.len() + promoted.len();
        let mut b = Vec::with_capacity(m);
        let mut row_flip = Vec::with_capacity(m);
        let mut senses: Vec<Cmp> = Vec::with_capacity(m);
        // Count: each row a column appears in (repeated terms once), so
        // column `v`'s entries get `start[v]..start[v + 1]`.
        let mut start = vec![0usize; n + 1];
        let mut next = vec![usize::MAX; n]; // the last row counted, then the fill cursor
        for (i, c) in rows.iter().enumerate() {
            let flip = c.rhs.is_neg();
            for &(v, _) in &c.terms {
                if next[v] != i {
                    next[v] = i;
                    start[v + 1] += 1;
                }
            }
            b.push(if flip { c.rhs.neg() } else { c.rhs.clone() });
            row_flip.push(flip);
            senses.push(match (c.cmp, flip) {
                (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
                (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
                (Cmp::Eq, _) => Cmp::Eq,
            });
        }
        for (v, _) in &promoted {
            start[v + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        next.copy_from_slice(&start[..n]);
        // Fill, visiting rows in order so columns come out sorted: a
        // repeated term adds onto its row's entry, and an entry the row's
        // terms cancel to zero is dropped.
        let mut entries = vec![(0, S::zero()); start[n]];
        for (i, c) in rows.iter().enumerate() {
            for (v, coef) in &c.terms {
                let val = if row_flip[i] {
                    coef.neg()
                } else {
                    coef.clone()
                };
                let at = next[*v];
                if at > start[*v] && entries[at - 1].0 == i {
                    entries[at - 1].1 = entries[at - 1].1.add(&val);
                } else {
                    entries[at] = (i, val);
                    next[*v] = at + 1;
                }
            }
            for &(v, _) in &c.terms {
                let at = next[v];
                if at > start[v] && entries[at - 1].0 == i && entries[at - 1].1.is_zero_s() {
                    next[v] = at - 1;
                }
            }
        }
        // Promoted bound rows `x_v ≤ u` (rhs ≥ 0 by construction).
        for (v, u) in &promoted {
            let i = b.len();
            entries[next[*v]] = (i, S::one());
            next[*v] += 1;
            b.push(u.clone());
            row_flip.push(false);
            senses.push(Cmp::Le);
        }
        // Close the gaps that dropped entries left.
        if (0..n).any(|v| next[v] != start[v + 1]) {
            let mut kept = 0;
            for v in 0..n {
                let run = start[v]..next[v];
                start[v] = kept;
                for k in run {
                    entries.swap(kept, k);
                    kept += 1;
                }
            }
            start[n] = kept;
            entries.truncate(kept);
        }
        let mut cost: Vec<S> = lp.objective().to_vec();
        let mut upper: Vec<Option<S>> = (0..n)
            .map(|v| {
                if lp.vub(v).is_some() {
                    None // promoted to a row above
                } else {
                    lp.upper(v).cloned()
                }
            })
            .collect();
        let mut vub: Vec<Option<usize>> = (0..n).map(|v| lp.vub(v)).collect();
        let mut artificial = vec![false; n];
        // Slack/surplus columns, then artificials, in row order. This is
        // the one column layout of the crate: the dense tableau is filled
        // from it, so dense and revised bases index the same columns.
        let mut init_basis = vec![usize::MAX; m];
        let mut push_aux = |i: usize, coef: S, art: bool| -> usize {
            entries.push((i, coef));
            start.push(entries.len());
            cost.push(S::zero());
            upper.push(None);
            vub.push(None);
            artificial.push(art);
            start.len() - 2
        };
        for (i, sense) in senses.iter().enumerate() {
            match sense {
                Cmp::Le => init_basis[i] = push_aux(i, S::one(), false), // slack, starts basic
                Cmp::Ge => {
                    push_aux(i, S::one().neg(), false); // surplus
                }
                Cmp::Eq => {}
            }
        }
        let mut n_art = 0;
        for (i, sense) in senses.iter().enumerate() {
            if matches!(sense, Cmp::Ge | Cmp::Eq) {
                init_basis[i] = push_aux(i, S::one(), true);
                n_art += 1;
            }
        }
        let ncols = start.len() - 1;
        let cols = Columns { start, entries };
        debug_assert_eq!(cost.len(), ncols);
        debug_assert_eq!(upper.len(), ncols);
        debug_assert!(init_basis.iter().all(|&c| c != usize::MAX));
        StandardForm {
            m,
            ncols,
            nstruct: n,
            cols,
            cost,
            upper,
            vub,
            b,
            artificial,
            n_art,
            row_flip,
            init_basis,
        }
    }

    /// The same form with every number rounded to `f64`: the float pass
    /// searches over the image of the exact form it is certified against,
    /// column for column.
    pub(crate) fn to_f64(&self) -> StandardForm<f64> {
        let f = |v: &[S]| -> Vec<f64> { v.iter().map(Scalar::to_f64).collect() };
        StandardForm {
            m: self.m,
            ncols: self.ncols,
            nstruct: self.nstruct,
            cols: Columns {
                start: self.cols.start.clone(),
                entries: self
                    .cols
                    .entries
                    .iter()
                    .map(|(i, v)| (*i, v.to_f64()))
                    .collect(),
            },
            cost: f(&self.cost),
            upper: self
                .upper
                .iter()
                .map(|u| u.as_ref().map(Scalar::to_f64))
                .collect(),
            vub: self.vub.clone(),
            b: f(&self.b),
            artificial: self.artificial.clone(),
            n_art: self.n_art,
            row_flip: self.row_flip.clone(),
            init_basis: self.init_basis.clone(),
        }
    }
}

/// Iteration cap (termination safety net, mirrors the dense solver's).
fn iteration_cap(rows: usize, cols: usize) -> usize {
    10_000 + 64 * (rows + cols)
}

/// The revised-simplex working state over a `StandardForm<f64>`.
struct Rev<'a> {
    sf: &'a StandardForm<f64>,
    basis: Vec<usize>,
    /// Column → basis position (`usize::MAX` when nonbasic).
    pos: Vec<usize>,
    /// Resting state per column; changed only by [`Rev::set_state`].
    state: Vec<VarState>,
    /// Key column → the dependents currently glued to it (`AtVub`),
    /// ascending; kept in step with `state` by [`Rev::set_state`].
    glued: Vec<Vec<usize>>,
    /// The running phase's cost vector (see [`Rev::load_cost`]).
    cost: Vec<f64>,
    /// Key column → the summed cost of its glued dependents, so the key's
    /// basic cost is `cost[k] + aug_cost[k]`; kept in step by
    /// [`Rev::set_state`] (rebuilding it per iteration would cost
    /// O(total VUB memberships) — the O(n²)-class term this solver exists
    /// to avoid).
    aug_cost: Vec<f64>,
    /// Basic values, parallel to `basis`.
    xb: Vec<f64>,
    /// The LU of the augmented basis matrix at the last factorization,
    /// refactored in place through `lu_work`, which it keeps for the
    /// whole solve.
    lu: SparseLu<f64>,
    lu_work: LuWork<f64>,
    /// Product-form updates since the last refactorization, in order.
    etas: Vec<Eta>,
    /// The off-pivot entries of every eta, each eta's a contiguous run;
    /// past the last eta's `end`, the eta being built (see
    /// [`Rev::sparse_eta`]).
    eta_slab: Vec<(usize, f64)>,
    /// The input of the next FTRAN or BTRAN (the entering column, the
    /// right-hand side of the basic values, or the basic costs), which
    /// the solve destroys.
    work: Vec<f64>,
    /// The LU solves' intermediate vector.
    lu_scratch: Vec<f64>,
    /// FTRAN's output: the entering column's image `B̄⁻¹a_q`.
    w: Vec<f64>,
    /// BTRAN's output: the simplex multipliers of the current basis.
    y: Vec<f64>,
    barred: Vec<bool>,
    /// Pricing direction per column (see [`direction`]); kept in step by
    /// [`Rev::set_state`] and recomputed by [`Rev::load_cost`].
    dir: Vec<f64>,
    /// The columns that are some column's VUB key, ascending.
    keys: Vec<usize>,
    /// Scratch: the effective reduced costs of the columns priced this
    /// iteration (see [`Rev::effective_costs`]).
    eff: Vec<f64>,
    /// Partial-pricing rotation cursor.
    cursor: usize,
    /// The pass's counts, `phase1_pivots` set when phase 1 ends (or stops).
    stats: SolveStats,
    /// Whether the pass started from a caller's crash start rather than
    /// the all-slack basis.
    started: bool,
    /// Pivot budget (`0` = unlimited), from [`BoundedOptions`].
    pivot_budget: u64,
    /// Wall-clock deadline for this solve (`None` = unbudgeted).
    deadline: Option<Instant>,
    /// Iterations since the solve started (wall-clock check cadence).
    ticks: u64,
}

/// One product-form update: the basis column at position `r` was replaced
/// by a column whose `B⁻¹` image is the sparse vector with `pivot` at row
/// `r` and `eta_slab[start..end]` elsewhere. The pivot entry is stored
/// out-of-line so the FTRAN/BTRAN hot loops run branch-free over the rest.
struct Eta {
    r: usize,
    pivot: f64,
    start: usize,
    end: usize,
}

/// What the ratio test decided the step runs into.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hit {
    /// The entering variable reaches a resting state with no structural
    /// change: its opposite constant bound, or its VUB against a nonbasic
    /// key (from either side).
    FlipTo(VarState),
    /// The entering variable glues to its *basic* key (grows the key
    /// column).
    FlipGlue,
    /// The entering `AtVub` variable, glued to a *basic* key, comes off
    /// the glue all the way down to 0 (shrinks the key column).
    FlipUnglue,
    /// A basic variable leaves to the given resting state (`AtLower`,
    /// `AtUpper`, or `AtVub` against a nonbasic key) — an ordinary pivot.
    Leave(usize, VarState),
    /// A basic dependent hits its VUB against a basic key (or against the
    /// entering key): it leaves the basis glued, growing the key column.
    LeaveGlue(usize),
}

/// The ratio test's running winner: the shortest step, ties (within
/// 1e-12) broken towards the larger pivot magnitude.
struct Nearest {
    t: f64,
    hit: Hit,
    mag: f64,
}

impl Nearest {
    fn consider(&mut self, t: f64, mag: f64, hit: Hit) {
        let t = t.max(0.0);
        let tie = (t - self.t).abs() <= 1e-12;
        if t < self.t - 1e-12 || (tie && mag > self.mag) {
            self.t = t;
            self.hit = hit;
            self.mag = mag;
        }
    }
}

impl<'a> Rev<'a> {
    /// The solver at its starting basis: `start` (a crash start in this
    /// form's columns) when its states fit the form, it is nonsingular and
    /// its basic values lie within their bounds and VUBs — artificials may
    /// be positive, phase 1 is there for them — else the all-slack basis.
    /// Either is factored once and is not counted as a refactorization.
    fn new(sf: &'a StandardForm<f64>, start: Option<&BasisSnapshot>) -> Rev<'a> {
        let mut keys: Vec<usize> = sf.vub.iter().flatten().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        // No basis matrix of the form has more nonzeros than the form, and
        // on LP1 no slab of the LU's elimination outgrows this room.
        let room = sf.cols.entries.len() + 2 * sf.m;
        let mut rev = Rev {
            sf,
            basis: Vec::new(),
            pos: Vec::new(),
            state: Vec::new(),
            glued: Vec::new(),
            cost: vec![0.0; sf.ncols],
            aug_cost: vec![0.0; sf.ncols],
            xb: vec![0.0; sf.m],
            lu: SparseLu::with_capacity(sf.m, room),
            lu_work: LuWork::with_capacity(sf.m, room),
            // A step files at most three etas, and the file refactorizes
            // once it holds REFACTOR_EVERY.
            etas: Vec::with_capacity(REFACTOR_EVERY + 2),
            eta_slab: Vec::new(),
            work: vec![0.0; sf.m],
            lu_scratch: vec![0.0; sf.m],
            w: vec![0.0; sf.m],
            y: vec![0.0; sf.m],
            barred: vec![false; sf.ncols],
            dir: vec![0.0; sf.ncols],
            keys,
            eff: vec![0.0; sf.ncols],
            cursor: 0,
            stats: SolveStats::default(),
            started: false,
            pivot_budget: 0,
            deadline: None,
            ticks: 0,
        };
        if let Some((snap, pos)) =
            start.and_then(|snap| Some((snap, snapshot_positions(sf, snap)?)))
        {
            rev.basis.clone_from(&snap.basis);
            rev.state.clone_from(&snap.state);
            rev.pos = pos;
            rev.glued = glued_lists(sf, &rev.state);
            if rev.factor() {
                rev.recompute_xb();
                rev.started = rev.primal_feasible();
            }
        }
        if !rev.started {
            rev.all_slack();
            rev.recompute_xb();
        }
        rev
    }

    /// Installs the all-slack/artificial basis of `sf` and factors it: a
    /// unit column per row, so never singular.
    fn all_slack(&mut self) {
        let sf = self.sf;
        self.basis.clone_from(&sf.init_basis);
        self.state = vec![VarState::AtLower; sf.ncols];
        self.pos = vec![usize::MAX; sf.ncols];
        for (i, &j) in self.basis.iter().enumerate() {
            self.state[j] = VarState::Basic;
            self.pos[j] = i;
        }
        self.glued = vec![Vec::new(); sf.ncols];
        assert!(self.factor(), "the all-slack basis is an identity");
    }

    /// Factors the augmented basis matrix into `lu` in place, each basis
    /// column gathered with its glued dependents' columns straight into
    /// the workspace (the sum [`augmented_column`] builds). `false` if it
    /// is singular.
    fn factor(&mut self) -> bool {
        let _span = abt_core::obs_span!("solve.factor");
        let cols = &self.sf.cols;
        self.lu_work.load(self.sf.m);
        for &j in &self.basis {
            let summed = std::iter::once(&j).chain(&self.glued[j]);
            self.lu_work.push_column(summed.map(|&g| &cols[g]));
        }
        self.lu.refactor(&mut self.lu_work)
    }

    /// Which budget, if any, is exhausted. Called at the top of every
    /// pivot-loop iteration; the wall clock is only read every
    /// [`TIME_CHECK_EVERY`] iterations.
    fn budget_trip(&mut self) -> Option<BudgetKind> {
        if self.pivot_budget != 0 && self.stats.pivots >= self.pivot_budget {
            return Some(BudgetKind::Pivots);
        }
        if let Some(deadline) = self.deadline {
            self.ticks += 1;
            if self.ticks.is_multiple_of(TIME_CHECK_EVERY) && Instant::now() >= deadline {
                return Some(BudgetKind::Time);
            }
        }
        None
    }

    /// Consumes the solver state into its result. `Stalled` and `Budget`
    /// results carry no basis/state, matching the contract that neither is
    /// a verdict, and only an `Optimal` one carries the basic values and
    /// the multipliers of the pricing pass that found no entering column.
    fn finish(self, status: BoundedStatus) -> BoundedBasis {
        let blank = matches!(status, BoundedStatus::Stalled | BoundedStatus::Budget(_));
        let optimal = status == BoundedStatus::Optimal;
        let values = |v: Vec<f64>| if optimal { v } else { Vec::new() };
        BoundedBasis {
            status,
            basis: if blank { Vec::new() } else { self.basis },
            state: if blank { Vec::new() } else { self.state },
            stats: self.stats,
            xb: values(self.xb),
            y: values(self.y),
        }
    }

    /// Whether the basic values lie within their bounds and VUB caps
    /// (against basic or resting keys), within [`FEAS_TOL`]. A basic
    /// artificial may be positive: phase 1 is there for it.
    fn primal_feasible(&self) -> bool {
        let sf = self.sf;
        (0..sf.m).all(|i| {
            let vi = self.basis[i];
            let x = self.xb[i];
            if x < -FEAS_TOL {
                return false;
            }
            if sf.upper[vi].is_some_and(|u| x > u + FEAS_TOL) {
                return false;
            }
            sf.vub[vi].is_none_or(|k| {
                let kv = if self.pos[k] == usize::MAX {
                    self.key_rest_value(k)
                } else {
                    self.xb[self.pos[k]]
                };
                x <= kv + FEAS_TOL
            })
        })
    }

    /// The sum of the positive basic artificials: the phase-1 objective.
    fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .filter(|(&j, _)| self.sf.artificial[j])
            .map(|(_, &v)| v.max(0.0))
            .sum()
    }

    /// Bars every artificial from entering the basis (phase 2).
    fn bar_artificials(&mut self) {
        for j in 0..self.sf.ncols {
            if self.sf.artificial[j] {
                self.barred[j] = true;
            }
        }
    }

    /// Makes `cost` the running phase's objective, sums each key's glued
    /// dependents' costs, in ascending order, into `aug_cost`, and sets
    /// every column's pricing direction.
    fn load_cost(&mut self, cost: &[f64]) {
        self.cost.copy_from_slice(cost);
        for (sum, glued) in self.aug_cost.iter_mut().zip(&self.glued) {
            *sum = glued.iter().fold(0.0, |acc, &j| acc + cost[j]);
        }
        for ((dir, &state), &barred) in self.dir.iter_mut().zip(&self.state).zip(&self.barred) {
            *dir = direction(state, barred);
        }
    }

    /// Moves column `j` to resting state `to` — the one place a state
    /// changes — keeping its pricing direction, and its key's glued list
    /// (ascending) and augmented cost, in step.
    fn set_state(&mut self, j: usize, to: VarState) {
        let from = std::mem::replace(&mut self.state[j], to);
        if from == to {
            return;
        }
        self.dir[j] = direction(to, self.barred[j]);
        if from == VarState::AtVub {
            let k = self.sf.vub[j].expect("AtVub implies a VUB");
            let list = &mut self.glued[k];
            let at = list.binary_search(&j).expect("a glued dependent is listed");
            list.remove(at);
            self.aug_cost[k] -= self.cost[j];
        }
        if to == VarState::AtVub {
            let k = self.sf.vub[j].expect("AtVub implies a VUB");
            let list = &mut self.glued[k];
            let at = list
                .binary_search(&j)
                .expect_err("an unglued dependent is not listed");
            list.insert(at, j);
            self.aug_cost[k] += self.cost[j];
        }
    }

    /// Opens the eta of `w` on the slab's tail: keeps the pivot entry at
    /// `r` unconditionally and drops other near-zero entries. The step may
    /// adjust the open eta ([`Rev::bump`]) before [`Rev::push_eta`] files
    /// it.
    fn sparse_eta(&mut self, r: usize) {
        for (i, &v) in self.w.iter().enumerate() {
            if i == r || v.abs() > 1e-12 {
                self.eta_slab.push((i, v));
            }
        }
    }

    /// Where the open eta starts on the slab: the end of the last filed
    /// one.
    fn open_start(&self) -> usize {
        self.etas.last().map_or(0, |e| e.end)
    }

    /// Adds `delta` to the open eta's entry at row `r` (present or not).
    fn bump(&mut self, r: usize, delta: f64) {
        let open = self.open_start();
        match self.eta_slab[open..].iter_mut().find(|(i, _)| *i == r) {
            Some(e) => e.1 += delta,
            None => self.eta_slab.push((r, delta)),
        }
    }

    /// The resting value of a *nonbasic* key (`AtLower`/`AtUpper` only —
    /// keys are never `AtVub`, families are flat).
    fn key_rest_value(&self, k: usize) -> f64 {
        match self.state[k] {
            VarState::AtLower => 0.0,
            VarState::AtUpper => self.sf.upper[k].expect("AtUpper implies a finite bound"),
            VarState::Basic | VarState::AtVub => unreachable!("not a nonbasic key"),
        }
    }

    /// `xb = B̄⁻¹·(b − Σ_{j at a fixed value} val_j·A_j)` from scratch.
    /// Fixed values: constant upper bounds and dependents glued to
    /// *nonbasic* keys (dependents glued to basic keys ride inside the
    /// augmented basis columns instead).
    fn recompute_xb(&mut self) {
        self.work.copy_from_slice(&self.sf.b);
        for j in 0..self.sf.ncols {
            let val = match self.state[j] {
                VarState::AtUpper => self.sf.upper[j].expect("AtUpper implies a finite bound"),
                VarState::AtVub => {
                    let k = self.sf.vub[j].expect("AtVub implies a VUB");
                    if self.pos[k] == usize::MAX {
                        self.key_rest_value(k)
                    } else {
                        continue; // inside the augmented key column
                    }
                }
                VarState::Basic | VarState::AtLower => continue,
            };
            if val != 0.0 {
                for &(i, v) in &self.sf.cols[j] {
                    self.work[i] -= val * v;
                }
            }
        }
        // The image lands in `w`; the swap makes it the basic values and
        // leaves the old ones for the next FTRAN to overwrite.
        self.ftran();
        std::mem::swap(&mut self.xb, &mut self.w);
    }

    /// FTRAN: `w = B̄⁻¹·work` through the LU and the eta file (`work` is
    /// destroyed).
    fn ftran(&mut self) {
        faultinject::hit("panic_in_ftran");
        let x = &mut self.w;
        self.lu.solve_into(&mut self.work, &mut self.lu_scratch, x);
        for e in &self.etas {
            let t = x[e.r] / e.pivot;
            if t != 0.0 {
                for &(i, wi) in &self.eta_slab[e.start..e.end] {
                    x[i] -= wi * t;
                }
            }
            x[e.r] = t;
        }
    }

    /// BTRAN: `y = B̄⁻ᵀ·work` through the eta file and the LU (`work` is
    /// destroyed).
    fn btran(&mut self) {
        let c = &mut self.work;
        for e in self.etas.iter().rev() {
            let mut acc = 0.0;
            for &(i, wi) in &self.eta_slab[e.start..e.end] {
                acc += c[i] * wi;
            }
            c[e.r] = (c[e.r] - acc) / e.pivot;
        }
        self.lu
            .solve_transposed_into(c, &mut self.lu_scratch, &mut self.y);
    }

    /// Refactors the current basis and clears the eta file; `false` if
    /// the basis is singular (the pass then stalls).
    fn refactor(&mut self) -> bool {
        if !self.factor() {
            return false;
        }
        self.etas.clear();
        self.eta_slab.clear();
        self.stats.refactorizations += 1;
        self.recompute_xb();
        true
    }

    /// Files the open eta as the update of basis row `r`. Its pivot entry
    /// (row `r`) is split out for the branch-free application loops, by
    /// the `swap_remove` that moves the eta's last entry into its place.
    fn push_eta(&mut self, r: usize) {
        let start = self.open_start();
        let at = self.eta_slab[start..]
            .iter()
            .position(|&(i, _)| i == r)
            .expect("eta stores its pivot entry");
        let pivot = self.eta_slab.swap_remove(start + at).1;
        debug_assert!(pivot != 0.0);
        let end = self.eta_slab.len();
        self.etas.push(Eta {
            r,
            pivot,
            start,
            end,
        });
    }

    /// Grows (`sign = 1`) or shrinks (`sign = −1`) the key column at
    /// position `pk` by the column basic at `r`, whose image is `e_r`: the
    /// eta `(pk, e_pk + sign·e_r)`, pivot exactly 1. No eta may be open.
    fn key_eta(&mut self, pk: usize, r: usize, sign: f64) {
        self.eta_slab.extend([(r, sign), (pk, 1.0)]);
        self.push_eta(pk);
    }

    /// Whether the eta file is long or dense enough to refactorize (its
    /// entries, pivots included, past a multiple of the row count).
    fn eta_file_full(&self) -> bool {
        self.etas.len() >= REFACTOR_EVERY
            || self.eta_slab.len() + self.etas.len() >= ETA_NNZ_PER_ROW * self.sf.m
    }

    /// Entering-column selection over the effective reduced costs (see
    /// [`Rev::effective_costs`]): Bland (full scan, lowest index), full
    /// Dantzig (`window == 0`), or rotating-window partial pricing: price
    /// `window` columns starting at the cursor; the first window holding
    /// an improving candidate yields its best (Dantzig within the
    /// window), and only a full fruitless cycle certifies optimality. The
    /// rotation doubles as diversification — always chasing the single
    /// most negative reduced cost concentrates the pivots in one VUB
    /// family and multiplies degenerate glue/unglue churn.
    fn price(&mut self, bland: bool, window: usize) -> Option<usize> {
        let ncols = self.sf.ncols;
        if bland || window == 0 || window >= ncols {
            self.effective_costs(0..ncols);
            let e = &self.eff;
            return if bland {
                e.iter().position(|&v| v < -ENTER_TOL)
            } else {
                most_improving(e, 0, &[])
            };
        }
        let mut scanned = 0;
        while scanned < ncols {
            // The block `cursor..cursor + block`, wrapped: at most two
            // slices, the second starting at column 0.
            let block = window.min(ncols - scanned);
            let start = self.cursor;
            let end = start + block;
            let (first, second) = (start..end.min(ncols), 0..end.saturating_sub(ncols));
            self.effective_costs(first.clone());
            self.effective_costs(second.clone());
            let best = most_improving(&self.eff[first], start, &self.eff[second]);
            self.cursor = if end >= ncols { end - ncols } else { end };
            scanned += block;
            if best.is_some() {
                return best;
            }
        }
        None
    }

    /// Fills `eff[cols]` with those columns' effective improving reduced
    /// costs (negative = improving) in three straight passes:
    ///
    /// 1. the plain reduced cost `d_j = c_j − y·A_j` of each column, over
    ///    the multipliers [`Rev::y`];
    /// 2. each key's `d̄_k = d_k + Σ_{glued j} d_j` over its glued list, in
    ///    ascending order (its glued dependents move with it; theirs are
    ///    computed afresh, as they may lie outside `cols`);
    /// 3. times the column's direction (see [`direction`]): `d̄_j` rising
    ///    from the lower bound, `−d̄_j` descending from the upper bound,
    ///    `−d_j` coming off the glue (a glued dependent is never a key, so
    ///    its value is still plain — the key stays put), and 0 for basic
    ///    and barred columns, which therefore never price as improving.
    ///
    /// Only the priced block is filled, so an iteration's work follows the
    /// pricing window, not the column count.
    fn effective_costs(&mut self, cols: Range<usize>) {
        let slab = &self.sf.cols;
        let y = self.y.as_slice();
        let reduced = |c: f64, entries: &[(usize, f64)]| {
            let mut d = c;
            for &(i, v) in entries {
                d -= y[i] * v;
            }
            d
        };
        let e = &mut self.eff[cols.clone()];
        let spans = slab.start[cols.start..=cols.end].windows(2);
        for ((out, &c), span) in e.iter_mut().zip(&self.cost[cols.clone()]).zip(spans) {
            *out = reduced(c, &slab.entries[span[0]..span[1]]);
        }
        let lo = self.keys.partition_point(|&k| k < cols.start);
        let hi = self.keys.partition_point(|&k| k < cols.end);
        for &k in &self.keys[lo..hi] {
            let at = k - cols.start;
            e[at] = self.glued[k]
                .iter()
                .fold(e[at], |acc, &dep| acc + reduced(self.cost[dep], &slab[dep]));
        }
        for (out, &dir) in e.iter_mut().zip(&self.dir[cols]) {
            *out *= dir;
        }
    }

    /// Runs the simplex loop for the cost vector `cost`. With
    /// `freeze_artificials` (phase 2), basic artificials are treated as
    /// having upper bound 0 in the ratio test, so no pivot can ever move
    /// them off zero — without it a cost-0 artificial could silently
    /// re-absorb constraint violation. Returns `Optimal` when pricing
    /// finds no entering column (its multipliers are left in `y`), else
    /// what stopped the loop; never `Infeasible`.
    fn optimize(&mut self, cost: &[f64], freeze_artificials: bool, window: usize) -> BoundedStatus {
        self.load_cost(cost);
        let mut bland = false;
        let mut degenerate_run = 0usize;
        for _ in 0..iteration_cap(self.sf.m, self.sf.ncols) {
            if let Some(kind) = self.budget_trip() {
                return BoundedStatus::Budget(kind);
            }
            faultinject::hit("panic_in_pivot");
            // Simplex multipliers for the current (augmented) basis, from
            // its basic costs.
            for (slot, &v) in self.work.iter_mut().zip(&self.basis) {
                *slot = self.cost[v] + self.aug_cost[v];
            }
            self.btran();
            #[cfg(test)]
            let reference_cursor = self.cursor;
            let entering = self.price(bland, window);
            #[cfg(test)]
            self.check_pricing(bland, window, entering, reference_cursor);
            let Some(q) = entering else {
                return BoundedStatus::Optimal;
            };
            let t = match self.step(q, freeze_artificials) {
                Ok((_, t)) => t,
                Err(outcome) => return outcome,
            };
            if t <= ENTER_TOL {
                degenerate_run += 1;
                if degenerate_run >= DEGENERATE_SWITCH {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }
        }
        BoundedStatus::Stalled
    }

    /// One iteration once pricing chose `q`: the FTRAN of its column, the
    /// ratio test and the update. Returns what the step ran into and its
    /// length, or the status that ends the pass.
    fn step(&mut self, q: usize, freeze_artificials: bool) -> Result<(Hit, f64), BoundedStatus> {
        // Direction: +1 when rising from the lower bound, −1 when
        // descending from the upper bound or coming off the VUB glue.
        let sigma = if self.state[q] == VarState::AtLower {
            1.0
        } else {
            -1.0
        };
        // Entering column: augmented when q is a key whose glued
        // dependents ride along; the dependents of a *basic* key stay
        // inside the basis matrix, so an entering AtVub dependent uses
        // its plain column (the t-parametrization of the glue slack).
        self.work.fill(0.0);
        for &j in std::iter::once(&q).chain(&self.glued[q]) {
            for &(i, v) in &self.sf.cols[j] {
                self.work[i] += v;
            }
        }
        self.ftran();
        let Some((t, hit)) = self.ratio_test(q, sigma, freeze_artificials) else {
            return Err(BoundedStatus::Unbounded);
        };
        self.apply(q, sigma, t, hit);
        if self.eta_file_full() && !self.refactor() {
            return Err(BoundedStatus::Stalled);
        }
        Ok((hit, t))
    }

    /// The ratio test of entering `q` along direction `σ`, `w = B̄⁻¹a_q`:
    /// the step length and what it runs into, or `None` when nothing
    /// bounds the step (unbounded).
    fn ratio_test(&self, q: usize, sigma: f64, freeze_artificials: bool) -> Option<(f64, Hit)> {
        let w = self.w.as_slice();
        let mut near = Nearest {
            t: f64::INFINITY,
            hit: Hit::FlipTo(VarState::AtLower), // overwritten below
            mag: 0.0,
        };
        // Entering variable's own span first (the bound-flip family).
        match self.state[q] {
            VarState::AtLower => {
                if let Some(u) = self.sf.upper[q] {
                    near.consider(u, 0.0, Hit::FlipTo(VarState::AtUpper));
                }
                if let Some(k) = self.sf.vub[q] {
                    if self.pos[k] == usize::MAX {
                        let span = self.key_rest_value(k);
                        near.consider(span, 0.0, Hit::FlipTo(VarState::AtVub));
                    } else {
                        // Rising towards a basic key: meet when
                        // t = xb_k / (1 + σ·w_k).
                        let pk = self.pos[k];
                        let den = 1.0 + sigma * w[pk];
                        if den > PIV_TOL {
                            near.consider(self.xb[pk].max(0.0) / den, den.abs(), Hit::FlipGlue);
                        }
                    }
                }
            }
            VarState::AtUpper => {
                // Dependents never rest AtUpper (their constant bounds
                // are promoted rows), so the only span is down to 0.
                let u = self.sf.upper[q].expect("AtUpper implies a finite bound");
                near.consider(u, 0.0, Hit::FlipTo(VarState::AtLower));
            }
            VarState::AtVub => {
                let k = self.sf.vub[q].expect("AtVub implies a VUB");
                if self.pos[k] == usize::MAX {
                    let span = self.key_rest_value(k);
                    near.consider(span, 0.0, Hit::FlipTo(VarState::AtLower));
                } else {
                    // Descending off a basic key towards 0: the key's
                    // value drifts too, meet at t = xb_k / (1 + σ·w_k).
                    let pk = self.pos[k];
                    let den = 1.0 + sigma * w[pk];
                    if den > PIV_TOL {
                        near.consider(self.xb[pk].max(0.0) / den, den.abs(), Hit::FlipUnglue);
                    }
                }
            }
            VarState::Basic => unreachable!(),
        }
        // Basic variables hitting a bound.
        for i in 0..self.sf.m {
            let vi = self.basis[i];
            let d = sigma * w[i];
            if d > PIV_TOL {
                near.consider(
                    self.xb[i].max(0.0) / d,
                    d.abs(),
                    Hit::Leave(i, VarState::AtLower),
                );
            } else if d < -PIV_TOL {
                // Ceilings: frozen artificials, constant bounds, and
                // VUBs against nonbasic keys.
                let mut ub = if freeze_artificials && self.sf.artificial[vi] {
                    Some((0.0, VarState::AtLower))
                } else {
                    self.sf.upper[vi].map(|u| (u, VarState::AtUpper))
                };
                // A nonbasic key is a fixed ceiling — unless it is the
                // entering variable itself (about to move/turn basic),
                // which the pairwise branch below handles as a glue.
                if let Some(k) = self.sf.vub[vi] {
                    if self.pos[k] == usize::MAX && k != q {
                        let vk = self.key_rest_value(k);
                        if ub.map(|(u, _)| vk < u) != Some(false) {
                            ub = Some((vk, VarState::AtVub));
                        }
                    }
                }
                if let Some((u, to)) = ub {
                    near.consider((u - self.xb[i]).max(0.0) / -d, d.abs(), Hit::Leave(i, to));
                }
            }
            // Pairwise VUB limits: a basic dependent closing on its
            // basic key, or on the entering variable when that is its
            // key.
            if let Some(k) = self.sf.vub[vi] {
                if self.pos[k] != usize::MAX {
                    let pk = self.pos[k];
                    let rate = sigma * (w[pk] - w[i]);
                    if rate > PIV_TOL {
                        let s = (self.xb[pk] - self.xb[i]).max(0.0);
                        near.consider(s / rate, rate.abs(), Hit::LeaveGlue(i));
                    }
                } else if k == q {
                    // Entering key vs its basic dependent: the slack
                    // (val_q + σt) − (xb_i − σ t w_i) shrinks when
                    // σ(1 + w_i) < 0.
                    let start = match self.state[q] {
                        VarState::AtLower => 0.0,
                        VarState::AtUpper => {
                            self.sf.upper[q].expect("AtUpper implies a finite bound")
                        }
                        _ => unreachable!("keys are never AtVub"),
                    };
                    let rate = -sigma * (1.0 + w[i]);
                    if rate > PIV_TOL {
                        let s = (start - self.xb[i]).max(0.0);
                        near.consider(s / rate, rate.abs(), Hit::LeaveGlue(i));
                    }
                }
            }
        }
        near.t.is_finite().then_some((near.t, near.hit))
    }

    /// Moves the basic values a step `t` along `−σ·w`, except at row
    /// `skip` (the row the entering variable takes over, or `usize::MAX`).
    fn advance(&mut self, sigma: f64, t: f64, skip: usize) {
        if t > 0.0 {
            for (i, x) in self.xb.iter_mut().enumerate() {
                if i != skip {
                    *x -= sigma * t * self.w[i];
                }
            }
        }
    }

    /// Applies the step: values, states, and the product-form update of
    /// the basis matrix.
    ///
    /// Glue/unglue events change basis *columns* (augmented key columns
    /// grow or shrink), not just which columns are basic. Each change is
    /// the rank-one update `B ← B ± A_col·e_p^T`, absorbed as one eta, and
    /// every eta's pivot is either exactly 1 or an entry the ratio test
    /// kept above [`PIV_TOL`], so no event refactorizes. When one step
    /// changes several columns, the etas go in an order that keeps every
    /// intermediate basis nonsingular: grow a key column (pivot 1), then
    /// install the entering column at the leaving row `r`, then shrink the
    /// key column the entering variable came off by its own column — which
    /// by then is basis column `r`, image `e_r` (pivot 1).
    fn apply(&mut self, q: usize, sigma: f64, t: f64, hit: Hit) {
        // When q was glued to a basic key, its departure shrinks that key
        // column whatever else happens; capture the key's position now —
        // the bookkeeping below may move or evict the key.
        let unglue_pk: Option<usize> = (self.state[q] == VarState::AtVub)
            .then(|| self.pos[self.sf.vub[q].expect("AtVub implies a VUB")])
            .filter(|&pk| pk != usize::MAX);
        // The value the entering variable takes if it pivots into the
        // basis at step t, against the pre-update basic values: the
        // t-parametrization off a basic key (v_q(t) = xb_pk +
        // t·(w_pk − 1)), an ascent from 0, or a descent from the
        // constant bound / nonbasic key's value.
        let enter_value = if let Some(pk) = unglue_pk {
            self.xb[pk] + t * (self.w[pk] - 1.0)
        } else if sigma > 0.0 {
            t
        } else {
            let start = match self.sf.upper[q] {
                Some(u) => u,
                None => {
                    let k = self.sf.vub[q].expect("descent needs a bound");
                    self.key_rest_value(k)
                }
            };
            start - t
        };
        match hit {
            Hit::FlipTo(new_state) => {
                // Entering flips between fixed resting values; only
                // possible with a nonbasic (or absent) key, so no column
                // changes. (An entering variable glued to a basic key
                // meets FlipUnglue, never FlipTo.)
                debug_assert!(unglue_pk.is_none());
                self.advance(sigma, t, usize::MAX);
                self.set_state(q, new_state);
                self.stats.bound_flips += 1;
            }
            Hit::FlipGlue => {
                // q (a dependent, plain column — deps are never keys)
                // rises onto its basic key at position pk:
                // B ← B + A_q·e_pk^T, eta (pk, w + e_pk) with pivot
                // 1 + w_pk > PIV_TOL by the den check.
                let pk = self.pos[self.sf.vub[q].expect("FlipGlue implies a VUB")];
                self.advance(sigma, t, usize::MAX);
                self.set_state(q, VarState::AtVub);
                self.stats.bound_flips += 1;
                self.sparse_eta(pk);
                self.bump(pk, 1.0);
                self.push_eta(pk);
            }
            Hit::FlipUnglue => {
                // q comes off its basic key down to 0:
                // B ← B − A_q·e_pk^T, eta (pk, −w + e_pk) with pivot
                // 1 − w_pk > PIV_TOL by the den check.
                let pk = self.pos[self.sf.vub[q].expect("FlipUnglue implies a VUB")];
                self.advance(sigma, t, usize::MAX);
                self.set_state(q, VarState::AtLower);
                self.stats.bound_flips += 1;
                self.sparse_eta(pk);
                let open = self.open_start();
                for e in &mut self.eta_slab[open..] {
                    e.1 = -e.1;
                }
                self.bump(pk, 1.0);
                self.push_eta(pk);
            }
            Hit::Leave(r, to) => {
                let lvar = self.basis[r];
                self.pivot_in(q, r, sigma, t, enter_value);
                self.set_state(lvar, to);
                // Install A_q at r: eta (r, w), pivot w_r (|w_r| > PIV_TOL
                // by the ratio test). When q came off a basic key at
                // pk == r the key itself left, and this is the whole
                // update.
                self.sparse_eta(r);
                self.push_eta(r);
                if let Some(pk) = unglue_pk.filter(|&pk| pk != r) {
                    self.key_eta(pk, r, -1.0);
                }
            }
            Hit::LeaveGlue(r) => {
                // The basic dependent at row r leaves glued to its key —
                // already basic at pk, or the entering q itself. Its
                // column A_dep is the current basis column r, so
                // B⁻¹A_dep = e_r exactly and the glue etas are analytic.
                let lvar = self.basis[r];
                let key = self.sf.vub[lvar].expect("LeaveGlue implies a VUB");
                let pk = self.pos[key];
                self.pivot_in(q, r, sigma, t, enter_value);
                self.set_state(lvar, VarState::AtVub);
                let delta = if pk != usize::MAX {
                    // Key basic at pk: grow its column by A_dep (pivot
                    // 1), then install the entering column, whose
                    // direction against the grown basis differs from w
                    // only at r: w_r − w_pk (|·| = the ratio-test rate).
                    self.key_eta(pk, r, 1.0);
                    -self.w[pk]
                } else {
                    // The key is the entering q: install the augmented
                    // column plus the fresh glue in one eta with pivot
                    // 1 + w_r (|·| = the ratio-test rate).
                    debug_assert_eq!(key, q);
                    1.0
                };
                self.sparse_eta(r);
                self.bump(r, delta);
                self.push_eta(r);
                if let Some(pkq) = unglue_pk {
                    self.key_eta(pkq, r, -1.0);
                }
            }
        }
    }

    /// The basis bookkeeping of a pivot: `q` turns basic at row `r`
    /// (whose variable the caller then moves to its resting state) with
    /// value `enter_value`, the other basic values advance by the step.
    fn pivot_in(&mut self, q: usize, r: usize, sigma: f64, t: f64, enter_value: f64) {
        let lvar = self.basis[r];
        self.set_state(q, VarState::Basic);
        self.pos[lvar] = usize::MAX;
        self.basis[r] = q;
        self.pos[q] = r;
        self.stats.pivots += 1;
        self.advance(sigma, t, r);
        self.xb[r] = enter_value;
    }
}

/// Checks a start's states against `sf` — its shape, finite bounds
/// where states claim them, VUBs where glue states claim them, flat
/// families, exactly `m` basic columns matching the basis vector — and
/// returns its column → basis position map.
fn snapshot_positions(sf: &StandardForm<f64>, snap: &BasisSnapshot) -> Option<Vec<usize>> {
    if snap.basis.len() != sf.m || snap.state.len() != sf.ncols {
        return None;
    }
    let mut basic_count = 0usize;
    for j in 0..sf.ncols {
        let fits = match snap.state[j] {
            VarState::Basic => {
                basic_count += 1;
                true
            }
            VarState::AtUpper => sf.upper[j].is_some(),
            VarState::AtVub => sf.vub[j].is_some_and(|k| snap.state[k] != VarState::AtVub),
            VarState::AtLower => true,
        };
        if !fits {
            return None;
        }
    }
    if basic_count != sf.m {
        return None;
    }
    let mut pos = vec![usize::MAX; sf.ncols];
    for (i, &j) in snap.basis.iter().enumerate() {
        if j >= sf.ncols || snap.state[j] != VarState::Basic || pos[j] != usize::MAX {
            return None;
        }
        pos[j] = i;
    }
    Some(pos)
}

/// The pricing direction of a column resting in `state`: +1 rising from
/// the lower bound, −1 descending from the upper bound or coming off the
/// glue, 0 for a basic or barred column (it never enters).
fn direction(state: VarState, barred: bool) -> f64 {
    match state {
        VarState::AtLower if !barred => 1.0,
        VarState::AtUpper | VarState::AtVub if !barred => -1.0,
        _ => 0.0,
    }
}

/// The column of the strict minimum below `−ENTER_TOL` over `first`
/// (columns `offset..`) and then `second` (columns `0..`), the earliest
/// one on a tie; `None` when no value is that low.
fn most_improving(first: &[f64], offset: usize, second: &[f64]) -> Option<usize> {
    let mut best = (usize::MAX, -ENTER_TOL);
    for (j, &v) in first.iter().enumerate() {
        if v < best.1 {
            best = (offset + j, v);
        }
    }
    for (j, &v) in second.iter().enumerate() {
        if v < best.1 {
            best = (j, v);
        }
    }
    (best.0 != usize::MAX).then_some(best.0)
}

/// Key column → its dependents glued to it under `state`, ascending.
fn glued_lists(sf: &StandardForm<f64>, state: &[VarState]) -> Vec<Vec<usize>> {
    let mut glued = vec![Vec::new(); sf.ncols];
    for (j, s) in state.iter().enumerate() {
        if *s == VarState::AtVub {
            glued[sf.vub[j].expect("AtVub implies a VUB")].push(j);
        }
    }
    glued
}

/// The augmented (Schrage key) column `A_base + Σ_{j ∈ glued} A_j` as a
/// sorted sparse merge: the exact certification's basis columns. The
/// float pass gathers the same sums straight into its LU workspace
/// ([`LuWork::push_column`]), so the two sides build the same basis matrix.
pub(crate) fn augmented_column<S: Scalar>(
    cols: &Columns<S>,
    base: usize,
    glued: &[usize],
) -> Vec<(usize, S)> {
    if glued.is_empty() {
        return cols[base].to_vec();
    }
    let mut merged = cols[base].to_vec();
    for &j in glued {
        merged.extend_from_slice(&cols[j]);
    }
    merged.sort_unstable_by_key(|e| e.0);
    let mut out: Vec<(usize, S)> = Vec::with_capacity(merged.len());
    for (i, val) in merged {
        match out.last_mut() {
            Some(last) if last.0 == i => last.1 = last.1.add(&val),
            _ => out.push((i, val)),
        }
    }
    out
}

/// Two-phase bounded revised simplex over a `StandardForm<f64>` under
/// `opts`, from a crash start in `sf`'s columns (see the module docs) or,
/// with `None` or a start that fails its checks, the all-slack basis. The
/// result is a *proposal*: callers must verify `Optimal` outcomes exactly
/// and must treat every other status as "rerun exactly".
pub fn solve_bounded_f64_with(
    sf: &StandardForm<f64>,
    opts: &BoundedOptions,
    start: Option<&BasisSnapshot>,
) -> BoundedBasis {
    let mut span = abt_core::obs_span!("solve.pivot", cols = sf.ncols, rows = sf.m);
    let mut rev = Rev::new(sf, start);
    // The wall-clock deadline starts now and covers both phases.
    rev.pivot_budget = opts.pivot_budget;
    rev.deadline = opts.stage_deadline();
    let window = opts.pricing_window;
    // From the all-slack basis phase 1 runs whenever the form has
    // artificials; from a crash start only while a basic artificial is
    // positive.
    let phase1 = if rev.started {
        rev.infeasibility() > FEAS_TOL
    } else {
        sf.n_art > 0
    };
    let status = 'pass: {
        if phase1 {
            let cost1: Vec<f64> = (0..sf.ncols)
                .map(|j| if sf.artificial[j] { 1.0 } else { 0.0 })
                .collect();
            let outcome = rev.optimize(&cost1, false, window);
            rev.stats.phase1_pivots = rev.stats.pivots;
            match outcome {
                BoundedStatus::Optimal => {}
                BoundedStatus::Budget(k) => break 'pass BoundedStatus::Budget(k),
                // Phase 1 is bounded below by 0; treat anything else as a
                // stall.
                _ => break 'pass BoundedStatus::Stalled,
            }
            if rev.infeasibility() > FEAS_TOL {
                break 'pass BoundedStatus::Infeasible;
            }
        }
        rev.bar_artificials();
        rev.optimize(&sf.cost, true, window)
    };
    let basis = rev.finish(status);
    span.field("pivots", basis.stats.pivots);
    span.field("phase1_pivots", basis.stats.phase1_pivots);
    span.field("status", format_args!("{:?}", basis.status));
    basis
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{solve_lp, LpOptions, SolverBackend};
    use crate::model::{Cmp, LpProblem};
    use crate::rational::Rat;
    use crate::simplex::LpStatus;
    use abt_core::error::SolveFailure;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn sf(lp: &LpProblem<f64>) -> StandardForm<f64> {
        StandardForm::build(lp)
    }

    thread_local! {
        /// Iterations on this thread whose entering column was checked
        /// against [`Rev::price_reference`].
        pub(super) static PRICING_CHECKS: Cell<u64> = const { Cell::new(0) };
        /// The checked iterations that priced by Bland's rule.
        static BLAND_CHECKS: Cell<u64> = const { Cell::new(0) };
    }

    impl Rev<'_> {
        /// Per-column pricing, kept as the oracle of [`Rev::price`]: each
        /// priced column's reduced cost over `sf.cols`, every dependent of
        /// a key rechecked for glue, the cursor wrapped with `%`.
        fn price_reference(
            &self,
            y: &[f64],
            bland: bool,
            window: usize,
            cursor: &mut usize,
        ) -> Option<usize> {
            let sf = self.sf;
            let ncols = sf.ncols;
            let mut deps: Vec<Vec<usize>> = vec![Vec::new(); ncols];
            for j in 0..ncols {
                if let Some(k) = sf.vub[j] {
                    deps[k].push(j);
                }
            }
            let reduced = |j: usize| {
                let mut d = self.cost[j];
                for &(i, v) in &sf.cols[j] {
                    d -= y[i] * v;
                }
                d
            };
            let effective = |j: usize| {
                let d = reduced(j);
                match self.state[j] {
                    VarState::AtVub => -d,
                    VarState::AtLower | VarState::AtUpper => {
                        let mut dbar = d;
                        for &dep in &deps[j] {
                            if self.state[dep] == VarState::AtVub {
                                dbar += reduced(dep);
                            }
                        }
                        if self.state[j] == VarState::AtLower {
                            dbar
                        } else {
                            -dbar
                        }
                    }
                    VarState::Basic => unreachable!(),
                }
            };
            let priceable = |j: usize| -> Option<f64> {
                if self.state[j] == VarState::Basic || self.barred[j] {
                    return None;
                }
                let eff = effective(j);
                (eff < -ENTER_TOL).then_some(eff)
            };
            if bland {
                return (0..ncols).find(|&j| priceable(j).is_some());
            }
            if window == 0 || window >= ncols {
                let mut best: Option<(usize, f64)> = None;
                for j in 0..ncols {
                    if let Some(eff) = priceable(j) {
                        if best.map(|(_, b)| eff < b) != Some(false) {
                            best = Some((j, eff));
                        }
                    }
                }
                return best.map(|(j, _)| j);
            }
            let mut scanned = 0;
            while scanned < ncols {
                let mut best: Option<(usize, f64)> = None;
                let block = window.min(ncols - scanned);
                for _ in 0..block {
                    let j = *cursor;
                    *cursor = (*cursor + 1) % ncols;
                    if let Some(eff) = priceable(j) {
                        if best.map(|(_, b)| eff < b) != Some(false) {
                            best = Some((j, eff));
                        }
                    }
                }
                scanned += block;
                if let Some((j, _)) = best {
                    return Some(j);
                }
            }
            None
        }

        /// Asserts that [`Rev::price`], run from cursor `cursor` against
        /// `y`, chose `entering` and left the cursor where the reference
        /// does.
        pub(super) fn check_pricing(
            &self,
            bland: bool,
            window: usize,
            entering: Option<usize>,
            mut cursor: usize,
        ) {
            let expected = self.price_reference(&self.y, bland, window, &mut cursor);
            assert_eq!(
                (entering, self.cursor),
                (expected, cursor),
                "flat pricing left the per-column reference (bland {bland}, window {window})"
            );
            PRICING_CHECKS.with(|c| c.set(c.get() + 1));
            if bland {
                BLAND_CHECKS.with(|c| c.set(c.get() + 1));
            }
        }
    }

    #[test]
    fn standard_form_shapes() {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(-1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Eq, 2.0);
        lp.set_upper(y, 3.0);
        let s = sf(&lp);
        assert_eq!(s.m, 3);
        assert_eq!(s.nstruct, 2);
        // slack(row0) + surplus(row1) + artificials(rows 1, 2)
        assert_eq!(s.ncols, 2 + 2 + 2);
        assert_eq!(s.n_art, 2);
        assert_eq!(s.upper[y], Some(3.0));
        assert!(s.artificial[4] && s.artificial[5]);
        assert_eq!(s.init_basis[0], 2); // slack
        assert_eq!(s.init_basis[1], 4); // artificial
        assert_eq!(s.init_basis[2], 5); // artificial
    }

    #[test]
    fn standard_form_promotes_dependent_constant_bounds() {
        // x has both a VUB (key y) and a constant bound: the constant bound
        // becomes a trailing row, the VUB stays metadata.
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 2.0);
        lp.set_upper(x, 3.0);
        lp.set_upper(y, 5.0);
        lp.set_vub(x, y);
        let s = sf(&lp);
        assert_eq!(s.m, 2); // original row + promoted bound row
        assert_eq!(s.b[1], 3.0);
        assert_eq!(s.upper[x], None);
        assert_eq!(s.upper[y], Some(5.0));
        assert_eq!(s.vub[x], Some(y));
        assert_eq!(s.vub[y], None);
        assert_eq!(s.cols[x], vec![(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn negative_rhs_flips() {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, -1.0)], Cmp::Le, -3.0); // x ≥ 3
        let s = sf(&lp);
        assert!(s.row_flip[0]);
        assert_eq!(s.b[0], 3.0);
        assert_eq!(s.cols[x], vec![(0, 1.0)]);
        assert_eq!(s.n_art, 1);
    }

    #[test]
    fn repeated_terms_are_summed() {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (x, 2.0)], Cmp::Le, 6.0);
        let s = sf(&lp);
        assert_eq!(s.cols[x], vec![(0, 3.0)]);
    }

    #[test]
    fn bounded_solver_uses_bound_flips() {
        // min −x  s.t.  x + y ≤ 10, x ≤ 5 implicit: optimum x = 5 reached
        // by a single bound flip (the slack never leaves the basis).
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(-1.0);
        let y = lp.add_var(0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Le, 10.0);
        lp.set_upper(x, 5.0);
        let s = sf(&lp);
        let out = solve_bounded_f64_with(&s, &BoundedOptions::default(), None);
        assert_eq!(out.status, BoundedStatus::Optimal);
        assert_eq!(out.state[x], VarState::AtUpper);
        // The slack stayed basic: no pivot happened at all.
        assert_eq!(out.basis, s.init_basis);
        assert_eq!(out.stats.pivots, 0);
        assert!(out.stats.bound_flips >= 1);
    }

    #[test]
    fn bounded_solver_detects_infeasible_and_unbounded() {
        let mut inf: LpProblem<f64> = LpProblem::new();
        let x = inf.add_var(1.0);
        inf.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
        inf.set_upper(x, 1.0);
        assert_eq!(
            solve_bounded_f64_with(&sf(&inf), &BoundedOptions::default(), None).status,
            BoundedStatus::Infeasible
        );

        let mut unb: LpProblem<f64> = LpProblem::new();
        let x = unb.add_var(-1.0);
        unb.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(
            solve_bounded_f64_with(&sf(&unb), &BoundedOptions::default(), None).status,
            BoundedStatus::Unbounded
        );
    }

    #[test]
    fn vub_glue_flip_reaches_the_key() {
        // min −x  s.t.  x + y ≥ 1 with x ≤ y (VUB) and y ≤ 4: the optimum
        // pins x to its key at the key's bound (x = y = 4).
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(-1.0);
        let y = lp.add_var(0.0);
        lp.add_constraint(vec![(x, 1.0), (y, 1.0)], Cmp::Ge, 1.0);
        lp.set_upper(y, 4.0);
        lp.set_vub(x, y);
        let s = sf(&lp);
        let out = solve_bounded_f64_with(&s, &BoundedOptions::default(), None);
        assert_eq!(out.status, BoundedStatus::Optimal);
        // x rests on its VUB (glued) or basic at the same value; either way
        // the proposal must be consistent enough for exact verification —
        // here we just sanity-check the states are legal.
        assert!(matches!(out.state[x], VarState::AtVub | VarState::Basic));
    }

    #[test]
    fn vub_partial_pricing_matches_full_pricing() {
        // A few VUB families; full Dantzig and a tiny window must agree on
        // the terminal status (objectives are certified exactly upstream).
        let mut lp: LpProblem<f64> = LpProblem::new();
        let y0 = lp.add_var(1.0);
        let y1 = lp.add_var(1.0);
        let mut xs = Vec::new();
        for i in 0..6 {
            let x = lp.add_var(0.0);
            lp.set_vub(x, if i % 2 == 0 { y0 } else { y1 });
            xs.push(x);
        }
        lp.set_upper(y0, 3.0);
        lp.set_upper(y1, 2.0);
        // capacity-style rows and a demand row.
        lp.add_constraint(xs.iter().map(|&x| (x, 1.0)).collect(), Cmp::Ge, 4.0);
        let s = sf(&lp);
        let full = solve_bounded_f64_with(
            &s,
            &BoundedOptions {
                pricing_window: 0,
                ..BoundedOptions::default()
            },
            None,
        );
        let part = solve_bounded_f64_with(
            &s,
            &BoundedOptions {
                pricing_window: 2,
                ..BoundedOptions::default()
            },
            None,
        );
        assert_eq!(full.status, BoundedStatus::Optimal);
        assert_eq!(part.status, BoundedStatus::Optimal);
    }

    #[test]
    fn pivot_budget_trips_instead_of_solving() {
        // A ≥-demand LP needs phase-1 pivots; a budget of 1 pivot cannot
        // reach optimality and must stop with a typed budget status, not
        // spin or stall.
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        let y = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0), (y, 2.0)], Cmp::Ge, 4.0);
        lp.add_constraint(vec![(x, 3.0), (y, 1.0)], Cmp::Ge, 6.0);
        let s = sf(&lp);
        let out = solve_bounded_f64_with(
            &s,
            &BoundedOptions {
                pivot_budget: 1,
                ..BoundedOptions::default()
            },
            None,
        );
        assert_eq!(out.status, BoundedStatus::Budget(BudgetKind::Pivots));
        assert!(out.basis.is_empty(), "a budget stop is not a verdict");
        // An ample budget solves normally.
        let ok = solve_bounded_f64_with(
            &s,
            &BoundedOptions {
                pivot_budget: 10_000,
                ..BoundedOptions::default()
            },
            None,
        );
        assert_eq!(ok.status, BoundedStatus::Optimal);
    }

    #[test]
    fn zero_budgets_mean_unlimited() {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let x = lp.add_var(1.0);
        lp.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
        let out = solve_bounded_f64_with(&sf(&lp), &BoundedOptions::default(), None);
        assert_eq!(out.status, BoundedStatus::Optimal);
    }

    #[test]
    fn elapsed_time_budget_trips() {
        // A zero-length wall-clock budget must trip within the check
        // cadence on any instance that iterates at all.
        let mut lp: LpProblem<f64> = LpProblem::new();
        let n = 40;
        let vars: Vec<usize> = (0..n).map(|i| lp.add_var(1.0 + (i % 7) as f64)).collect();
        for w in vars.windows(2) {
            lp.add_constraint(vec![(w[0], 1.0), (w[1], 1.0)], Cmp::Ge, 2.0);
        }
        let s = sf(&lp);
        let out = solve_bounded_f64_with(
            &s,
            &BoundedOptions {
                time_budget: Some(std::time::Duration::ZERO),
                ..BoundedOptions::default()
            },
            None,
        );
        // Either the solve finished inside the first TIME_CHECK_EVERY
        // iterations (legal) or it tripped the time budget; it must never
        // claim any other failure.
        assert!(
            matches!(
                out.status,
                BoundedStatus::Optimal | BoundedStatus::Budget(BudgetKind::Time)
            ),
            "unexpected status {:?}",
            out.status
        );
    }

    /// Steps `q` into the hand-written basis `basis` of `lp` (columns in
    /// `glued` rest glued to their keys, every other nonbasic column at its
    /// lower bound) and checks the update: the ratio test ran into
    /// `expect`, nothing was refactorized, the glued lists match the
    /// states, and FTRAN/BTRAN through the eta file agree with a fresh LU
    /// of the augmented basis within 1e-9. Returns the new basis and
    /// basic values.
    fn step_from(
        lp: &LpProblem<f64>,
        basis: &[usize],
        glued: &[usize],
        q: usize,
        expect: Hit,
    ) -> (Vec<usize>, Vec<f64>) {
        let sf = sf(lp);
        let mut state = vec![VarState::AtLower; sf.ncols];
        for &j in basis {
            state[j] = VarState::Basic;
        }
        for &j in glued {
            state[j] = VarState::AtVub;
        }
        let snap = BasisSnapshot {
            basis: basis.to_vec(),
            state,
        };
        let mut rev = Rev::new(&sf, Some(&snap));
        assert!(
            rev.started,
            "the hand-written basis factors and is primal feasible"
        );
        rev.load_cost(&sf.cost);
        let Ok((hit, _)) = rev.step(q, true) else {
            panic!("the step is bounded");
        };
        assert_eq!(hit, expect);
        assert_eq!(
            rev.stats.refactorizations, 0,
            "a structural event refactorized"
        );
        assert_eq!(rev.glued, glued_lists(&sf, &rev.state));
        let cols: Vec<Vec<(usize, f64)>> = rev
            .basis
            .iter()
            .map(|&j| augmented_column(&sf.cols, j, &rev.glued[j]))
            .collect();
        let fresh = SparseLu::factor(sf.m, &cols).expect("the updated basis is nonsingular");
        for k in 0..=sf.m {
            // The unit vectors, then a dense one.
            let v: Vec<f64> = (0..sf.m)
                .map(|i| {
                    if k == sf.m {
                        1.0 + i as f64
                    } else {
                        (i == k) as u8 as f64
                    }
                })
                .collect();
            rev.work.copy_from_slice(&v);
            rev.ftran();
            rev.work.copy_from_slice(&v);
            rev.btran();
            for (got, want) in [
                (&rev.w, fresh.solve(&v)),
                (&rev.y, fresh.solve_transposed(&v)),
            ] {
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-9,
                        "eta file {got:?} vs fresh LU {want:?}"
                    );
                }
            }
        }
        (rev.basis.clone(), rev.xb.clone())
    }

    /// One VUB family: key `y` (column 0, `y ≤ y_cap`) with dependent `x`
    /// (column 1), and `z` (column 2) beside it: `x + z = 4` (row 0, its
    /// artificial is column 4) and `y ≤ 8` (row 1, slack column 3).
    fn one_family(y_cap: f64) -> LpProblem<f64> {
        let mut lp: LpProblem<f64> = LpProblem::new();
        let y = lp.add_var(0.0);
        let x = lp.add_var(0.0);
        let z = lp.add_var(0.0);
        lp.set_upper(y, y_cap);
        lp.set_vub(x, y);
        lp.add_constraint(vec![(x, 1.0), (z, 1.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 8.0);
        lp
    }

    #[test]
    fn unglue_leave_off_a_basic_key_is_two_etas() {
        // y = 4 basic with x glued (its column is A_y + A_x), slack 4.
        // x comes off the glue: w = B̄⁻¹A_x = (1, −1), so w_pk = 1 and x
        // never reaches 0 — the slack leaves at r = 1 ≠ pk = 0, and the
        // key column loses A_x after A_x is installed at r.
        let (basis, xb) = step_from(
            &one_family(10.0),
            &[0, 3],
            &[1],
            1,
            Hit::Leave(1, VarState::AtLower),
        );
        assert_eq!(basis, [0, 1]);
        assert_eq!(xb, [8.0, 4.0]);
    }

    #[test]
    fn unglue_leave_of_the_key_itself_is_one_eta() {
        // As above with y ≤ 5: the key reaches its bound first, so it
        // leaves at r = pk and x takes its place with its plain column.
        let (basis, xb) = step_from(
            &one_family(5.0),
            &[0, 3],
            &[1],
            1,
            Hit::Leave(0, VarState::AtUpper),
        );
        assert_eq!(basis, [1, 3]);
        assert_eq!(xb, [4.0, 3.0]);
    }

    #[test]
    fn leave_glue_while_ungluing_within_one_family() {
        // Key y (column 0, ≤ 10) with dependents x1, x2 (columns 1, 2):
        // x1 + x2 = 4 (row 0, artificial column 4), y ≤ 3 (row 1, slack
        // column 3). From y = 3 with x1 glued and x2 = 1 basic, x1 comes
        // off the glue and x2 rises onto y: x2 glues, x1 turns basic.
        let mut lp: LpProblem<f64> = LpProblem::new();
        let y = lp.add_var(0.0);
        let x1 = lp.add_var(0.0);
        let x2 = lp.add_var(0.0);
        lp.set_upper(y, 10.0);
        lp.set_vub(x1, y);
        lp.set_vub(x2, y);
        lp.add_constraint(vec![(x1, 1.0), (x2, 1.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(y, 1.0)], Cmp::Le, 3.0);
        let (basis, xb) = step_from(&lp, &[y, x2], &[x1], x1, Hit::LeaveGlue(1));
        assert_eq!(basis, [y, x1]);
        assert_eq!(xb, [3.0, 1.0]);
    }

    #[test]
    fn leave_glue_while_ungluing_across_two_families() {
        // Keys y1, y2 (columns 0, 1) with dependents x1 → y1, x2 → y2
        // (columns 2, 3): x1 + x2 = 4 (row 0, artificial column 6),
        // y1 ≤ 3 and y2 ≤ 2 (rows 1, 2, slacks 4, 5). x1 comes off y1
        // while x2 rises onto y2: three etas, none refactorizes.
        let mut lp: LpProblem<f64> = LpProblem::new();
        let y1 = lp.add_var(0.0);
        let y2 = lp.add_var(0.0);
        let x1 = lp.add_var(0.0);
        let x2 = lp.add_var(0.0);
        lp.set_upper(y1, 10.0);
        lp.set_upper(y2, 10.0);
        lp.set_vub(x1, y1);
        lp.set_vub(x2, y2);
        lp.add_constraint(vec![(x1, 1.0), (x2, 1.0)], Cmp::Eq, 4.0);
        lp.add_constraint(vec![(y1, 1.0)], Cmp::Le, 3.0);
        lp.add_constraint(vec![(y2, 1.0)], Cmp::Le, 2.0);
        let (basis, xb) = step_from(&lp, &[y1, x2, y2], &[x1], x1, Hit::LeaveGlue(1));
        assert_eq!(basis, [y1, x1, y2]);
        assert_eq!(xb, [3.0, 2.0, 2.0]);
    }

    #[test]
    fn blands_rule_prices_like_the_reference() {
        // min −Σ x_i  s.t.  x_i − x_{i+1} ≤ 0 (zero right-hand sides) and
        // x_n ≤ 3: from the all-slack basis each x_i but the last enters
        // at a degenerate pivot, so the pass runs past DEGENERATE_SWITCH
        // degenerate pivots and prices by Bland's rule until x_n's bound
        // flip ends the run.
        let n = DEGENERATE_SWITCH + 16;
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let xs: Vec<usize> = (0..n).map(|_| lp.add_var(Rat::from_int(-1))).collect();
        for w in xs.windows(2) {
            lp.add_constraint(
                vec![(w[0], Rat::ONE), (w[1], Rat::from_int(-1))],
                Cmp::Le,
                Rat::ZERO,
            );
        }
        lp.set_upper(xs[n - 1], Rat::from_int(3));
        let exact = solve_lp(&lp, &LpOptions::new().backend(SolverBackend::DenseExact))
            .expect("the dense exact backend never fails")
            .solution;
        assert_eq!(exact.objective, Rat::from_int(-3 * n as i64));
        for window in [0, 2, DEFAULT_PRICING_WINDOW] {
            let bland = BLAND_CHECKS.with(Cell::get);
            let opts = LpOptions::new().pricing(BoundedOptions {
                pricing_window: window,
                ..BoundedOptions::default()
            });
            let rep = solve_lp(&lp, &opts).expect("the chain LP solves");
            assert_eq!(rep.solution.objective, exact.objective, "window {window}");
            assert!(
                BLAND_CHECKS.with(Cell::get) > bland,
                "window {window}: no iteration priced by Bland's rule"
            );
        }
    }

    /// [`StandardForm`] as it was built before its columns moved into one
    /// slab: a `Vec` per column, each row's sign flipped by a `Rat`
    /// multiply. [`reference_build`] keeps that construction verbatim as
    /// the oracle of [`StandardForm::build`].
    struct ReferenceForm<S> {
        m: usize,
        ncols: usize,
        nstruct: usize,
        cols: Vec<Vec<(usize, S)>>,
        cost: Vec<S>,
        upper: Vec<Option<S>>,
        vub: Vec<Option<usize>>,
        b: Vec<S>,
        artificial: Vec<bool>,
        n_art: usize,
        row_flip: Vec<bool>,
        init_basis: Vec<usize>,
    }

    fn reference_build<S: Scalar>(lp: &LpProblem<S>) -> ReferenceForm<S> {
        let n = lp.num_vars();
        // Constant bounds of VUB dependents get promoted to rows.
        let promoted: Vec<(usize, S)> = (0..n)
            .filter(|&v| lp.vub(v).is_some())
            .filter_map(|v| lp.upper(v).map(|u| (v, u.clone())))
            .collect();
        let m = lp.num_constraints() + promoted.len();
        let mut cols: Vec<Vec<(usize, S)>> = vec![Vec::new(); n];
        let mut b = Vec::with_capacity(m);
        let mut row_flip = Vec::with_capacity(m);
        // Structural entries, visiting rows in order keeps columns sorted.
        let mut senses: Vec<Cmp> = Vec::with_capacity(m);
        for (i, c) in lp.constraints().iter().enumerate() {
            let flip = c.rhs.is_neg();
            let sgn = if flip { S::one().neg() } else { S::one() };
            for (v, coef) in &c.terms {
                let val = sgn.mul(coef);
                match cols[*v].last_mut() {
                    Some(last) if last.0 == i => last.1 = last.1.add(&val),
                    _ => cols[*v].push((i, val)),
                }
            }
            for col in c.terms.iter().map(|t| t.0) {
                if let Some(last) = cols[col].last() {
                    if last.0 == i && last.1.is_zero_s() {
                        cols[col].pop();
                    }
                }
            }
            b.push(sgn.mul(&c.rhs));
            row_flip.push(flip);
            senses.push(match (c.cmp, flip) {
                (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
                (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
                (Cmp::Eq, _) => Cmp::Eq,
            });
        }
        // Promoted bound rows `x_v ≤ u` (rhs ≥ 0 by construction).
        for (v, u) in &promoted {
            let i = b.len();
            cols[*v].push((i, S::one()));
            b.push(u.clone());
            row_flip.push(false);
            senses.push(Cmp::Le);
        }
        let mut cost: Vec<S> = lp.objective().to_vec();
        let mut upper: Vec<Option<S>> = (0..n)
            .map(|v| {
                if lp.vub(v).is_some() {
                    None // promoted to a row above
                } else {
                    lp.upper(v).cloned()
                }
            })
            .collect();
        let mut vub: Vec<Option<usize>> = (0..n).map(|v| lp.vub(v)).collect();
        let mut artificial = vec![false; n];
        // Slack/surplus columns, then artificials, in row order. This is
        // the one column layout of the crate: the dense tableau is filled
        // from it, so dense and revised bases index the same columns.
        let mut init_basis = vec![usize::MAX; m];
        for (i, sense) in senses.iter().enumerate() {
            let aux = match sense {
                Cmp::Le => Some((S::one(), true)),        // slack, starts basic
                Cmp::Ge => Some((S::one().neg(), false)), // surplus
                Cmp::Eq => None,
            };
            if let Some((coef, basic)) = aux {
                cols.push(vec![(i, coef)]);
                cost.push(S::zero());
                upper.push(None);
                vub.push(None);
                artificial.push(false);
                if basic {
                    init_basis[i] = cols.len() - 1;
                }
            }
        }
        let mut n_art = 0;
        for (i, sense) in senses.iter().enumerate() {
            if matches!(sense, Cmp::Ge | Cmp::Eq) {
                cols.push(vec![(i, S::one())]);
                cost.push(S::zero());
                upper.push(None);
                vub.push(None);
                artificial.push(true);
                init_basis[i] = cols.len() - 1;
                n_art += 1;
            }
        }
        let ncols = cols.len();
        debug_assert_eq!(cost.len(), ncols);
        debug_assert_eq!(upper.len(), ncols);
        debug_assert!(init_basis.iter().all(|&c| c != usize::MAX));
        ReferenceForm {
            m,
            ncols,
            nstruct: n,
            cols,
            cost,
            upper,
            vub,
            b,
            artificial,
            n_art,
            row_flip,
            init_basis,
        }
    }

    /// Asserts that `sf` is the form [`reference_build`] makes of `lp`,
    /// every number compared by `key` (an `f64`'s bits, a `Rat` itself).
    fn assert_form_matches<S: Scalar, K: PartialEq + std::fmt::Debug>(
        lp: &LpProblem<S>,
        sf: &StandardForm<S>,
        key: impl Fn(&S) -> K,
    ) {
        let old = reference_build(lp);
        let keyed = |v: &[S]| v.iter().map(&key).collect::<Vec<K>>();
        let cols = |c: &[(usize, S)]| c.iter().map(|(i, v)| (*i, key(v))).collect::<Vec<_>>();
        assert_eq!(
            (sf.m, sf.ncols, sf.nstruct, sf.n_art),
            (old.m, old.ncols, old.nstruct, old.n_art)
        );
        assert_eq!(sf.cols.iter().len(), old.cols.len());
        for (j, (new, old)) in sf.cols.iter().zip(&old.cols).enumerate() {
            assert_eq!(cols(new), cols(old), "column {j}");
        }
        assert_eq!(keyed(&sf.b), keyed(&old.b), "b");
        assert_eq!(keyed(&sf.cost), keyed(&old.cost), "cost");
        let upper = |u: &[Option<S>]| u.iter().map(|u| u.as_ref().map(&key)).collect::<Vec<_>>();
        assert_eq!(upper(&sf.upper), upper(&old.upper), "upper");
        assert_eq!(sf.vub, old.vub, "vub");
        assert_eq!(sf.row_flip, old.row_flip, "row_flip");
        assert_eq!(sf.init_basis, old.init_basis, "init_basis");
        assert_eq!(sf.artificial, old.artificial, "artificial");
    }

    /// A random LP over every case the standard form normalizes: repeated
    /// terms (which sum), terms that cancel (which drop), negative
    /// right-hand sides (rows flip), all three senses, and dependents with
    /// both a VUB and a constant bound (promoted to rows). `value` maps a
    /// small integer draw to the scalar.
    fn random_form_lp<S: Scalar>(d: &mut Draw, value: impl Fn(i64) -> S) -> LpProblem<S> {
        let mut lp: LpProblem<S> = LpProblem::new();
        let n = 1 + d.below(7);
        for _ in 0..n {
            lp.add_var(value(d.int(-3, 3)));
        }
        let mut dependent = vec![false; n];
        for v in 0..n {
            if d.below(3) == 0 {
                lp.set_upper(v, value(d.int(0, 5)));
            }
            let key = d.below(v.max(1));
            if v > 0 && !dependent[key] && d.below(2) == 0 {
                lp.set_vub(v, key);
                dependent[v] = true;
            }
        }
        for _ in 0..d.below(7) {
            let mut terms = Vec::new();
            for _ in 0..1 + d.below(5) {
                let v = d.below(n);
                let a = d.int(-3, 3);
                terms.push((v, value(a)));
                match d.below(4) {
                    0 => terms.push((v, value(-a))),           // cancels
                    1 => terms.push((v, value(d.int(-2, 2)))), // repeats
                    _ => {}
                }
            }
            let cmp = [Cmp::Le, Cmp::Ge, Cmp::Eq][d.below(3)];
            lp.add_constraint(terms, cmp, value(d.int(-4, 4)));
        }
        lp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn forms_match_the_replaced_build(seed in 0u64..u64::MAX) {
            let mut d = Draw(seed);
            let rat = random_form_lp(&mut d, Rat::from_int);
            let sf = StandardForm::build(&rat);
            assert_form_matches(&rat, &sf, |v: &Rat| *v);
            // The f64 image, column for column, and an f64 problem of its
            // own, whose tiny coefficients drop like zeros.
            let image = sf.to_f64();
            let old = reference_build(&rat);
            for (new, old) in image.cols.iter().zip(&old.cols) {
                let old: Vec<(usize, u64)> = old.iter().map(|(i, v)| (*i, v.to_f64().to_bits())).collect();
                let new: Vec<(usize, u64)> = new.iter().map(|(i, v)| (*i, v.to_bits())).collect();
                prop_assert_eq!(new, old);
            }
            let float = random_form_lp(&mut d, |a| match a {
                2 => 1e-10,
                -2 => 0.5,
                a => a as f64 / 3.0,
            });
            assert_form_matches(&float, &StandardForm::build(&float), |v: &f64| v.to_bits());
        }
    }

    /// SplitMix64: the test LPs below are drawn from one seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn int(&mut self, lo: i64, hi: i64) -> i64 {
            lo + self.below((hi - lo + 1) as usize) as i64
        }
    }

    /// An LP1-shaped block: run keys `Y_I ≤ w_I` of cost 1, per job a
    /// dependent `x_{I,j}` in each run of its random window, capacity rows
    /// `Σ_j x_{I,j} − g·Y_I ≤ 0` and demand rows `Σ_I x_{I,j} ≥ p_j`.
    fn lp1_block(d: &mut Draw) -> LpProblem<Rat> {
        let runs = 2 + d.below(6);
        let g = d.int(1, 3);
        let widths: Vec<i64> = (0..runs).map(|_| d.int(1, 3)).collect();
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let keys: Vec<usize> = widths
            .iter()
            .map(|&w| {
                let v = lp.add_var(Rat::ONE);
                lp.set_upper(v, Rat::from_int(w));
                v
            })
            .collect();
        let mut capacity: Vec<Vec<(usize, Rat)>> = vec![Vec::new(); runs];
        let mut demand = Vec::new();
        for _ in 0..1 + d.below(8) {
            let lo = d.below(runs);
            let hi = lo + 1 + d.below(runs - lo);
            let room: i64 = widths[lo..hi].iter().sum();
            let mut terms = Vec::new();
            for ri in lo..hi {
                let x = lp.add_var(Rat::ZERO);
                lp.set_vub(x, keys[ri]);
                capacity[ri].push((x, Rat::ONE));
                terms.push((x, Rat::ONE));
            }
            demand.push((terms, d.int(1, room)));
        }
        for (ri, mut terms) in capacity.into_iter().enumerate() {
            if !terms.is_empty() {
                terms.push((keys[ri], Rat::from_int(-g)));
                lp.add_constraint(terms, Cmp::Le, Rat::ZERO);
            }
        }
        for (terms, p) in demand {
            lp.add_constraint(terms, Cmp::Ge, Rat::from_int(p));
        }
        lp
    }

    /// A feasible, bounded random VUB LP: keys with constant bounds, each
    /// with a few dependents (some also with a constant bound, promoted
    /// to a row), plain bounded columns, and rows of small integer
    /// coefficients of every sense around a random integer point that
    /// satisfies all of it.
    fn random_vub_lp(d: &mut Draw) -> LpProblem<Rat> {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let mut point: Vec<i64> = Vec::new();
        for _ in 0..1 + d.below(3) {
            let cap = d.int(1, 5);
            let key = lp.add_var(Rat::from_int(d.int(-3, 3)));
            lp.set_upper(key, Rat::from_int(cap));
            let at = d.int(0, cap);
            point.push(at);
            for _ in 0..1 + d.below(4) {
                let dep = lp.add_var(Rat::from_int(d.int(-3, 3)));
                lp.set_vub(dep, key);
                let mut val = d.int(0, at);
                if d.below(4) == 0 {
                    let own = d.int(0, cap);
                    lp.set_upper(dep, Rat::from_int(own));
                    val = val.min(own);
                }
                point.push(val);
            }
        }
        for _ in 0..d.below(3) {
            let cap = d.int(1, 5);
            let v = lp.add_var(Rat::from_int(d.int(-3, 3)));
            lp.set_upper(v, Rat::from_int(cap));
            point.push(d.int(0, cap));
        }
        let n = point.len();
        for _ in 0..1 + d.below(6) {
            let mut terms = Vec::new();
            let mut at = 0;
            for _ in 0..1 + d.below(4) {
                let v = d.below(n);
                let a = [-3, -2, -1, 1, 2, 3][d.below(6)];
                terms.push((v, Rat::from_int(a)));
                at += a * point[v];
            }
            let (cmp, rhs) = match d.below(3) {
                0 => (Cmp::Le, at + d.int(0, 2)),
                1 => (Cmp::Ge, at - d.int(0, 2)),
                _ => (Cmp::Eq, at),
            };
            lp.add_constraint(terms, cmp, Rat::from_int(rhs));
        }
        lp
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn flat_pricing_and_eta_updates_keep_dense_exact_answers(
            lp1 in 0usize..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut d = Draw(seed);
            let lp = if lp1 == 1 { lp1_block(&mut d) } else { random_vub_lp(&mut d) };
            let exact = solve_lp(&lp, &LpOptions::new().backend(SolverBackend::DenseExact))
                .expect("the dense exact backend never fails")
                .solution;
            // Full Dantzig, a tiny rotating window, and the default.
            for window in [0, 2, DEFAULT_PRICING_WINDOW] {
                let checks = PRICING_CHECKS.with(Cell::get);
                let opts = LpOptions::new().pricing(BoundedOptions {
                    pricing_window: window,
                    ..BoundedOptions::default()
                });
                match solve_lp(&lp, &opts) {
                    Ok(rep) => {
                        prop_assert_eq!(exact.status.clone(), LpStatus::Optimal);
                        prop_assert_eq!(rep.solution.objective, exact.objective);
                    }
                    Err(SolveFailure::Infeasible) => {
                        prop_assert_eq!(exact.status.clone(), LpStatus::Infeasible);
                    }
                    Err(other) => {
                        return Err(TestCaseError::fail(format!("window {window}: {other}")));
                    }
                }
                prop_assert!(PRICING_CHECKS.with(Cell::get) > checks, "no iteration was priced");
            }
        }
    }

    /// Certifies the float pass's proposal for `lp` as handed over and with
    /// its basic values and multipliers cleared, which forces the exact LU,
    /// each with the sweep's integer evaluation and with every family
    /// forced to `Rat`. Asserts the same verdict and solution all four ways,
    /// the same tally with and without the LU, and no family in `Rat` unless
    /// forced (the data are small integers). Returns whether the first
    /// certification went without the LU and whether the forced one swept
    /// a family in `Rat` (`None` when the pass found no optimum).
    fn certify_both_ways(lp: &LpProblem<Rat>) -> Option<(bool, bool)> {
        use crate::simplex::{tests::FORCE_RAT, verify_bounded, Certified};
        let agree = |a: &Certified, b: &Certified, what: &str| match (a, b) {
            (Certified::Verified(a), Certified::Verified(b)) => {
                assert_eq!(a.status, b.status, "{what}");
                assert_eq!(a.objective, b.objective, "{what}");
                assert_eq!(a.x, b.x, "{what}");
                assert_eq!(a.duals, b.duals, "{what}");
            }
            (Certified::Refuted, Certified::Refuted) => {}
            (a, b) => panic!("{what}: verdicts differ: {a:?} against {b:?}"),
        };
        let sf = StandardForm::build(lp);
        let prop = solve_bounded_f64_with(&sf.to_f64(), &BoundedOptions::default(), None);
        if prop.status != BoundedStatus::Optimal {
            return None;
        }
        let lu_only = BoundedBasis {
            xb: Vec::new(),
            y: Vec::new(),
            ..prop.clone()
        };
        let (mut fast, mut forced_rat) = (true, false);
        let mut in_integers: Option<Certified> = None;
        for force_rat in [false, true] {
            FORCE_RAT.with(|f| f.set(force_rat));
            let (mut tally, mut lu_tally) = (SolveStats::default(), SolveStats::default());
            let given = verify_bounded(lp, &sf, &prop, None, &mut tally);
            let forced = verify_bounded(lp, &sf, &lu_only, None, &mut lu_tally);
            FORCE_RAT.with(|f| f.set(false));
            assert_eq!(lu_tally.certify_lu, 1, "cleared values force the LU");
            fast &= tally.certify_lu == 0;
            let sweeps = (tally.interval_accepts, tally.interval_escalations);
            assert_eq!(
                sweeps,
                (lu_tally.interval_accepts, lu_tally.interval_escalations),
                "force_rat {force_rat}: the tally moved"
            );
            if force_rat {
                forced_rat = sweeps.1 == 1;
            } else {
                assert_eq!(sweeps.1, 0, "a family of small integers needed Rat");
            }
            agree(&given, &forced, "against the LU");
            match &in_integers {
                None => in_integers = Some(given),
                Some(ints) => agree(ints, &given, "Rat against integers"),
            }
        }
        Some((fast, forced_rat))
    }

    #[test]
    fn float_values_certify_like_the_exact_lu() {
        let cases = proptest::test_runner::effective_cases(&ProptestConfig::with_cases(96));
        let mut d = Draw(0x0F1A_7BA5_15CE_47A1);
        let (mut blocks, mut vub, mut vub_fast, mut vub_rat) = (0u32, 0u32, 0u32, 0u32);
        for case in 0..cases {
            let block = lp1_block(&mut d);
            if let Some((fast, forced_rat)) = certify_both_ways(&block) {
                assert!(fast, "case {case}: an LP1 block needed the LU");
                assert!(
                    forced_rat,
                    "case {case}: the forced sweep stayed in integers"
                );
                blocks += 1;
            }
            if let Some((fast, forced_rat)) = certify_both_ways(&random_vub_lp(&mut d)) {
                vub += 1;
                vub_fast += u32::from(fast);
                vub_rat += u32::from(forced_rat);
            }
        }
        eprintln!(
            "float values certified {blocks} of {blocks} optimal LP1 blocks and \
             {vub_fast} of {vub} optimal random VUB LPs without the LU; the sweep \
             agreed in integers and in Rat on all of them ({vub_rat} of the VUB LPs \
             had a family to sweep)"
        );
        assert!(
            blocks > 0 && vub_fast > 0 && vub_rat > 0,
            "the float values or the Rat evaluation were never used"
        );
    }
}
