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
//! throughout. The construction is generic over the scalar and
//! deterministic, so the `f64` search and the exact verifier build
//! *structurally identical* forms and a basis found by one is meaningful to
//! the other. The dense tableau of [`crate::simplex`] lays out the same
//! form, so its bases are certified by the same verifier. One normalization keeps the VUB pivoting rules simple: a
//! variable carrying **both** a VUB and a finite constant bound gets its
//! constant bound materialized as a trailing `≤` row, so VUB dependents
//! never have finite constant bounds of their own.
//!
//! # Bounded revised simplex
//!
//! [`solve_bounded_f64`] runs a two-phase revised simplex in which neither
//! constant bounds nor VUBs become rows. The pass starts from the
//! all-slack/artificial basis and runs phase 1 whenever the form has
//! artificials — unless the caller hands [`solve_bounded_f64_with`] a
//! starting basis (a crash start, see [`crate::warm::StartBasis`]). That
//! start is factored *in place of* the all-slack basis, checked against
//! the same bounds and VUBs as a warm install, and phase 1 then runs only
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
//!   `(p, ±B⁻¹A_col + e_p)`; the ratio test's den/rate thresholds
//!   guarantee those eta pivots are well-conditioned, so a full
//!   refactorization is only the fallback (and the periodic
//!   length/fill-triggered refresh), never the per-event rule.
//!
//! Pricing uses a rotating **partial-pricing** window
//! ([`BoundedOptions::pricing_window`]): a window of columns is priced per
//! iteration and the sweep only degrades to a full Dantzig pass when every
//! window in the cycle is optimal (Bland's anti-cycling rule always scans
//! in full). The rotation doubles as diversification: always chasing the
//! single most negative reduced cost concentrates pivots in one VUB family
//! and multiplies degenerate glue/unglue churn.
//!
//! The float pass never certifies anything: its terminal
//! [`basis`](BoundedBasis::basis)/[`state`](BoundedBasis::state) proposal is
//! re-verified exactly (see the [`crate::simplex`] module docs), and any
//! numerical mishap here is a typed failure that demotes the solve to an
//! exact backend.
//!
//! # Scratch space
//!
//! Every dense `f64` work vector of the iteration (entering-column image,
//! simplex-multiplier cost stub, recomputed right-hand sides, the
//! per-pivot FTRAN/BTRAN solutions via [`SparseLu::solve_pooled`] /
//! [`SparseLu::solve_transposed_pooled`], eta temporaries) and every
//! product-form eta column is checked out of the per-thread
//! [`SolveArena`] and given back when the solve finishes — capacity
//! survives to the next solve on the thread, so a caller sweeping
//! thousands of small component LPs (the decomposition layer in
//! `abt-active`) stops churning the global allocator.

#![allow(clippy::needless_range_loop)] // index loops mirror the simplex math

use crate::arena::SolveArena;
use crate::lu::SparseLu;
use crate::model::{Cmp, LpProblem};
use crate::scalar::Scalar;
use crate::warm::BasisSnapshot;
use abt_core::error::BudgetKind;
use abt_core::faultinject;
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
/// Primal-feasibility tolerance: of the warm-start install check (a
/// snapshot whose recomputed basic values violate a bound by more than
/// this cannot seed a primal phase-2 run and falls back to the cold
/// solve), of the crash-start check, and of phase 1 (a sum of basic
/// artificials above it is infeasibility).
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
    /// LU-refactorization budget across both phases; `0` = unlimited.
    pub refactor_budget: u64,
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
            refactor_budget: 0,
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
    /// Basis-changing pivots performed.
    pub pivots: u64,
    /// The pivots of phase 1 (a subset of `pivots`; 0 when the starting
    /// basis was already feasible).
    pub phase1_pivots: u64,
    /// Bound/VUB flips performed (iterations with no basis change).
    pub bound_flips: u64,
    /// LU refactorizations (periodic and VUB-structural).
    pub refactorizations: u64,
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
    /// Sparse columns, each sorted by row.
    pub cols: Vec<Vec<(usize, S)>>,
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
}

/// Iteration cap (termination safety net, mirrors the dense solver's).
fn iteration_cap(rows: usize, cols: usize) -> usize {
    10_000 + 64 * (rows + cols)
}

/// The revised-simplex working state over a `StandardForm<f64>`.
struct Rev<'a> {
    sf: &'a StandardForm<f64>,
    /// Per-thread slab pool the dense/eta scratch is checked out of (and
    /// given back to in [`Rev::finish`]).
    arena: &'a mut SolveArena,
    basis: Vec<usize>,
    /// Column → basis position (`usize::MAX` when nonbasic).
    pos: Vec<usize>,
    state: Vec<VarState>,
    /// Basic values, parallel to `basis`.
    xb: Vec<f64>,
    lu: SparseLu<f64>,
    /// Product-form updates since the last refactorization, sparse.
    etas: Vec<Eta>,
    /// Total entry count of the eta file (refactorization trigger).
    eta_nnz: usize,
    barred: Vec<bool>,
    /// Key column → its VUB dependents (static).
    deps: Vec<Vec<usize>>,
    /// Partial-pricing rotation cursor.
    cursor: usize,
    /// Scratch dense image of the entering column (sparsely re-zeroed).
    aq: Vec<f64>,
    /// Scratch basic-cost vector for the BTRAN of each iteration.
    cb: Vec<f64>,
    pivots: u64,
    /// `pivots` when phase 1 ended (or stopped).
    phase1_pivots: u64,
    bound_flips: u64,
    refactorizations: u64,
    /// Whether the pass started from a caller's crash start rather than
    /// the all-slack basis.
    started: bool,
    /// Pivot budget (`0` = unlimited), from [`BoundedOptions`].
    pivot_budget: u64,
    /// Refactorization budget (`0` = unlimited).
    refactor_budget: u64,
    /// Wall-clock deadline for this solve (`None` = unbudgeted).
    deadline: Option<Instant>,
    /// Iterations since the solve started (wall-clock check cadence).
    ticks: u64,
}

/// One product-form update: the basis column at position `r` was replaced
/// by a column whose `B⁻¹` image is the sparse vector with `pivot` at row
/// `r` and `rest` elsewhere. The pivot entry is stored out-of-line so the
/// FTRAN/BTRAN hot loops run branch-free over `rest`.
struct Eta {
    r: usize,
    pivot: f64,
    rest: Vec<(usize, f64)>,
}

enum StepOutcome {
    Optimal,
    Unbounded,
    Stalled,
    Budget(BudgetKind),
}

/// What the ratio test decided the step runs into.
#[derive(Debug, Clone, Copy)]
enum Hit {
    /// The entering variable reaches a resting state with no structural
    /// change: its opposite constant bound, or its VUB against a nonbasic
    /// key (from either side).
    FlipTo(VarState),
    /// The entering variable glues to its *basic* key (augments the key
    /// column — refactorization).
    FlipGlue,
    /// The entering `AtVub` variable, glued to a *basic* key, comes off
    /// the glue all the way down to 0 (shrinks the key column).
    FlipUnglue,
    /// A basic variable leaves to the given resting state (`AtLower`,
    /// `AtUpper`, or `AtVub` against a nonbasic key) — an ordinary pivot.
    Leave(usize, VarState),
    /// A basic dependent hits its VUB against a basic key (or against the
    /// entering key): it leaves the basis glued, augmenting the key column
    /// — refactorization.
    LeaveGlue(usize),
}

impl<'a> Rev<'a> {
    /// The solver at its starting basis: `start` (a crash start in this
    /// form's columns) when its states fit the form, it is nonsingular and
    /// its basic values lie within their bounds and VUBs — artificials may
    /// be positive, phase 1 is there for them — else the all-slack basis.
    /// Either is factored once and is not counted as a refactorization.
    /// `None` only if the all-slack basis itself is singular.
    fn new(
        sf: &'a StandardForm<f64>,
        arena: &'a mut SolveArena,
        start: Option<&BasisSnapshot>,
    ) -> Option<Rev<'a>> {
        let mut deps: Vec<Vec<usize>> = vec![Vec::new(); sf.ncols];
        for j in 0..sf.ncols {
            if let Some(k) = sf.vub[j] {
                deps[k].push(j);
            }
        }
        // Factor the starting basis before touching the arena, so a
        // singular start never strands checked-out buffers.
        let crash = start.and_then(|snap| {
            let pos = snapshot_positions(sf, snap)?;
            let lu = SparseLu::factor(sf.m, &basis_columns(sf, &deps, &snap.basis, &snap.state))?;
            Some((snap.basis.clone(), snap.state.clone(), pos, lu))
        });
        let started = crash.is_some();
        let (basis, state, pos, lu) = match crash {
            Some(parts) => parts,
            None => all_slack(sf, &deps)?,
        };
        let aq = arena.take_f64(sf.m, 0.0);
        let cb = arena.take_f64(sf.m, 0.0);
        let mut rev = Rev {
            sf,
            arena,
            basis,
            pos,
            state,
            xb: Vec::new(),
            lu,
            etas: Vec::new(),
            eta_nnz: 0,
            barred: vec![false; sf.ncols],
            deps,
            cursor: 0,
            aq,
            cb,
            pivots: 0,
            phase1_pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
            started,
            pivot_budget: 0,
            refactor_budget: 0,
            deadline: None,
            ticks: 0,
        };
        rev.recompute_xb();
        if started && !rev.primal_feasible(false) {
            (rev.basis, rev.state, rev.pos, rev.lu) = all_slack(sf, &rev.deps)?;
            rev.started = false;
            rev.recompute_xb();
        }
        Some(rev)
    }

    /// Arms the solve budgets from the caller's options. The wall-clock
    /// deadline starts *now*, covering everything that follows (both
    /// phases, warm installs).
    fn arm_budgets(&mut self, opts: &BoundedOptions) {
        self.pivot_budget = opts.pivot_budget;
        self.refactor_budget = opts.refactor_budget;
        self.deadline = opts.stage_deadline();
    }

    /// Which budget, if any, is exhausted. Called at the top of every
    /// pivot-loop iteration; the wall clock is only read every
    /// [`TIME_CHECK_EVERY`] iterations.
    fn budget_trip(&mut self) -> Option<BudgetKind> {
        if self.pivot_budget != 0 && self.pivots >= self.pivot_budget {
            return Some(BudgetKind::Pivots);
        }
        if self.refactor_budget != 0 && self.refactorizations >= self.refactor_budget {
            return Some(BudgetKind::Refactorizations);
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
    /// a verdict. The pooled scratch (dense vectors and eta columns) is
    /// given back to the arena by [`Rev`]'s `Drop` impl when `self` goes
    /// out of scope here — the same path that recycles it on an unwind.
    fn finish(mut self, status: BoundedStatus) -> BoundedBasis {
        let blank = matches!(status, BoundedStatus::Stalled | BoundedStatus::Budget(_));
        BoundedBasis {
            status,
            basis: if blank {
                Vec::new()
            } else {
                std::mem::take(&mut self.basis)
            },
            state: if blank {
                Vec::new()
            } else {
                std::mem::take(&mut self.state)
            },
            pivots: self.pivots,
            phase1_pivots: self.phase1_pivots,
            bound_flips: self.bound_flips,
            refactorizations: self.refactorizations,
        }
    }

    /// Attempts to install a [`BasisSnapshot`] taken from a structurally
    /// identical problem: validates the snapshot's states against this
    /// standard form, refactorizes its (key-column-augmented) basis
    /// **once** (counted) to validate it, adopts it, and checks the
    /// recomputed basic values are primal feasible for *this* problem's
    /// data (within [`FEAS_TOL`]; exactness comes from the caller's
    /// rational certification, never from here). On success the solver is
    /// ready for a phase-2 run — artificials are barred and every basic
    /// artificial sits at (numerical) zero, so the installed basis is a
    /// feasible starting basis and phase 1 is skipped.
    ///
    /// Returns `false` on any failed check; the caller must then give the
    /// checked-out scratch back via [`Rev::finish`] before falling back to
    /// a cold solve — a failed install may leave `basis`/`state`
    /// half-adopted, which `finish(Stalled)` discards.
    fn install_snapshot(&mut self, snap: &BasisSnapshot) -> bool {
        let sf = self.sf;
        let Some(pos) = snapshot_positions(sf, snap) else {
            return false;
        };
        let cols = basis_columns(sf, &self.deps, &snap.basis, &snap.state);
        let Some(lu) = SparseLu::factor(sf.m, &cols) else {
            return false; // singular for this data
        };
        self.basis.copy_from_slice(&snap.basis);
        self.state.copy_from_slice(&snap.state);
        self.pos = pos;
        self.lu = lu;
        self.refactorizations += 1;
        self.recompute_xb();
        if !self.primal_feasible(true) {
            return false;
        }
        // Phase 1 is skipped: bar every artificial from re-entering (the
        // phase-2 ratio test additionally freezes the basic ones at 0).
        self.bar_artificials();
        true
    }

    /// Whether the basic values lie within their bounds and VUB caps
    /// (against basic or resting keys), within [`FEAS_TOL`] — and, with
    /// `artificials_at_zero`, whether every basic artificial is zero.
    fn primal_feasible(&self, artificials_at_zero: bool) -> bool {
        let sf = self.sf;
        (0..sf.m).all(|i| {
            let vi = self.basis[i];
            let x = self.xb[i];
            if x < -FEAS_TOL || (artificials_at_zero && sf.artificial[vi] && x > FEAS_TOL) {
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

    /// The sparse eta column for `w` from the arena pool: keeps the pivot
    /// entry at `r` unconditionally and drops other near-zero entries.
    fn sparse_eta(&mut self, w: &[f64], r: usize) -> Vec<(usize, f64)> {
        let mut col = self.arena.take_pairs();
        for (i, &v) in w.iter().enumerate() {
            if i == r || v.abs() > 1e-12 {
                col.push((i, v));
            }
        }
        col
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

    /// The augmented (Schrage key) column of `v`: its own column plus the
    /// columns of every dependent currently glued to it.
    fn aug_col(&self, v: usize) -> Vec<(usize, f64)> {
        key_column(self.sf, &self.deps, &self.state, v)
    }

    fn basis_cols(&self) -> Vec<Vec<(usize, f64)>> {
        basis_columns(self.sf, &self.deps, &self.basis, &self.state)
    }

    /// `xb = B̄⁻¹·(b − Σ_{j at a fixed value} val_j·A_j)` from scratch.
    /// Fixed values: constant upper bounds and dependents glued to
    /// *nonbasic* keys (dependents glued to basic keys ride inside the
    /// augmented basis columns instead).
    fn recompute_xb(&mut self) {
        let mut rhs = self.arena.take_f64(self.sf.m, 0.0);
        rhs.copy_from_slice(&self.sf.b);
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
                    rhs[i] -= val * v;
                }
            }
        }
        let xb = self.ftran(&rhs);
        self.arena.give_f64(rhs);
        let old = std::mem::replace(&mut self.xb, xb);
        self.arena.give_f64(old);
    }

    /// FTRAN through the pooled LU solve and the eta file. The returned
    /// vector is an arena buffer — the iteration gives it back at the end
    /// of each pivot, so the per-pivot solves stay allocator-quiet.
    fn ftran(&mut self, v: &[f64]) -> Vec<f64> {
        faultinject::hit("panic_in_ftran");
        let mut x = self.lu.solve_pooled(v, self.arena);
        for e in &self.etas {
            let t = x[e.r] / e.pivot;
            if t != 0.0 {
                for &(i, wi) in &e.rest {
                    x[i] -= wi * t;
                }
            }
            x[e.r] = t;
        }
        x
    }

    /// BTRAN through the eta file and the pooled LU solve; like
    /// [`Rev::ftran`], both the internal copy and the returned vector are
    /// arena buffers.
    fn btran(&mut self, c: &[f64]) -> Vec<f64> {
        let mut cacc = self.arena.take_f64(c.len(), 0.0);
        cacc.copy_from_slice(c);
        for e in self.etas.iter().rev() {
            let mut acc = 0.0;
            for &(i, wi) in &e.rest {
                acc += cacc[i] * wi;
            }
            cacc[e.r] = (cacc[e.r] - acc) / e.pivot;
        }
        let z = self.lu.solve_transposed_pooled(&cacc, self.arena);
        self.arena.give_f64(cacc);
        z
    }

    fn refactor(&mut self) -> bool {
        match SparseLu::factor(self.sf.m, &self.basis_cols()) {
            Some(lu) => {
                self.lu = lu;
                for e in self.etas.drain(..) {
                    self.arena.give_pairs(e.rest);
                }
                self.eta_nnz = 0;
                self.refactorizations += 1;
                self.recompute_xb();
                true
            }
            None => false,
        }
    }

    /// Appends an eta to the product-form file, tracking its fill. `col`
    /// must contain its pivot entry (row `r`), which is split out for the
    /// branch-free application loops.
    fn push_eta(&mut self, r: usize, mut col: Vec<(usize, f64)>) {
        let at = col
            .iter()
            .position(|&(i, _)| i == r)
            .expect("eta stores its pivot entry");
        let pivot = col.swap_remove(at).1;
        debug_assert!(pivot != 0.0);
        self.eta_nnz += col.len() + 1;
        self.etas.push(Eta {
            r,
            pivot,
            rest: col,
        });
    }

    /// Whether the eta file is long or dense enough to refactorize.
    fn eta_file_full(&self) -> bool {
        self.etas.len() >= REFACTOR_EVERY || self.eta_nnz >= ETA_NNZ_PER_ROW * self.sf.m
    }

    /// Recycles the iteration's dense temporaries on an early return from
    /// the pivot loop, so terminal iterations (optimality, unboundedness,
    /// refactorization failure) pool their scratch exactly like ordinary
    /// ones — without this, every `optimize` call would drop one or two
    /// buffers and the steady state of a solve-per-call workload would
    /// allocate fresh ones each time.
    fn recycle(&mut self, w: Vec<f64>, y: Vec<f64>, out: StepOutcome) -> StepOutcome {
        self.arena.give_f64(w);
        self.arena.give_f64(y);
        out
    }

    /// Plain reduced cost `d_j = c_j − y·A_j`.
    fn reduced(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut d = cost[j];
        for &(i, v) in &self.sf.cols[j] {
            d -= y[i] * v;
        }
        d
    }

    /// The "effective" improving reduced cost of nonbasic `j` (negative =
    /// improving), per resting state:
    ///
    /// * `AtLower` rises: `d̄_j` (augmented over glued dependents if `j` is
    ///   a key — they move with it);
    /// * `AtUpper` descends: `−d̄_j`;
    /// * `AtVub` comes off the glue downwards: `−d_j` (plain — the key
    ///   stays put).
    fn effective(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let d = self.reduced(cost, y, j);
        match self.state[j] {
            VarState::AtVub => -d,
            VarState::AtLower | VarState::AtUpper => {
                let mut dbar = d;
                for &dep in &self.deps[j] {
                    if self.state[dep] == VarState::AtVub {
                        dbar += self.reduced(cost, y, dep);
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
    }

    /// Entering-column selection: Bland (full scan, lowest index), full
    /// Dantzig (`window == 0`), or rotating-window partial pricing: price
    /// `window` columns starting at the cursor; the first window holding
    /// an improving candidate yields its best (Dantzig within the
    /// window), and only a full fruitless cycle certifies optimality. The
    /// rotation doubles as diversification — always chasing the single
    /// most negative reduced cost concentrates the pivots in one VUB
    /// family and multiplies degenerate glue/unglue churn.
    fn price(&mut self, cost: &[f64], y: &[f64], bland: bool, window: usize) -> Option<usize> {
        let ncols = self.sf.ncols;
        let priceable = |rev: &Self, j: usize| -> Option<f64> {
            if rev.state[j] == VarState::Basic || rev.barred[j] {
                return None;
            }
            let eff = rev.effective(cost, y, j);
            (eff < -ENTER_TOL).then_some(eff)
        };
        if bland {
            return (0..ncols).find(|&j| priceable(self, j).is_some());
        }
        if window == 0 || window >= ncols {
            let mut best: Option<(usize, f64)> = None;
            for j in 0..ncols {
                if let Some(eff) = priceable(self, j) {
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
                let j = self.cursor;
                self.cursor = (self.cursor + 1) % ncols;
                if let Some(eff) = priceable(self, j) {
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

    /// Runs the simplex loop for the cost vector `cost`. With
    /// `freeze_artificials` (phase 2), basic artificials are treated as
    /// having upper bound 0 in the ratio test, so no pivot can ever move
    /// them off zero — without it a cost-0 artificial could silently
    /// re-absorb constraint violation.
    fn optimize(&mut self, cost: &[f64], freeze_artificials: bool, window: usize) -> StepOutcome {
        let m = self.sf.m;
        let mut bland = false;
        let mut degenerate_run = 0usize;
        let cap = iteration_cap(m, self.sf.ncols);
        // Per-key sum of glued dependents' costs, maintained incrementally
        // at each glue/unglue event below. Rebuilding it by scanning every
        // key's dependent list each iteration would cost O(total VUB
        // memberships) per iteration — the O(n²)-class term this solver
        // exists to avoid.
        let mut aug_cost = vec![0.0f64; self.sf.ncols];
        for j in 0..self.sf.ncols {
            if self.state[j] == VarState::AtVub {
                aug_cost[self.sf.vub[j].expect("AtVub implies a VUB")] += cost[j];
            }
        }
        for _ in 0..cap {
            // Solve budgets first: at the top of an iteration no dense
            // temporaries are in flight, so a budget stop (like the
            // injected panic below) recycles its scratch through the
            // ordinary `finish`/`Drop` path.
            if let Some(kind) = self.budget_trip() {
                return StepOutcome::Budget(kind);
            }
            faultinject::hit("panic_in_pivot");
            // Simplex multipliers for the current (augmented) basis; the
            // basic-cost stub is pooled scratch refilled in place. (The
            // field is swapped out around the call because btran borrows
            // the solver state mutably for its arena.)
            for (slot, &v) in self.cb.iter_mut().zip(self.basis.iter()) {
                *slot = cost[v] + aug_cost[v];
            }
            let cb = std::mem::take(&mut self.cb);
            let y = self.btran(&cb);
            self.cb = cb;
            let Some(q) = self.price(cost, &y, bland, window) else {
                self.arena.give_f64(y);
                return StepOutcome::Optimal;
            };
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
            let acol = self.aug_col(q);
            for &(i, v) in &acol {
                self.aq[i] = v;
            }
            let aq = std::mem::take(&mut self.aq);
            let w = self.ftran(&aq);
            self.aq = aq;
            for &(i, _) in &acol {
                self.aq[i] = 0.0;
            }

            // ---- ratio test -------------------------------------------
            // Entering variable's own span first (the bound-flip family).
            let mut t_best = f64::INFINITY;
            let mut hit = Hit::FlipTo(VarState::AtLower); // overwritten below
            let mut hit_mag = 0.0f64; // pivot magnitude for tie-breaks
            let consider =
                |t: f64, mag: f64, h: Hit, t_best: &mut f64, hit: &mut Hit, hit_mag: &mut f64| {
                    let t = t.max(0.0);
                    let tie = (t - *t_best).abs() <= 1e-12;
                    if t < *t_best - 1e-12 || (tie && mag > *hit_mag) {
                        *t_best = t;
                        *hit = h;
                        *hit_mag = mag;
                    }
                };
            match self.state[q] {
                VarState::AtLower => {
                    if let Some(u) = self.sf.upper[q] {
                        consider(
                            u,
                            0.0,
                            Hit::FlipTo(VarState::AtUpper),
                            &mut t_best,
                            &mut hit,
                            &mut hit_mag,
                        );
                    }
                    if let Some(k) = self.sf.vub[q] {
                        if self.pos[k] == usize::MAX {
                            let span = self.key_rest_value(k);
                            consider(
                                span,
                                0.0,
                                Hit::FlipTo(VarState::AtVub),
                                &mut t_best,
                                &mut hit,
                                &mut hit_mag,
                            );
                        } else {
                            // Rising towards a basic key: meet when
                            // t = xb_k / (1 + σ·w_k).
                            let pk = self.pos[k];
                            let den = 1.0 + sigma * w[pk];
                            if den > PIV_TOL {
                                consider(
                                    self.xb[pk].max(0.0) / den,
                                    den.abs(),
                                    Hit::FlipGlue,
                                    &mut t_best,
                                    &mut hit,
                                    &mut hit_mag,
                                );
                            }
                        }
                    }
                }
                VarState::AtUpper => {
                    // Dependents never rest AtUpper (their constant bounds
                    // are promoted rows), so the only span is down to 0.
                    let u = self.sf.upper[q].expect("AtUpper implies a finite bound");
                    consider(
                        u,
                        0.0,
                        Hit::FlipTo(VarState::AtLower),
                        &mut t_best,
                        &mut hit,
                        &mut hit_mag,
                    );
                }
                VarState::AtVub => {
                    let k = self.sf.vub[q].expect("AtVub implies a VUB");
                    if self.pos[k] == usize::MAX {
                        let span = self.key_rest_value(k);
                        consider(
                            span,
                            0.0,
                            Hit::FlipTo(VarState::AtLower),
                            &mut t_best,
                            &mut hit,
                            &mut hit_mag,
                        );
                    } else {
                        // Descending off a basic key towards 0: the key's
                        // value drifts too, meet at t = xb_k / (1 + σ·w_k).
                        let pk = self.pos[k];
                        let den = 1.0 + sigma * w[pk];
                        if den > PIV_TOL {
                            consider(
                                self.xb[pk].max(0.0) / den,
                                den.abs(),
                                Hit::FlipUnglue,
                                &mut t_best,
                                &mut hit,
                                &mut hit_mag,
                            );
                        }
                    }
                }
                VarState::Basic => unreachable!(),
            }
            // Basic variables hitting a bound.
            for i in 0..m {
                let vi = self.basis[i];
                let d = sigma * w[i];
                if d > PIV_TOL {
                    consider(
                        self.xb[i].max(0.0) / d,
                        d.abs(),
                        Hit::Leave(i, VarState::AtLower),
                        &mut t_best,
                        &mut hit,
                        &mut hit_mag,
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
                        consider(
                            (u - self.xb[i]).max(0.0) / -d,
                            d.abs(),
                            Hit::Leave(i, to),
                            &mut t_best,
                            &mut hit,
                            &mut hit_mag,
                        );
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
                            consider(
                                s / rate,
                                rate.abs(),
                                Hit::LeaveGlue(i),
                                &mut t_best,
                                &mut hit,
                                &mut hit_mag,
                            );
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
                            consider(
                                s / rate,
                                rate.abs(),
                                Hit::LeaveGlue(i),
                                &mut t_best,
                                &mut hit,
                                &mut hit_mag,
                            );
                        }
                    }
                }
            }
            if t_best.is_infinite() {
                return self.recycle(w, y, StepOutcome::Unbounded);
            }
            if t_best <= ENTER_TOL {
                degenerate_run += 1;
                if degenerate_run >= DEGENERATE_SWITCH {
                    bland = true;
                }
            } else {
                degenerate_run = 0;
            }
            let t = t_best;
            // ---- apply -------------------------------------------------
            // Glue/unglue events change basis *columns* (augmented key
            // columns grow or shrink), not just which columns are basic.
            // Each such change is the rank-one update `B ← B ± A_col·e_p^T`,
            // which the product-form eta file absorbs as the eta
            // `(p, ±B⁻¹A_col + e_p)`; the ratio test's rate/den thresholds
            // guarantee the eta pivot entries are well-conditioned, so a
            // full refactorization is only the fallback, never the rule.
            //
            // When q was glued to a basic key, its departure shrinks that
            // key column whatever else happens; capture the key's position
            // now — the bookkeeping below may move or evict the key.
            let unglue_pk: Option<usize> = (self.state[q] == VarState::AtVub)
                .then(|| self.pos[self.sf.vub[q].expect("AtVub implies a VUB")])
                .filter(|&pk| pk != usize::MAX);
            let unglues_entering = unglue_pk.is_some();
            let entering_was_glued = self.state[q] == VarState::AtVub;
            // The value the entering variable takes if it pivots into the
            // basis at step t, against the pre-update basic values: the
            // t-parametrization off a basic key (v_q(t) = xb_pk +
            // t·(w_pk − 1)), an ascent from 0, or a descent from the
            // constant bound / nonbasic key's value. Shared by the leave
            // arms below.
            let enter_value = if let Some(pk) = unglue_pk {
                self.xb[pk] + t * (w[pk] - 1.0)
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
                    // possible with a nonbasic (or absent) key, so no
                    // column changes. (`unglues_entering` implies the span
                    // candidate was FlipUnglue, never FlipTo.)
                    debug_assert!(!unglues_entering);
                    if t > 0.0 {
                        for i in 0..m {
                            self.xb[i] -= sigma * t * w[i];
                        }
                    }
                    if entering_was_glued {
                        aug_cost[self.sf.vub[q].expect("AtVub implies a VUB")] -= cost[q];
                    }
                    if new_state == VarState::AtVub {
                        aug_cost[self.sf.vub[q].expect("AtVub target implies a VUB")] += cost[q];
                    }
                    self.state[q] = new_state;
                    self.bound_flips += 1;
                }
                Hit::FlipGlue => {
                    // q (a dependent, plain column — deps are never keys)
                    // rises onto its basic key at position pk:
                    // B ← B + A_q·e_pk^T, eta (pk, w + e_pk) with pivot
                    // 1 + w_pk > PIV_TOL by the den check above.
                    let key = self.sf.vub[q].expect("FlipGlue implies a VUB");
                    let pk = self.pos[key];
                    if t > 0.0 {
                        for i in 0..m {
                            self.xb[i] -= sigma * t * w[i];
                        }
                    }
                    self.state[q] = VarState::AtVub;
                    aug_cost[key] += cost[q];
                    self.bound_flips += 1;
                    let mut col = self.sparse_eta(&w, pk);
                    bump(&mut col, pk, 1.0);
                    self.push_eta(pk, col);
                    if self.eta_file_full() && !self.refactor() {
                        return self.recycle(w, y, StepOutcome::Stalled);
                    }
                }
                Hit::FlipUnglue => {
                    // q comes off its basic key down to 0:
                    // B ← B − A_q·e_pk^T, eta (pk, −w + e_pk) with pivot
                    // 1 − w_pk > PIV_TOL by the den check above.
                    let key = self.sf.vub[q].expect("FlipUnglue implies a VUB");
                    let pk = self.pos[key];
                    if t > 0.0 {
                        for i in 0..m {
                            self.xb[i] -= sigma * t * w[i];
                        }
                    }
                    self.state[q] = VarState::AtLower;
                    aug_cost[key] -= cost[q];
                    self.bound_flips += 1;
                    let mut neg = self.arena.take_f64(m, 0.0);
                    for (o, &v) in neg.iter_mut().zip(&w) {
                        *o = -v;
                    }
                    let mut col = self.sparse_eta(&neg, pk);
                    self.arena.give_f64(neg);
                    bump(&mut col, pk, 1.0);
                    self.push_eta(pk, col);
                    if self.eta_file_full() && !self.refactor() {
                        return self.recycle(w, y, StepOutcome::Stalled);
                    }
                }
                Hit::Leave(r, to) => {
                    let lvar = self.basis[r];
                    if entering_was_glued {
                        aug_cost[self.sf.vub[q].expect("AtVub implies a VUB")] -= cost[q];
                    }
                    if to == VarState::AtVub {
                        aug_cost[self.sf.vub[lvar].expect("AtVub target implies a VUB")] +=
                            cost[lvar];
                    }
                    self.state[lvar] = to;
                    self.pos[lvar] = usize::MAX;
                    self.basis[r] = q;
                    self.pos[q] = r;
                    self.state[q] = VarState::Basic;
                    self.pivots += 1;
                    if t > 0.0 {
                        for i in 0..m {
                            if i != r {
                                self.xb[i] -= sigma * t * w[i];
                            }
                        }
                    }
                    self.xb[r] = enter_value;
                    if let Some(pk) = unglue_pk {
                        // Shrink the key column first (eta1), then install
                        // the entering column at r against the shrunk
                        // basis (eta2, direction w transformed by eta1).
                        let den = 1.0 - w[pk];
                        if den.abs() <= PIV_TOL {
                            if !self.refactor() {
                                return self.recycle(w, y, StepOutcome::Stalled);
                            }
                        } else {
                            let mut neg = self.arena.take_f64(m, 0.0);
                            for (o, &v) in neg.iter_mut().zip(&w) {
                                *o = -v;
                            }
                            let mut col = self.sparse_eta(&neg, pk);
                            bump(&mut col, pk, 1.0);
                            self.push_eta(pk, col);
                            let scale = w[pk] / den;
                            let mut w2 = neg; // reuse the pooled buffer
                            for (o, &v) in w2.iter_mut().zip(&w) {
                                *o = v * (1.0 + scale);
                            }
                            w2[pk] = scale;
                            if w2[r].abs() <= PIV_TOL {
                                self.arena.give_f64(w2);
                                if !self.refactor() {
                                    return self.recycle(w, y, StepOutcome::Stalled);
                                }
                            } else {
                                let col = self.sparse_eta(&w2, r);
                                self.arena.give_f64(w2);
                                self.push_eta(r, col);
                            }
                        }
                    } else {
                        let col = self.sparse_eta(&w, r);
                        self.push_eta(r, col);
                    }
                    if self.eta_file_full() && !self.refactor() {
                        return self.recycle(w, y, StepOutcome::Stalled);
                    }
                }
                Hit::LeaveGlue(r) => {
                    // The basic dependent at row r leaves glued to its key
                    // — already basic at pk, or the entering q itself. Its
                    // column A_dep is the current basis column r, so
                    // B⁻¹A_dep = e_r exactly and the glue etas are
                    // analytic.
                    let lvar = self.basis[r];
                    let key = self.sf.vub[lvar].expect("LeaveGlue implies a VUB");
                    let pk = self.pos[key];
                    if entering_was_glued {
                        aug_cost[self.sf.vub[q].expect("AtVub implies a VUB")] -= cost[q];
                    }
                    aug_cost[key] += cost[lvar];
                    self.state[lvar] = VarState::AtVub;
                    self.pos[lvar] = usize::MAX;
                    self.basis[r] = q;
                    self.pos[q] = r;
                    self.state[q] = VarState::Basic;
                    self.pivots += 1;
                    if t > 0.0 {
                        for i in 0..m {
                            if i != r {
                                self.xb[i] -= sigma * t * w[i];
                            }
                        }
                    }
                    self.xb[r] = enter_value;
                    if unglues_entering {
                        // Three column changes at once (q's old key
                        // shrinks, the new glue, the install): rare —
                        // refactorize.
                        if !self.refactor() {
                            return self.recycle(w, y, StepOutcome::Stalled);
                        }
                    } else if pk != usize::MAX {
                        // Key basic at pk: eta1 = (pk, e_r + e_pk) grows
                        // the key column (pivot exactly 1); eta2 installs
                        // the entering column, whose eta1-transformed
                        // direction differs from w only at r and pk, with
                        // pivot w_r − w_pk (|·| = the ratio-test rate).
                        let mut glue = self.arena.take_pairs();
                        glue.extend([(r, 1.0), (pk, 1.0)]);
                        self.push_eta(pk, glue);
                        let mut w2 = self.arena.take_f64(m, 0.0);
                        w2.copy_from_slice(&w);
                        w2[r] -= w[pk];
                        let col = self.sparse_eta(&w2, r);
                        self.arena.give_f64(w2);
                        self.push_eta(r, col);
                    } else {
                        // The key is the entering q: install the augmented
                        // column + the fresh glue in one eta with pivot
                        // 1 + w_r (|·| = the ratio-test rate).
                        debug_assert_eq!(key, q);
                        let mut col = self.sparse_eta(&w, r);
                        bump(&mut col, r, 1.0);
                        self.push_eta(r, col);
                    }
                    if self.eta_file_full() && !self.refactor() {
                        return self.recycle(w, y, StepOutcome::Stalled);
                    }
                }
            }
            // Recycle the iteration's dense temporaries (terminal paths
            // above recycle through [`Rev::recycle`]).
            self.arena.give_f64(w);
            self.arena.give_f64(y);
        }
        StepOutcome::Stalled
    }
}

/// Gives every pooled scratch buffer the solver still owns (dense vectors
/// and eta columns) back to the arena. This is the single recycling point
/// for **every** exit path: [`Rev::finish`] relies on it for ordinary
/// returns, and an unwind out of the pivot loop (an injected failpoint, a
/// defensive `panic!`) runs it too — so a panicking component solve never
/// leaks the arena's capacity or poisons its pool. Buffers already taken
/// out by `finish` are capacity-0 `Vec`s by then, which
/// [`SolveArena::give_f64`] ignores. (Dense temporaries held in locals
/// mid-iteration — an FTRAN image in flight when a panic fires — are
/// simply freed by their own drops; the pool loses nothing, it just
/// re-allocates that buffer on the next checkout.)
impl Drop for Rev<'_> {
    fn drop(&mut self) {
        self.arena.give_f64(std::mem::take(&mut self.aq));
        self.arena.give_f64(std::mem::take(&mut self.cb));
        self.arena.give_f64(std::mem::take(&mut self.xb));
        for e in self.etas.drain(..) {
            self.arena.give_pairs(e.rest);
        }
    }
}

/// The all-slack/artificial starting basis of `sf`, factored: basis,
/// states, column → position map, LU.
#[allow(clippy::type_complexity)]
fn all_slack(
    sf: &StandardForm<f64>,
    deps: &[Vec<usize>],
) -> Option<(Vec<usize>, Vec<VarState>, Vec<usize>, SparseLu<f64>)> {
    let basis = sf.init_basis.clone();
    let mut state = vec![VarState::AtLower; sf.ncols];
    let mut pos = vec![usize::MAX; sf.ncols];
    for (i, &j) in basis.iter().enumerate() {
        state[j] = VarState::Basic;
        pos[j] = i;
    }
    let lu = SparseLu::factor(sf.m, &basis_columns(sf, deps, &basis, &state))?;
    Some((basis, state, pos, lu))
}

/// Checks a snapshot's states against `sf` — its shape, finite bounds
/// where states claim them, VUBs where glue states claim them, flat
/// families, exactly `m` basic columns matching the basis vector — and
/// returns its column → basis position map.
fn snapshot_positions(sf: &StandardForm<f64>, snap: &BasisSnapshot) -> Option<Vec<usize>> {
    if snap.m != sf.m
        || snap.ncols != sf.ncols
        || snap.basis.len() != sf.m
        || snap.state.len() != sf.ncols
    {
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

/// The augmented key column of `v` under `state` (see [`augmented_column`]).
fn key_column(
    sf: &StandardForm<f64>,
    deps: &[Vec<usize>],
    state: &[VarState],
    v: usize,
) -> Vec<(usize, f64)> {
    let glued: Vec<usize> = deps[v]
        .iter()
        .copied()
        .filter(|&j| state[j] == VarState::AtVub)
        .collect();
    augmented_column(&sf.cols, v, &glued)
}

/// The (augmented) basis matrix columns of `basis` under `state`.
fn basis_columns(
    sf: &StandardForm<f64>,
    deps: &[Vec<usize>],
    basis: &[usize],
    state: &[VarState],
) -> Vec<Vec<(usize, f64)>> {
    basis
        .iter()
        .map(|&j| key_column(sf, deps, state, j))
        .collect()
}

/// The augmented (Schrage key) column `A_base + Σ_{j ∈ glued} A_j` as a
/// sorted sparse merge. Shared by the `f64` iteration and the exact `Rat`
/// certification so the two sides always build the same basis matrix.
pub(crate) fn augmented_column<S: Scalar>(
    cols: &[Vec<(usize, S)>],
    base: usize,
    glued: &[usize],
) -> Vec<(usize, S)> {
    if glued.is_empty() {
        return cols[base].clone();
    }
    let mut merged = cols[base].clone();
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

/// Adds `delta` to the entry at row `r` of a sparse eta column (present or
/// not).
fn bump(col: &mut Vec<(usize, f64)>, r: usize, delta: f64) {
    match col.iter_mut().find(|(i, _)| *i == r) {
        Some(e) => e.1 += delta,
        None => col.push((r, delta)),
    }
}

/// Two-phase bounded revised simplex over a `StandardForm<f64>` with the
/// default options, from the all-slack basis. The result is a *proposal*:
/// callers must verify `Optimal` outcomes exactly and must treat every
/// other status as "rerun exactly".
pub fn solve_bounded_f64(sf: &StandardForm<f64>) -> BoundedBasis {
    solve_bounded_f64_with(sf, &BoundedOptions::default(), None)
}

/// [`solve_bounded_f64`] with explicit [`BoundedOptions`] and an optional
/// crash start in `sf`'s columns (see the module docs; `None` is the
/// all-slack basis). Scratch space comes from (and returns to) the
/// calling thread's [`SolveArena`].
pub fn solve_bounded_f64_with(
    sf: &StandardForm<f64>,
    opts: &BoundedOptions,
    start: Option<&BasisSnapshot>,
) -> BoundedBasis {
    let mut span = abt_core::obs_span!("solve.pivot", cols = sf.ncols, rows = sf.m);
    let basis = crate::arena::with_arena(|arena| solve_bounded_pooled(sf, opts, start, arena));
    span.field("pivots", basis.pivots);
    span.field("phase1_pivots", basis.phase1_pivots);
    span.field("status", format_args!("{:?}", basis.status));
    basis
}

/// Warm-started bounded solve: installs `snap` (validating the states
/// against this standard form, refactorizing the augmented basis once,
/// and checking primal feasibility of the recomputed basic values) and,
/// on success, runs **phase 2 only** from the installed basis — the
/// installed basis is feasible with artificials at zero, so phase 1 is
/// skipped. Returns `None` when the snapshot cannot be
/// installed for this problem (shape drift, singular basis, primal
/// infeasibility) — the caller must fall back to the cold solve.
/// Like [`solve_bounded_f64_with`], an `Optimal` result is a *proposal*
/// that must be verified exactly.
pub fn solve_bounded_f64_warm_with(
    sf: &StandardForm<f64>,
    opts: &BoundedOptions,
    snap: &BasisSnapshot,
) -> Option<BoundedBasis> {
    crate::arena::with_arena(|arena| solve_bounded_warm_pooled(sf, opts, snap, arena))
}

/// [`solve_bounded_f64_warm_with`] against an explicit arena.
pub(crate) fn solve_bounded_warm_pooled(
    sf: &StandardForm<f64>,
    opts: &BoundedOptions,
    snap: &BasisSnapshot,
    arena: &mut SolveArena,
) -> Option<BoundedBasis> {
    let mut rev = Rev::new(sf, arena, None)?;
    rev.arm_budgets(opts);
    if !rev.install_snapshot(snap) {
        // The early-exit path of a failed install: `finish` gives every
        // checked-out buffer (dense scratch and any eta columns) back to
        // the arena before the caller falls back to the cold solve.
        rev.finish(BoundedStatus::Stalled);
        return None;
    }
    let status = match rev.optimize(&sf.cost, true, opts.pricing_window) {
        StepOutcome::Optimal => BoundedStatus::Optimal,
        StepOutcome::Unbounded => BoundedStatus::Unbounded,
        StepOutcome::Stalled => BoundedStatus::Stalled,
        StepOutcome::Budget(k) => BoundedStatus::Budget(k),
    };
    Some(rev.finish(status))
}

/// The cold pass: phase 1 (when the start needs it), then phase 2, from
/// `start` or the all-slack basis (see [`Rev::new`]).
fn solve_bounded_pooled(
    sf: &StandardForm<f64>,
    opts: &BoundedOptions,
    start: Option<&BasisSnapshot>,
    arena: &mut SolveArena,
) -> BoundedBasis {
    let Some(mut rev) = Rev::new(sf, arena, start) else {
        return BoundedBasis {
            status: BoundedStatus::Stalled,
            basis: Vec::new(),
            state: Vec::new(),
            pivots: 0,
            phase1_pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
        };
    };
    rev.arm_budgets(opts);
    let window = opts.pricing_window;
    // From the all-slack basis phase 1 runs whenever the form has
    // artificials; from a crash start only while a basic artificial is
    // positive.
    let phase1 = if rev.started {
        rev.infeasibility() > FEAS_TOL
    } else {
        sf.n_art > 0
    };
    if phase1 {
        let cost1: Vec<f64> = (0..sf.ncols)
            .map(|j| if sf.artificial[j] { 1.0 } else { 0.0 })
            .collect();
        let outcome = rev.optimize(&cost1, false, window);
        rev.phase1_pivots = rev.pivots;
        match outcome {
            StepOutcome::Optimal => {}
            StepOutcome::Budget(k) => return rev.finish(BoundedStatus::Budget(k)),
            // Phase 1 is bounded below by 0; treat anything else as a stall.
            StepOutcome::Unbounded | StepOutcome::Stalled => {
                return rev.finish(BoundedStatus::Stalled)
            }
        }
        if rev.infeasibility() > FEAS_TOL {
            return rev.finish(BoundedStatus::Infeasible);
        }
    }
    rev.bar_artificials();
    let status = match rev.optimize(&sf.cost, true, window) {
        StepOutcome::Optimal => BoundedStatus::Optimal,
        StepOutcome::Unbounded => BoundedStatus::Unbounded,
        StepOutcome::Stalled => return rev.finish(BoundedStatus::Stalled),
        StepOutcome::Budget(k) => return rev.finish(BoundedStatus::Budget(k)),
    };
    rev.finish(status)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Cmp, LpProblem};

    fn sf(lp: &LpProblem<f64>) -> StandardForm<f64> {
        StandardForm::build(lp)
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
        let out = solve_bounded_f64(&s);
        assert_eq!(out.status, BoundedStatus::Optimal);
        assert_eq!(out.state[x], VarState::AtUpper);
        // The slack stayed basic: no pivot happened at all.
        assert_eq!(out.basis, s.init_basis);
        assert_eq!(out.pivots, 0);
        assert!(out.bound_flips >= 1);
    }

    #[test]
    fn bounded_solver_detects_infeasible_and_unbounded() {
        let mut inf: LpProblem<f64> = LpProblem::new();
        let x = inf.add_var(1.0);
        inf.add_constraint(vec![(x, 1.0)], Cmp::Ge, 3.0);
        inf.set_upper(x, 1.0);
        assert_eq!(
            solve_bounded_f64(&sf(&inf)).status,
            BoundedStatus::Infeasible
        );

        let mut unb: LpProblem<f64> = LpProblem::new();
        let x = unb.add_var(-1.0);
        unb.add_constraint(vec![(x, 1.0)], Cmp::Ge, 1.0);
        assert_eq!(
            solve_bounded_f64(&sf(&unb)).status,
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
        let out = solve_bounded_f64(&s);
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
}
