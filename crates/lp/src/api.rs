//! The unified solver surface: one fallible core, [`solve_lp`], the single
//! entry point to every engine in this crate, dispatched by policy.
//!
//! [`LpOptions`] carries every solve policy — engine
//! ([`SolverBackend`]), float-pass pricing and budgets
//! ([`crate::bounds::BoundedOptions`]), and an optional crash start for
//! the cold solve — behind a chainable builder, so adding a policy is a
//! new option field rather than a new `solve_*` name. The engines read
//! the options directly and all return an [`LpReport`].

use crate::bounds::BoundedOptions;
use crate::model::LpProblem;
use crate::rational::Rat;
use crate::simplex::{self, dense_hybrid, revised_cold, LpSolution, SolveStats};
use crate::start::StartBasis;
use abt_core::error::SolveFailure;

/// Which solver engine [`solve_lp`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Dense two-phase simplex with every pivot in exact rationals — the
    /// engine of last resort. Slow, but with no float pass there is
    /// nothing to certify or refute.
    DenseExact,
    /// Dense `f64` search with exact certification of the terminal basis;
    /// bounds and VUBs are materialized as rows. Like `Revised`, it
    /// answers only what it certified: a float `Infeasible` claim is
    /// [`SolveFailure::Infeasible`], and a float `Unbounded` claim or a
    /// refuted basis [`SolveFailure::NumericalStall`].
    DenseHybrid,
    /// The bounded revised simplex — implicit bounds, Schrage-style VUB
    /// pivoting, partial pricing, sparse-LU certification, an optional
    /// crash start. The default, and the only backend that consults
    /// `start` and budgets.
    #[default]
    Revised,
}

/// The full solve policy of [`solve_lp`], composed with a chainable
/// builder:
///
/// ```
/// use abt_lp::{LpOptions, SolverBackend};
/// let opts = LpOptions::new().backend(SolverBackend::DenseHybrid);
/// assert_eq!(opts.backend, SolverBackend::DenseHybrid);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LpOptions<'a> {
    /// The engine to run; see [`SolverBackend`].
    pub backend: SolverBackend,
    /// Float-pass pricing window and pivot/wall-time budgets (`Revised`
    /// backend only).
    pub pricing: BoundedOptions,
    /// The starting basis of a `Revised` solve (see [`StartBasis`]);
    /// `None` starts from the all-slack basis. The dense backends ignore
    /// it.
    pub start: Option<&'a StartBasis>,
}

impl<'a> LpOptions<'a> {
    /// The default policy: cold `Revised` backend, default pricing, no
    /// budgets.
    pub fn new() -> LpOptions<'static> {
        LpOptions::default()
    }

    /// Selects the engine.
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Sets the float-pass pricing window and budgets.
    pub fn pricing(mut self, pricing: BoundedOptions) -> Self {
        self.pricing = pricing;
        self
    }

    /// Sets the starting basis (see [`LpOptions::start`]).
    pub fn start(mut self, start: Option<&'a StartBasis>) -> Self {
        self.start = start;
        self
    }
}

/// Result of [`solve_lp`]: the certified solution plus provenance and
/// solve counters.
#[derive(Debug, Clone)]
pub struct LpReport {
    /// The exact solution: status, objective, `x`, row duals. Status and
    /// objective are bit identical across every backend.
    pub solution: LpSolution<Rat>,
    /// `true` iff the answer came from the [`SolverBackend::DenseExact`]
    /// backend, the one engine with no float pass to certify.
    pub fallback: bool,
    /// Pivot/flip/refactorization counters, the certify clock and how
    /// the certification went.
    pub stats: SolveStats,
}

/// Solves `lp` under the policy in `opts` — **the** entry point to the
/// dense, hybrid, and revised engines.
///
/// Dispatch: every engine gives an exactly certified answer or a typed
/// [`SolveFailure`], and callers (the supervision ladder in `abt-active`)
/// choose what runs next. The `DenseExact` backend pivots in rationals and
/// never fails. The `DenseHybrid` and `Revised` backends certify their
/// float pass's terminal basis and never fall back on their own; the
/// `Revised` backend solves cold, from `opts.start` when one is offered.
/// Whether a certification proved its reduced-cost signs wholly in
/// integers is reported in [`SolveStats::interval_accepts`] /
/// [`SolveStats::interval_escalations`].
///
/// ```
/// use abt_lp::{solve_lp, Cmp, LpOptions, LpProblem, LpStatus, Rat};
///
/// // min −x − z  s.t.  x + y + z ≥ 1,  y ≤ 4 (implicit bound),
/// //                   x ≤ y (VUB family: key y, dependent x), z ≤ 2.
/// let mut lp: LpProblem<Rat> = LpProblem::new();
/// let x = lp.add_var(Rat::from_int(-1));
/// let y = lp.add_var(Rat::ZERO);
/// let z = lp.add_var(Rat::from_int(-1));
/// lp.add_constraint(
///     vec![(x, Rat::ONE), (y, Rat::ONE), (z, Rat::ONE)],
///     Cmp::Ge,
///     Rat::ONE,
/// );
/// lp.set_upper(y, Rat::from_int(4));
/// lp.set_upper(z, Rat::from_int(2));
/// lp.set_vub(x, y);
///
/// let rep = solve_lp(&lp, &LpOptions::new()).expect("clean solve");
/// assert_eq!(rep.solution.status, LpStatus::Optimal);
/// assert_eq!(rep.solution.objective, Rat::from_int(-6));
/// assert!(lp.is_feasible(&rep.solution.x));
/// ```
pub fn solve_lp(lp: &LpProblem<Rat>, opts: &LpOptions) -> Result<LpReport, SolveFailure> {
    match opts.backend {
        SolverBackend::DenseExact => Ok(LpReport {
            solution: simplex::solve(lp),
            fallback: true,
            stats: SolveStats::default(),
        }),
        SolverBackend::DenseHybrid => dense_hybrid(lp),
        SolverBackend::Revised => revised_cold(lp, opts),
    }
}
