//! The unified solver surface: one fallible core, [`solve_lp`], the single
//! entry point to every engine in this crate, dispatched by policy.
//!
//! [`LpOptions`] carries every solve policy — engine
//! ([`SolverBackend`]), float-pass pricing and budgets
//! ([`crate::bounds::BoundedOptions`]), certification tier
//! ([`CertifyMode`]), an optional warm-start snapshot pool, and an
//! optional crash start for the cold solve — behind a
//! chainable builder, so adding a policy is a new option field rather
//! than a new `solve_*` name. The engines read the options directly and
//! all return an [`LpReport`].

use crate::bounds::BoundedOptions;
use crate::model::LpProblem;
use crate::rational::Rat;
use crate::simplex::{self, dense_hybrid, revised_cold, CertifyMode, LpSolution, SolveStats};
use crate::warm::{revised_warm, BasisSnapshot, StartBasis};
use abt_core::error::SolveFailure;

/// Which solver engine [`solve_lp`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Dense two-phase simplex with every pivot in exact rationals — the
    /// engine of last resort. Slow, but with no float pass there is
    /// nothing to certify or refute.
    DenseExact,
    /// Dense `f64` search with exact certification of the terminal basis
    /// and an internal dense-exact fallback; bounds and VUBs are
    /// materialized as rows. Never fails — the fallback absorbs every
    /// refutation.
    DenseHybrid,
    /// The bounded revised simplex — implicit bounds, Schrage-style VUB
    /// pivoting, partial pricing, sparse-LU certification, optional warm
    /// starts. The default, and the only backend that consults
    /// `snapshots` and budgets.
    #[default]
    Revised,
}

/// The full solve policy of [`solve_lp`], composed with a chainable
/// builder:
///
/// ```
/// use abt_lp::{CertifyMode, LpOptions};
/// let opts = LpOptions::new().certify(CertifyMode::Exact);
/// assert_eq!(opts.certify, CertifyMode::Exact);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LpOptions<'pool> {
    /// The engine to run; see [`SolverBackend`].
    pub backend: SolverBackend,
    /// Float-pass pricing window and pivot/refactorization/wall-time
    /// budgets (`Revised` backend only).
    pub pricing: BoundedOptions,
    /// Certification tier policy for the terminal basis (`Revised` and
    /// `DenseHybrid`; `DenseExact` pivots in exact rationals and has
    /// nothing to certify).
    pub certify: CertifyMode,
    /// Warm-start candidates, tried in order (`Revised` backend only).
    pub snapshots: &'pool [BasisSnapshot],
    /// The starting basis of a cold `Revised` solve (see [`StartBasis`]);
    /// `None` starts from the all-slack basis. Warm installs and the dense
    /// backends ignore it.
    pub start: Option<&'pool StartBasis>,
    /// With a `true`, a `Revised` solve never falls through to a cold
    /// solve: exhausting `snapshots` returns
    /// [`SolveFailure::ShapeDrift`]. This is rung 1 of the supervision
    /// ladder in `abt-active`, where the supervisor decides what a pool
    /// miss costs.
    pub warm_only: bool,
}

impl<'pool> LpOptions<'pool> {
    /// The default policy: cold `Revised` backend, default pricing, no
    /// budgets, [`CertifyMode::IntervalThenExact`].
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

    /// Sets the certification tier policy.
    pub fn certify(mut self, certify: CertifyMode) -> Self {
        self.certify = certify;
        self
    }

    /// Offers warm-start candidates (tried in order; see
    /// [`crate::warm`]).
    pub fn snapshots(mut self, pool: &'pool [BasisSnapshot]) -> Self {
        self.snapshots = pool;
        self
    }

    /// Sets the cold solve's starting basis (see [`LpOptions::start`]).
    pub fn start(mut self, start: Option<&'pool StartBasis>) -> Self {
        self.start = start;
        self
    }

    /// Makes a `Revised` solve warm-only (see [`LpOptions::warm_only`]).
    pub fn warm_only(mut self, on: bool) -> Self {
        self.warm_only = on;
        self
    }
}

/// Result of [`solve_lp`]: the certified solution plus provenance and
/// solve counters.
#[derive(Debug, Clone)]
pub struct LpReport {
    /// The exact solution: status, objective, `x`, row duals. Bit
    /// identical across every backend and certify mode.
    pub solution: LpSolution<Rat>,
    /// `true` iff the answer came from the pure exact dense path — the
    /// `DenseExact` backend itself, or a dense-backend internal fallback.
    pub fallback: bool,
    /// `true` iff a warm-installed snapshot produced the certified
    /// answer.
    pub warm_hit: bool,
    /// Snapshot of the verified terminal basis for future warm starts
    /// (`Revised` backend, non-fallback solves only).
    pub snapshot: Option<BasisSnapshot>,
    /// Pivot/flip/refactorization counters and the per-tier certify
    /// clocks.
    pub stats: SolveStats,
}

impl LpReport {
    /// A report of a dense backend: no warm start and no snapshot.
    pub(crate) fn dense(solution: LpSolution<Rat>, fallback: bool, stats: SolveStats) -> LpReport {
        LpReport {
            solution,
            fallback,
            warm_hit: false,
            snapshot: None,
            stats,
        }
    }
}

/// Solves `lp` under the policy in `opts` — **the** entry point to the
/// dense, hybrid, and revised engines.
///
/// Dispatch: the `DenseExact` and `DenseHybrid` backends never fail (the
/// hybrid absorbs refutations in its internal exact fallback). The
/// `Revised` backend tries the warm pool first (when one is offered),
/// falls through to a cold revised solve on a routine pool miss — unless
/// `warm_only` — and surfaces every genuine failure as a typed
/// [`SolveFailure`] so callers (the supervision ladder in `abt-active`)
/// choose the next rung. An `Ok` from the `Revised` backend is always an
/// exactly certified optimum; which certification *tier* proved dual
/// feasibility is reported in [`SolveStats::interval_accepts`] /
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
        SolverBackend::DenseExact => Ok(LpReport::dense(
            simplex::solve(lp),
            true,
            SolveStats::default(),
        )),
        SolverBackend::DenseHybrid => Ok(dense_hybrid(lp, opts)),
        SolverBackend::Revised => {
            if !opts.snapshots.is_empty() {
                match revised_warm(lp, opts) {
                    Ok(rep) => return Ok(rep),
                    // A pool miss is a routine cache outcome; fall through
                    // to the cold solve unless the caller owns that
                    // decision.
                    Err(SolveFailure::ShapeDrift) if !opts.warm_only => {}
                    Err(f) => return Err(f),
                }
            } else if opts.warm_only {
                return Err(SolveFailure::ShapeDrift);
            }
            revised_cold(lp, opts)
        }
    }
}
