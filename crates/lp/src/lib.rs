//! # abt-lp
//!
//! A self-contained linear-programming substrate: a dense two-phase primal
//! simplex solver over a flat row-major tableau, generic over an exact
//! `i128` rational scalar (so the §3 rounding's case analysis is
//! noise-free) or `f64`; a float-first **hybrid** solve that runs the
//! search in `f64` and re-verifies the terminal basis exactly; and the
//! bounded-variable **revised** hybrid — implicit `[0, u]` variable
//! bounds *and* Schrage-style variable upper bounds `x ≤ y`
//! ([`LpProblem::set_vub`]) handled by the pivoting rules ([`bounds`]),
//! partial pricing, exact verification of the float pass's own basic
//! values and duals (rounded to rationals and proven by integer residuals
//! and a rank check modulo a prime, with a sparse rational LU of the
//! key-column-augmented basis matrix, [`lu`], as the fallback), and a
//! pivot loop that allocates its work vectors once per solve and keeps
//! its eta file in one slab — the default path for the active-time LPs.
//! The [`start`] module adds **crash starts**:
//! a [`StartBasis`] a caller builds for a cold solve
//! ([`LpOptions::start`]), so phase 1 runs only on what it leaves
//! infeasible.
//! [`solve_lp`] is the one entry point to all three engines
//! ([`SolverBackend`]).
//!
//! The allowed offline dependency set contains no LP solver (the paper's
//! reproduction band notes the thin LP ecosystem), so this crate implements
//! simplex from scratch; see the repo-root `ARCHITECTURE.md` for the
//! three solver generations.
//!
//! # Example
//!
//! Build a small LP with an implicit constant bound and a VUB family, and
//! solve it through the unified entry point ([`solve_lp`]) — the search
//! runs in `f64`, and the answer is certified (and returned) in exact
//! rationals: the float pass's own values are proven exact, and one sweep
//! checks every reduced-cost sign in integers over the duals' common
//! denominator, in [`Rat`] only where the data are fractional or too large
//! ([`simplex`]):
//!
//! ```
//! use abt_lp::{solve_lp, Cmp, LpOptions, LpProblem, LpStatus, Rat};
//!
//! // min −x − z  s.t.  x + y + z ≥ 1,  y ≤ 4 (implicit bound),
//! //                   x ≤ y (VUB family: key y, dependent x), z ≤ 2.
//! let mut lp: LpProblem<Rat> = LpProblem::new();
//! let x = lp.add_var(Rat::from_int(-1));
//! let y = lp.add_var(Rat::ZERO);
//! let z = lp.add_var(Rat::from_int(-1));
//! lp.add_constraint(
//!     vec![(x, Rat::ONE), (y, Rat::ONE), (z, Rat::ONE)],
//!     Cmp::Ge,
//!     Rat::ONE,
//! );
//! lp.set_upper(y, Rat::from_int(4)); // never becomes a row
//! lp.set_upper(z, Rat::from_int(2));
//! lp.set_vub(x, y); // x rides glued to its key inside the pivoting rules
//!
//! let rep = solve_lp(&lp, &LpOptions::new()).expect("clean solve");
//! assert_eq!(rep.solution.status, LpStatus::Optimal);
//! // Optimum: x = y = 4 (x glued to its key at the key's bound), z = 2.
//! assert_eq!(rep.solution.objective, Rat::from_int(-6));
//! assert!(lp.is_feasible(&rep.solution.x));
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod bounds;
pub mod lu;
pub mod model;
pub mod rational;
mod reconstruct;
pub mod scalar;
pub mod simplex;
pub mod start;

pub use abt_core::error::{BudgetKind, SolveFailure};
pub use api::{solve_lp, LpOptions, LpReport, SolverBackend};
pub use bounds::{
    solve_bounded_f64_with, BoundedBasis, BoundedOptions, BoundedStatus, StandardForm, VarState,
    DEFAULT_PRICING_WINDOW, TIME_CHECK_EVERY,
};
pub use lu::SparseLu;
pub use model::{Cmp, Constraint, LpProblem, VarId};
pub use rational::Rat;
pub use scalar::{Scalar, F64_EPS};
pub use simplex::{solve, LpSolution, LpStatus, SolveStats};
pub use start::{BasisSnapshot, RowStart, StartBasis};
