//! # abt-active
//!
//! Algorithms for the **active time** problem (§2–3 of Chang–Khuller–
//! Mukherjee, SPAA 2014): schedule jobs preemptively (at integer points) on
//! one machine with at most `g` job-units per active slot, minimizing the
//! number of active slots.
//!
//! * [`feasibility`] — the max-flow oracle `G_feas` (Fig. 2), on the
//!   implicit network, and its growing [`FeasibilitySession`].
//! * [`minimal`] — minimal feasible solutions: a 3-approximation for *any*
//!   closing order (Theorem 1; tight by the Fig. 3 gadget).
//! * [`rounding`] — the LP-rounding 2-approximation (Theorem 2), on top of
//!   [`lp_model`] (the `LP1` relaxation, solved with exact rationals,
//!   sharded along interval-graph components under
//!   [`DecomposeMode::Auto`]) and [`right_shift`](mod@right_shift) (§3.1
//!   preprocessing).
//! * [`incremental`] — the incremental re-solve driver for mutating
//!   instances / online arrival streams ([`IncrementalSolver`]).
//! * [`exact`] — branch-and-bound optimum for ratio measurements.
//! * [`unit`](mod@unit) — the exact rightmost-greedy for unit jobs
//!   (Chang–Gabow–Khuller special case).
//!
//! See the repo-root `ARCHITECTURE.md` for how this crate sits between the
//! `abt-lp` solver substrate and the `abt-bench` experiment harness.
//!
//! # Example
//!
//! Decompose-and-solve an active-time instance: two job clusters far
//! apart make the job-window interval graph disconnected, so the default
//! options ([`DecomposeMode::Auto`]) split LP1 into independent
//! per-component sub-LPs and stitch the exact results — bit-identical to
//! the monolithic solve:
//!
//! ```
//! use abt_active::{solve_active_lp_with, DecomposeMode, LpOptions};
//! use abt_core::Instance;
//!
//! let inst = Instance::from_triples(
//!     [(0, 4, 2), (1, 3, 2), (100, 104, 3)], // two clusters, 96 idle slots
//!     2,
//! )
//! .unwrap();
//! let auto = solve_active_lp_with(&inst, &LpOptions::default()).unwrap();
//! let mono = solve_active_lp_with(
//!     &inst,
//!     &LpOptions {
//!         decompose: DecomposeMode::Off,
//!         ..LpOptions::default()
//!     },
//! )
//! .unwrap();
//! assert_eq!(auto.objective, mono.objective); // exact stitching
//! // 2 fractional slots for the first cluster + 3 for the second.
//! assert_eq!(auto.objective, abt_lp::Rat::from_int(5));
//! // The answer is the open runs; the idle slots between the clusters
//! // stay closed.
//! assert!(auto.runs.iter().all(|run| run.end <= 4 || run.start >= 100));
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod exact;
pub mod feasibility;
pub mod incremental;
pub mod lp_model;
pub mod minimal;
pub mod right_shift;
pub mod rounding;
pub mod store;
pub mod supervise;
pub mod unit;

pub use admission::{admission_precheck, AdmissionReject};
pub use exact::{exact_active_time, ExactActive};
pub use feasibility::{feasible_on, schedule_on, FeasibilitySession};
pub use incremental::{IncrementalJobId, IncrementalReport, IncrementalSolver};
pub use lp_model::{
    fractional_feasible, lp_telemetry, pivots_per_solve_snapshot, solve_active_lp,
    solve_active_lp_with, try_solve_active_lp_with, vars_per_solve_snapshot, ActiveLp,
    DecomposeMode, LpOptions, LpTelemetry, OpenRun, VubMode,
};
pub use minimal::{
    is_minimal, minimal_feasible, minimal_feasible_from, ClosingOrder, MinimalResult,
};
pub use right_shift::{right_shift, RightShifted, Segment};
pub use rounding::{lp_rounding, lp_rounding_from, ChargeKind, RoundingOutcome};
pub use store::{
    inspect_store, CheckpointSummary, RecoveryReport, SolveStateStore, StoreInspection,
    CHECKPOINT_EVERY, MAX_RECOVERY_ATTEMPTS,
};
pub use supervise::{PartialSolve, QuarantinedComponent, SolveError};
pub use unit::{exact_unit_active_time, UnitExact};
