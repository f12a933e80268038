//! Error types shared across the `active-busy-time` workspace.

use std::fmt;

/// Errors produced while constructing or validating instances and schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A job's parameters are internally inconsistent (e.g. `r + p > d`, or
    /// a non-positive length).
    InvalidJob {
        /// Index of the offending job in the instance.
        job: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The instance as a whole is malformed (e.g. `g = 0`).
    InvalidInstance(String),
    /// A schedule failed validation against its instance.
    InvalidSchedule(String),
    /// An instance file could not be parsed.
    Parse {
        /// 1-based line number where parsing failed.
        line: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// The requested computation does not apply to this instance
    /// (e.g. an interval-job algorithm invoked on flexible jobs).
    Unsupported(String),
    /// No feasible solution exists (active-time model only; the busy-time
    /// model is always feasible).
    Infeasible(String),
    /// The instance's horizon is longer than the per-slot code paths
    /// accept (see `active_schedule::MAX_HORIZON_SLOTS`).
    HorizonTooLong {
        /// Slots in the horizon, `T − r_min`.
        slots: i128,
        /// The most slots accepted.
        limit: i64,
    },
    /// A supervised solve quarantined part of the work after every rung of
    /// its degradation ladder failed. The message summarizes which parts
    /// were lost; callers needing the healthy partial result use the typed
    /// error of the fallible entry points in `abt-active` instead.
    Quarantined(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidJob { job, reason } => write!(f, "invalid job #{job}: {reason}"),
            Error::InvalidInstance(r) => write!(f, "invalid instance: {r}"),
            Error::InvalidSchedule(r) => write!(f, "invalid schedule: {r}"),
            Error::Parse { line, reason } => write!(f, "parse error on line {line}: {reason}"),
            Error::Unsupported(r) => write!(f, "unsupported: {r}"),
            Error::Infeasible(r) => write!(f, "infeasible: {r}"),
            Error::HorizonTooLong { slots, limit } => write!(
                f,
                "horizon of {slots} slots exceeds the per-slot limit of {limit} slots"
            ),
            Error::Quarantined(r) => write!(f, "quarantined: {r}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Which solve budget was exhausted (see [`SolveFailure::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The basis-changing pivot budget.
    Pivots,
    /// The wall-clock budget.
    Time,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Pivots => write!(f, "pivot"),
            BudgetKind::Time => write!(f, "wall-time"),
        }
    }
}

/// Why one supervised solve attempt failed.
///
/// This is the error half of [`crate::parallel::supervised_map`] and of the
/// budgeted solve entry points in `abt-lp`: a failure is scoped to a single
/// work item (one component LP, one ladder rung), never to the whole
/// process, so supervisors can retry the item down a degradation ladder or
/// quarantine it while every other item keeps its result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveFailure {
    /// The solve panicked; the payload message is preserved for diagnostics.
    Panicked(String),
    /// The solve exhausted one of its budgets (see [`BudgetKind`]) before
    /// reaching a verdict.
    BudgetExceeded(BudgetKind),
    /// The float pass stalled (iteration cap, singular refactorization) or
    /// its terminal basis failed exact certification — the attempt is
    /// inconclusive, not a verdict.
    NumericalStall,
    /// The float pass believes the problem is infeasible. Float-level
    /// infeasibility is *not* a verdict: supervisors demote to an exact
    /// tier, whose infeasibility becomes the real [`Error::Infeasible`].
    Infeasible,
    /// Persisted solver state failed validation on load (bad checksum,
    /// version or shape drift, or a malformed payload — see
    /// `abt_core::persist`). Never a correctness risk: the reject-don't-
    /// trust invariant discards the state and rebuilds cold, so this
    /// failure only ever costs cached work, exactly like a demotion.
    StateCorrupt(String),
}

impl fmt::Display for SolveFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveFailure::Panicked(msg) => write!(f, "solve panicked: {msg}"),
            SolveFailure::BudgetExceeded(k) => write!(f, "solve exceeded its {k} budget"),
            SolveFailure::NumericalStall => write!(f, "solve stalled numerically"),
            SolveFailure::Infeasible => write!(f, "float pass reports infeasible (unverified)"),
            SolveFailure::StateCorrupt(r) => write!(f, "persisted state rejected: {r}"),
        }
    }
}

impl std::error::Error for SolveFailure {}
