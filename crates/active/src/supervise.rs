//! Fault-tolerant supervision of LP1 solves: the **degradation ladder**
//! and the typed partial-result error of the sharded solve paths.
//!
//! # The ladder
//!
//! Every revised-backend solve in this crate runs through
//! `supervised_solve`, which retries one component's LP down three rungs
//! until one produces a certified answer. Every rung is one
//! [`abt_lp::solve_lp`] call under a different [`abt_lp::LpOptions`]
//! policy:
//!
//! 1. **Cold revised** (the default `Revised` backend) — the bounded
//!    revised simplex with budgets armed, from the caller's crash start
//!    (`opts.start`) when it offers one. A float-level `Infeasible` claim
//!    drops through silently (confirming it is the exact tier's job);
//!    panics, budget trips, and numerical stalls demote.
//! 2. **Dense hybrid** (`SolverBackend::DenseHybrid`) — dense float
//!    search with exact certification and its own internal exact fallback.
//! 3. **Dense exact** (`SolverBackend::DenseExact`) — every pivot in
//!    rationals; the rung of last resort.
//!
//! Each *failure-driven* transition records a demotion in the process-wide
//! telemetry ([`crate::lp_model::lp_telemetry`]); budget failures also
//! record a budget trip. Because every rung ends in a *sound*
//! certification — the revised rungs through the caller's
//! [`abt_lp::CertifyMode`] tier policy (an interval-tier accept is a
//! proof, and an inconclusive interval sweep escalates or demotes, never
//! accepts), the dense rungs exactly by construction — a solve that
//! succeeds on **any** rung returns the same objective bit for bit:
//! demotion trades speed, never answers. Only when all three rungs fail is
//! the component **quarantined**: the caller receives a typed
//! [`SolveFailure`] and degrades to a [`PartialSolve`] carrying the exact
//! objectives of every healthy component.
//!
//! # Fault injection
//!
//! Under the `fault-injection` cargo feature the ladder participates in
//! the [`abt_core::faultinject`] registry: the `fail_nth_solve` failpoint
//! fires at supervisor entry (modelling an unclassifiable crash of the
//! whole attempt — straight to quarantine), while the deeper
//! `panic_in_pivot` / `panic_in_ftran` / `slow_certify` sites fire inside
//! the revised rungs and exercise the demotion path.

use crate::lp_model::{record_budget_trip, record_demotion, record_solve, record_solve_latency};
use abt_core::faultinject;
use abt_core::{obs, panic_message, Error, SolveFailure};
use abt_lp::{solve_lp, LpOptions, LpProblem, LpReport, Rat, SolverBackend};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Solves `lp` down the degradation ladder (see the module docs),
/// recording demotions and budget trips in the process-wide telemetry.
/// Every rung runs under the pricing, budgets and certify policy of
/// `opts`; `opts.start` feeds the cold revised rung, and the ladder itself
/// picks each rung's backend.
/// Returns `Err` only when every rung failed — the caller quarantines the
/// work item; the error is the root-cause failure (the first one that
/// forced a demotion, or the final rung's panic when nothing demoted).
pub(crate) fn supervised_solve(
    lp: &LpProblem<Rat>,
    opts: &LpOptions,
) -> Result<LpReport, SolveFailure> {
    // `fail_nth_solve` models an unclassifiable crash of the whole
    // supervised attempt: no rung runs, the item goes straight to
    // quarantine.
    if let Err(payload) = catch_unwind(|| faultinject::hit("fail_nth_solve")) {
        return Err(SolveFailure::Panicked(panic_message(payload.as_ref())));
    }
    let mut span = abt_core::obs_span!("solve.component", vars = lp.num_vars());
    let started = std::time::Instant::now();
    let finish = |rep: LpReport, rung: &'static str, span: &mut obs::Span| {
        record_solve(&rep);
        record_solve_latency(started.elapsed());
        span.field("rung", rung);
        rep
    };
    let base = LpOptions::new().pricing(opts.pricing).certify(opts.certify);
    let mut first_failure: Option<SolveFailure> = None;
    let mut demote = |f: SolveFailure, from: &'static str, to: &'static str| {
        record_demotion();
        if matches!(f, SolveFailure::BudgetExceeded(_)) {
            record_budget_trip();
        }
        obs::trace::event("supervise.demotion", || {
            vec![
                ("failure", f.to_string()),
                ("from", from.to_string()),
                ("to", to.to_string()),
            ]
        });
        first_failure.get_or_insert(f);
    };
    // Rung 1 — cold revised with budgets armed, from the crash start.
    let cold = base.start(opts.start);
    match catch_unwind(AssertUnwindSafe(|| solve_lp(lp, &cold))) {
        Ok(Ok(rep)) => return Ok(finish(rep, "cold revised", &mut span)),
        // A float-level infeasibility claim needs exact confirmation — the
        // next rung's job. Not a fault.
        Ok(Err(SolveFailure::Infeasible)) => {}
        Ok(Err(f)) => demote(f, "cold revised", "dense hybrid"),
        Err(p) => demote(
            SolveFailure::Panicked(panic_message(p.as_ref())),
            "cold revised",
            "dense hybrid",
        ),
    }
    // Rung 2 — dense hybrid (its own internal exact fallback included;
    // the backend never returns `Err`).
    let hybrid = base.backend(SolverBackend::DenseHybrid);
    match catch_unwind(AssertUnwindSafe(|| solve_lp(lp, &hybrid))) {
        Ok(Ok(rep)) => return Ok(finish(rep, "dense hybrid", &mut span)),
        Ok(Err(f)) => demote(f, "dense hybrid", "dense exact"),
        Err(p) => demote(
            SolveFailure::Panicked(panic_message(p.as_ref())),
            "dense hybrid",
            "dense exact",
        ),
    }
    // Rung 3 — dense exact, the rung of last resort. Its iteration-cap
    // panic is the one failure mode left, caught like any other.
    let exact = base.backend(SolverBackend::DenseExact);
    match catch_unwind(AssertUnwindSafe(|| solve_lp(lp, &exact))) {
        Ok(Ok(rep)) => Ok(finish(rep, "dense exact", &mut span)),
        Ok(Err(f)) => Err(first_failure.unwrap_or(f)),
        Err(p) => {
            let last = SolveFailure::Panicked(panic_message(p.as_ref()));
            Err(first_failure.unwrap_or(last))
        }
    }
}

/// One component the supervisor gave up on: every ladder rung failed.
#[derive(Debug, Clone)]
pub struct QuarantinedComponent {
    /// Instance job indices of the component's members (ascending) — the
    /// jobs whose removal or mutation re-admits the component.
    pub jobs: Vec<usize>,
    /// The root-cause failure (see the module docs' degradation ladder).
    pub failure: SolveFailure,
}

/// The typed partial result of a sharded solve with quarantined
/// components: everything that *did* solve, exactly.
#[derive(Debug, Clone)]
pub struct PartialSolve {
    /// Exact objectives of the healthy components, as `(component index
    /// in solve order, objective)`.
    pub healthy: Vec<(usize, Rat)>,
    /// Exact sum of the healthy objectives — a certified lower bound on
    /// the full LP1 optimum (quarantined components contribute ≥ 0).
    pub healthy_objective: Rat,
    /// The quarantined components; never empty.
    pub quarantined: Vec<QuarantinedComponent>,
}

/// Why a fallible LP1 solve ([`crate::lp_model::try_solve_active_lp_with`]
/// or [`crate::incremental::IncrementalSolver::try_solve`]) failed.
#[derive(Debug, Clone)]
pub enum SolveError {
    /// An instance-level error — the same errors the legacy entry points
    /// return (LP1 infeasibility, invalid instance).
    Model(Error),
    /// Some components were quarantined; the healthy remainder is carried
    /// so callers keep serving it.
    Partial(PartialSolve),
    /// Admission control bounced the request before any solver work: the
    /// offered job set violates the Hall-condition precheck
    /// ([`crate::admission::admission_precheck`]), and the carried witness
    /// interval proves it infeasible. The solver's state is untouched —
    /// the caller can drop or amend the offending jobs and retry.
    Rejected(crate::admission::AdmissionReject),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(e) => write!(f, "{e}"),
            SolveError::Partial(p) => write!(
                f,
                "{} of {} components quarantined (first: {}); healthy objective {}",
                p.quarantined.len(),
                p.quarantined.len() + p.healthy.len(),
                p.quarantined[0].failure,
                p.healthy_objective,
            ),
            SolveError::Rejected(rej) => write!(f, "admission rejected: {rej}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SolveError> for Error {
    fn from(e: SolveError) -> Error {
        match e {
            SolveError::Model(err) => err,
            // An admission rejection carries a proof of infeasibility, so
            // the legacy surface reports it as the Infeasible it is.
            SolveError::Rejected(rej) => Error::Infeasible(rej.to_string()),
            partial => Error::Quarantined(partial.to_string()),
        }
    }
}
