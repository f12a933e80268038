//! Fault-tolerant supervision of LP1 solves: the **degradation ladder**
//! and the typed partial-result error of the sharded solve paths.
//!
//! # The ladder
//!
//! Every LP solve in this crate runs through `supervised_solve`, which
//! retries one component's LP down three rungs until one produces an
//! answer. Every rung is one [`abt_lp::solve_lp`] call under a different
//! [`abt_lp::SolverBackend`], and every backend has the same contract: an
//! exactly certified answer, or a typed [`SolveFailure`]. Only the ladder
//! decides what runs next:
//!
//! 1. **Cold revised** (`SolverBackend::Revised`) — the bounded revised
//!    simplex with budgets armed, from the caller's crash start when it
//!    offers one.
//! 2. **Dense hybrid** (`SolverBackend::DenseHybrid`) — dense float
//!    search over the row-materialized LP, certified like the revised
//!    rung.
//! 3. **Dense exact** (`SolverBackend::DenseExact`) — every pivot in
//!    rationals; the rung of last resort, and the only one whose answer
//!    counts as a fallback ([`abt_lp::LpReport::fallback`]).
//!
//! A float-level `Infeasible` claim drops to the next rung silently
//! (confirming it is the exact tier's job); panics, budget trips,
//! numerical stalls and refuted bases demote. Each *failure-driven*
//! transition records a demotion in the process-wide telemetry
//! ([`crate::lp_model::lp_telemetry`]); budget failures also record a
//! budget trip. Because every rung ends in an *exact* certification — the
//! float rungs through the one exact certifier of `abt-lp`, the dense
//! exact rung by construction — a solve that succeeds on **any** rung
//! returns the same objective bit for bit: demotion trades speed, never
//! answers. Only when all three rungs fail is the component
//! **quarantined**: the caller receives a typed [`SolveFailure`] and
//! degrades to a [`PartialSolve`] carrying the exact objectives of every
//! healthy component.
//!
//! # Fault injection
//!
//! Under the `fault-injection` cargo feature the ladder participates in
//! the [`abt_core::faultinject`] registry: the `fail_nth_solve` failpoint
//! fires at supervisor entry (modelling an unclassifiable crash of the
//! whole attempt — straight to quarantine), while the deeper
//! `panic_in_pivot` / `panic_in_ftran` / `slow_certify` sites fire inside
//! the float rungs and exercise the demotion path.

use crate::lp_model::{record_budget_trip, record_demotion, record_solve, record_solve_latency};
use abt_core::faultinject;
use abt_core::{obs, panic_message, Error, SolveFailure};
use abt_lp::{
    solve_lp, BoundedOptions, LpOptions, LpProblem, LpReport, Rat, SolverBackend, StartBasis,
};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The ladder's rungs, in the order they run, with the names that
/// demotion events and `solve.component` spans carry.
const RUNGS: [(SolverBackend, &str); 3] = [
    (SolverBackend::Revised, "cold revised"),
    (SolverBackend::DenseHybrid, "dense hybrid"),
    (SolverBackend::DenseExact, "dense exact"),
];

/// Solves `lp` down the degradation ladder (see the module docs),
/// recording demotions and budget trips in the process-wide telemetry.
/// Every rung runs under `pricing`'s window and budgets; `start` feeds
/// the cold revised rung.
/// Returns `Err` only when every rung failed — the caller quarantines the
/// work item; the error is the root-cause failure (the first one that
/// forced a demotion, or the final rung's failure when nothing demoted).
pub(crate) fn supervised_solve(
    lp: &LpProblem<Rat>,
    pricing: &BoundedOptions,
    start: Option<&StartBasis>,
) -> Result<LpReport, SolveFailure> {
    // `fail_nth_solve` models an unclassifiable crash of the whole
    // supervised attempt: no rung runs, the item goes straight to
    // quarantine.
    if let Err(payload) = catch_unwind(|| faultinject::hit("fail_nth_solve")) {
        return Err(SolveFailure::Panicked(panic_message(payload.as_ref())));
    }
    let mut span = abt_core::obs_span!("solve.component", vars = lp.num_vars());
    let started = std::time::Instant::now();
    let mut root: Option<SolveFailure> = None;
    // The previous rung's failure and name.
    let mut failed: Option<(SolveFailure, &str)> = None;
    for (backend, rung) in RUNGS {
        if let Some((f, from)) = failed.take() {
            // A float-level infeasibility claim needs exact confirmation —
            // this rung's job. Not a fault.
            if f != SolveFailure::Infeasible {
                record_demotion();
                if matches!(f, SolveFailure::BudgetExceeded(_)) {
                    record_budget_trip();
                }
                obs::trace::event("supervise.demotion", || {
                    vec![
                        ("failure", f.to_string()),
                        ("from", from.to_string()),
                        ("to", rung.to_string()),
                    ]
                });
                root.get_or_insert(f);
            }
        }
        let opts = LpOptions {
            backend,
            pricing: *pricing,
            start,
        };
        match catch_unwind(AssertUnwindSafe(|| solve_lp(lp, &opts))) {
            Ok(Ok(rep)) => {
                record_solve(&rep, lp.num_vars());
                record_solve_latency(started.elapsed());
                span.field("rung", rung);
                return Ok(rep);
            }
            Ok(Err(f)) => failed = Some((f, rung)),
            Err(p) => failed = Some((SolveFailure::Panicked(panic_message(p.as_ref())), rung)),
        }
    }
    let (last, _) = failed.expect("the last rung failed");
    Err(root.unwrap_or(last))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp_model::{build_component_lp, components, slot_runs, ComponentLp, DecomposeMode};
    use abt_core::obs::TraceEntry;
    use abt_core::Instance;
    use abt_lp::{Cmp, LpStatus};
    use std::sync::{Mutex, PoisonError};

    /// Serializes these tests: each arms the process-wide flight recorder
    /// for the length of its solve.
    static RECORDER: Mutex<()> = Mutex::new(());

    /// One supervised solve, as this thread's flight-recorder entries
    /// tell it.
    struct Supervised {
        /// The answer.
        rep: LpReport,
        /// The rung that answered.
        rung: Option<String>,
        /// The `(from, to)` rungs of each demotion, in order.
        demotions: Vec<(String, String)>,
    }

    /// Solves `lp` down the ladder; every LP here has an answer.
    fn supervise(
        lp: &LpProblem<Rat>,
        pricing: &BoundedOptions,
        start: Option<&StartBasis>,
    ) -> Supervised {
        let _guard = RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
        obs::set_tracing(true);
        let seen = obs::recorder::entries().last().map_or(0, |e| e.seq);
        let res = supervised_solve(lp, pricing, start);
        obs::set_tracing(false);
        let thread = obs::trace::thread_ordinal();
        let entries: Vec<TraceEntry> = obs::recorder::entries()
            .into_iter()
            .filter(|e| e.seq > seen && e.thread == thread)
            .collect();
        let field = |e: &TraceEntry, k: &str| {
            let value = e.fields.iter().find(|(key, _)| *key == k);
            value.map(|(_, v)| v.clone())
        };
        let rung = entries
            .iter()
            .find(|e| e.name == "solve.component")
            .and_then(|e| field(e, "rung"));
        let demotions = entries
            .iter()
            .filter(|e| e.name == "supervise.demotion")
            .map(|e| (field(e, "from").unwrap(), field(e, "to").unwrap()))
            .collect();
        Supervised {
            rep: res.expect("some rung answers"),
            rung,
            demotions,
        }
    }

    /// The one LP1 block of a connected three-job instance, with its crash
    /// start.
    fn lp1_block() -> ComponentLp {
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 6, 3)], 2).unwrap();
        let runs = slot_runs(&inst);
        let comps = components(&inst, &runs, DecomposeMode::Off);
        build_component_lp(&inst, &Default::default(), &runs, &comps[0])
    }

    fn pair(from: &str, to: &str) -> (String, String) {
        (from.to_string(), to.to_string())
    }

    #[test]
    fn a_clean_block_answers_on_the_cold_revised_rung() {
        let clp = lp1_block();
        let Supervised {
            rep,
            rung,
            demotions,
        } = supervise(&clp.lp, &BoundedOptions::default(), clp.start.as_ref());
        assert!(!rep.fallback);
        assert_eq!(rep.solution.objective, abt_lp::solve(&clp.lp).objective);
        assert_eq!(rung.as_deref(), Some("cold revised"));
        assert_eq!(demotions, []);
    }

    #[test]
    fn a_budget_trip_answers_on_the_dense_hybrid_rung() {
        let clp = lp1_block();
        let starved = BoundedOptions {
            pivot_budget: 1,
            ..BoundedOptions::default()
        };
        let Supervised {
            rep,
            rung,
            demotions,
        } = supervise(&clp.lp, &starved, clp.start.as_ref());
        assert!(!rep.fallback, "a certified hybrid answer is no fallback");
        assert_eq!(rep.solution.objective, abt_lp::solve(&clp.lp).objective);
        assert_eq!(rung.as_deref(), Some("dense hybrid"));
        assert_eq!(demotions, [pair("cold revised", "dense hybrid")]);
    }

    #[test]
    fn a_sub_epsilon_cost_gap_answers_on_the_dense_exact_rung() {
        // min (1 + 2⁻⁶⁰)·x₀ + x₁  s.t.  x₀ + x₁ ≥ 1: both float rungs stop
        // on the basis {x₀}, which the certifier refutes.
        let eps = Rat::new(1, 1i128 << 60);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x0 = lp.add_var(Rat::ONE.add(&eps));
        let x1 = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x0, Rat::ONE), (x1, Rat::ONE)], Cmp::Ge, Rat::ONE);
        let Supervised {
            rep,
            rung,
            demotions,
        } = supervise(&lp, &BoundedOptions::default(), None);
        assert!(rep.fallback);
        assert_eq!(rep.solution.objective, Rat::ONE);
        assert_eq!(rung.as_deref(), Some("dense exact"));
        assert_eq!(
            demotions,
            [
                pair("cold revised", "dense hybrid"),
                pair("dense hybrid", "dense exact")
            ]
        );
    }

    #[test]
    fn an_infeasible_lp_answers_on_the_dense_exact_rung_without_demoting() {
        // x ≥ 3 with x ≤ 1: both float rungs claim infeasibility, which
        // only the dense exact rung may confirm.
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        lp.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, Rat::from_int(3));
        lp.set_upper(x, Rat::ONE);
        let Supervised {
            rep,
            rung,
            demotions,
        } = supervise(&lp, &BoundedOptions::default(), None);
        assert!(rep.fallback);
        assert_eq!(rep.solution.status, LpStatus::Infeasible);
        assert_eq!(rung.as_deref(), Some("dense exact"));
        assert_eq!(demotions, []);
    }
}
