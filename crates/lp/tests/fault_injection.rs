//! Fault-injection tests for the solver crate: injected panics in the
//! pivot loop and FTRAN must leave the thread solving exactly, and solves
//! that *survive* injection must stay bit-identical to fault-free runs.
//!
//! Compiled only with `--features fault-injection`; every test holds the
//! process-global [`faultinject::exclusive`] guard.

#![cfg(feature = "fault-injection")]

use abt_core::faultinject::{self, FaultSpec};
use abt_lp::{solve, solve_lp, Cmp, LpOptions, LpProblem, Rat};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn r(p: i64, q: i64) -> Rat {
    Rat::new(p as i128, q as i128)
}

/// A small LP1-shaped instance (VUB family + capacity + demand rows) with
/// data varied by `k`, so consecutive solves are siblings, not clones.
fn instance(k: i64) -> LpProblem<Rat> {
    let g = r(2, 1);
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let y = lp.add_var(Rat::ONE);
    lp.set_upper(y, r(3 + k % 3, 1));
    let x0 = lp.add_var(Rat::ZERO);
    let x1 = lp.add_var(Rat::ZERO);
    lp.set_vub(x0, y);
    lp.set_vub(x1, y);
    lp.add_constraint(
        vec![(x0, Rat::ONE), (x1, Rat::ONE), (y, g.neg())],
        Cmp::Le,
        Rat::ZERO,
    );
    lp.add_constraint(vec![(x0, Rat::ONE)], Cmp::Ge, r(1 + k % 2, 1));
    lp.add_constraint(vec![(x1, Rat::ONE)], Cmp::Ge, r(2, 1));
    lp
}

/// A solve that panics mid-pivot or mid-FTRAN takes nothing with it: each
/// solve owns its work vectors and eta file, which the unwind drops. After
/// 1000 injected pivot panics and 1000 FTRAN panics, clean solves on the
/// same thread return the dense exact optimum.
#[test]
fn injected_panics_leave_the_thread_solving_exactly() {
    let _guard = faultinject::exclusive();
    for point in ["panic_in_pivot", "panic_in_ftran"] {
        faultinject::configure(point, FaultSpec::panic_every(1));
        for k in 0..1000 {
            let lp = instance(k % 7);
            let caught = catch_unwind(AssertUnwindSafe(|| solve_lp(&lp, &LpOptions::new())));
            assert!(caught.is_err(), "{point} every:1 must panic every solve");
        }
        faultinject::reset();
    }
    for k in 0..7 {
        let lp = instance(k);
        let rep = solve_lp(&lp, &LpOptions::new()).expect("post-fault solve");
        assert_eq!(rep.solution.objective, solve(&lp).objective, "instance {k}");
    }
}

/// FTRAN panics unwind from deeper inside an iteration (a column solve is
/// in flight); intermittent triggers must leave the surviving solves
/// bit-identical to fault-free runs.
#[test]
fn intermittent_ftran_panics_leave_survivors_bit_identical() {
    let _guard = faultinject::exclusive();
    let baselines: Vec<Rat> = (0..6)
        .map(|k| {
            solve_lp(&instance(k), &LpOptions::new())
                .expect("fault-free solve")
                .solution
                .objective
        })
        .collect();
    // Every 19th FTRAN panics. The counter runs across solves and a small
    // instance makes a handful of FTRANs, so the fault lands in a
    // different solve (or between solves) each round: some die, most
    // survive.
    faultinject::configure("panic_in_ftran", FaultSpec::panic_every(19));
    let mut survived = 0usize;
    for round in 0..50 {
        for k in 0..6 {
            let lp = instance(k);
            let caught = catch_unwind(AssertUnwindSafe(|| solve_lp(&lp, &LpOptions::new())));
            if let Ok(Ok(rep)) = caught {
                assert_eq!(
                    rep.solution.objective, baselines[k as usize],
                    "survivor (round {round}, k {k}) must be bit-identical"
                );
                survived += 1;
            }
        }
    }
    faultinject::reset();
    assert!(
        survived > 0,
        "an every:19 trigger must let some solves finish"
    );
}

/// The `slow_certify` failpoint plus a wall-time budget: the certifier's
/// deadline check at entry converts the injected delay into a typed
/// `BudgetExceeded(Time)` instead of a wrong verdict.
#[test]
fn slow_certify_with_time_budget_trips_typed() {
    use abt_lp::{BoundedOptions, BudgetKind, SolveFailure};
    let _guard = faultinject::exclusive();
    faultinject::configure("slow_certify", FaultSpec::delay_nth(1, 30));
    let opts = LpOptions::new().pricing(BoundedOptions {
        time_budget: Some(std::time::Duration::from_millis(5)),
        ..BoundedOptions::default()
    });
    let lp = instance(0);
    let out = solve_lp(&lp, &opts);
    faultinject::reset();
    // Either the float pass itself tripped the time budget first, or the
    // delayed certifier did; both are typed Time trips, never a wrong
    // answer.
    match out {
        Err(SolveFailure::BudgetExceeded(BudgetKind::Time)) => {}
        Ok(rep) => {
            // Timer granularity may let the solve through; then it must be
            // exactly right.
            assert_eq!(rep.solution.objective, solve(&lp).objective);
        }
        other => panic!("expected a Time budget trip or a clean solve, got {other:?}"),
    }
}
