//! Fault-injection tests for the solver crate: injected panics in the
//! pivot loop and FTRAN must never leak or double-checkout `SolveArena`
//! buffers, and solves that *survive* injection must stay bit-identical
//! to fault-free runs.
//!
//! Compiled only with `--features fault-injection`; every test holds the
//! process-global [`faultinject::exclusive`] guard.

#![cfg(feature = "fault-injection")]

use abt_core::faultinject::{self, FaultSpec};
use abt_lp::{solve, solve_lp, with_arena, Cmp, LpOptions, LpProblem, Rat};
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

/// Satellite: a panicking component solve mid-pivot must not leak or
/// double-checkout arena buffers — the thread-local pool's high-water mark
/// stays bounded and no fresh allocations appear across 1000 injected
/// failures, because `Rev`'s `Drop` recycles every checked-out buffer on
/// the unwind path exactly as on the ordinary return path.
#[test]
fn injected_pivot_panics_never_leak_arena_buffers() {
    let _guard = faultinject::exclusive();
    // Fill the pool with clean solves so later checkouts can all be
    // served by recycled buffers.
    for k in 0..4 {
        solve_lp(&instance(k), &LpOptions::new()).expect("clean solve");
    }
    let before = with_arena(|a| a.stats());
    faultinject::configure("panic_in_pivot", FaultSpec::panic_every(1));
    for k in 0..1000 {
        let lp = instance(k % 7);
        let caught = catch_unwind(AssertUnwindSafe(|| solve_lp(&lp, &LpOptions::new())));
        assert!(caught.is_err(), "every:1 must panic every solve");
    }
    faultinject::reset();
    let after = with_arena(|a| a.stats());
    assert!(
        after.pooled_f64 <= abt_lp::arena::MAX_POOLED
            && after.pooled_pairs <= abt_lp::arena::MAX_POOLED,
        "pool high-water must stay bounded under injected panics"
    );
    let fresh_before = before.checkouts - before.reuses;
    let fresh_after = after.checkouts - after.reuses;
    assert_eq!(
        fresh_before,
        fresh_after,
        "unwinding solves must recycle every buffer (fresh allocations grew by {})",
        fresh_after - fresh_before
    );
    // The pool still serves clean solves with the right answers.
    let lp = instance(1);
    let rep = solve_lp(&lp, &LpOptions::new()).expect("post-fault solve");
    assert_eq!(rep.solution.objective, solve(&lp).objective);
}

/// FTRAN panics unwind from deeper inside an iteration (a column solve is
/// in flight); the arena discipline must hold there too, and intermittent
/// triggers must leave the surviving solves bit-identical to fault-free
/// runs.
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
    let after = with_arena(|a| a.stats());
    assert!(
        after.pooled_f64 <= abt_lp::arena::MAX_POOLED
            && after.pooled_pairs <= abt_lp::arena::MAX_POOLED
    );
}

/// The `slow_certify` failpoint plus a wall-time budget, under the
/// default interval-then-exact certification: the deadline checks inside
/// the *interval tier* (every 512 columns and before each per-column
/// rescue) convert the injected delay into a typed `BudgetExceeded(Time)`
/// — the budget machinery is live inside the new tier, not just at the
/// certifier's entry.
#[test]
fn slow_certify_trips_budget_inside_interval_tier() {
    use abt_lp::{solve_lp, BoundedOptions, BudgetKind, CertifyMode, LpOptions, SolveFailure};
    let _guard = faultinject::exclusive();
    let lp = instance(0);
    for mode in [CertifyMode::Interval, CertifyMode::IntervalThenExact] {
        // The nth trigger is per-configure: re-arm for each mode.
        faultinject::configure("slow_certify", FaultSpec::delay_nth(1, 30));
        let opts = LpOptions::new()
            .pricing(BoundedOptions {
                time_budget: Some(std::time::Duration::from_millis(5)),
                ..BoundedOptions::default()
            })
            .certify(mode);
        match solve_lp(&lp, &opts) {
            Err(SolveFailure::BudgetExceeded(BudgetKind::Time)) => {}
            Ok(rep) => {
                // Timer granularity may let the solve through; then it
                // must be exactly right.
                assert_eq!(rep.solution.objective, solve(&lp).objective);
            }
            other => panic!("expected a Time budget trip or a clean solve, got {other:?}"),
        }
    }
    faultinject::reset();
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
