//! Theorem-level proptests for the busy-time LP relaxation.
//!
//! Two claims from the paper's LP-rounding analysis, checked in exact
//! rational arithmetic on every generated instance:
//!
//! 1. the LP objective is a valid lower bound on the exact busy-time
//!    optimum (it relaxes the bundling into fractional machine counts);
//! 2. the rounded schedule costs at most 4× the LP value — ⌈z⌉ ≤ 2z on
//!    z ≥ 1 composed with the 2× level/band packing bound.
//!
//! On larger instances where exact search is out of reach, every
//! heuristic's cost still upper-bounds the LP objective.
//!
//! `lp_rounding_run` computes the LP optimum in closed form. Two oracles
//! pin that shortcut: the LP built row by row and solved by every
//! `abt_lp::solve_lp` backend has the same objective and the optimum
//! `z_i = max(D_i/g, 1)`, and the rounded schedule is Kumar–Rudra's,
//! bundle for bundle.

use abt_busy::{exact_busy_time, lp_rounding_run, IntervalAlgo};
use abt_core::{within_factor, DemandProfile, Instance, Interval, Job};
use abt_lp::{solve_lp, Cmp, LpOptions, LpProblem, LpStatus, Rat, SolverBackend};
use proptest::prelude::*;

fn interval_jobs(max_n: usize) -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec((0i64..16, 1i64..6), 1..max_n)
}

fn build(jobs: &[(i64, i64)], g: usize) -> Instance {
    let jobs = jobs.iter().map(|&(r, p)| Job::interval(r, r + p)).collect();
    Instance::new(jobs, g).expect("generated jobs are valid")
}

/// The busy-time LP of an interval instance, written out for the simplex:
/// one variable `z_i` per positive-demand profile segment with cost
/// `len_i`, rows `g·z_i ≥ D_i` and `z_i ≥ 1`, and the implicit bound
/// `z_i ≤ ⌈D_i/g⌉`. Returns the LP and each variable's raw demand `D_i`.
fn build_busy_lp(inst: &Instance) -> (LpProblem<Rat>, Vec<usize>) {
    let g = inst.g() as i64;
    let windows: Vec<Interval> = inst.jobs().iter().map(|j| j.window()).collect();
    let mut lp = LpProblem::new();
    let mut demands = Vec::new();
    for &(iv, d) in DemandProfile::new(&windows).segments() {
        if d == 0 {
            continue;
        }
        let z = lp.add_var(Rat::from_int(iv.len()));
        lp.add_constraint(
            vec![(z, Rat::from_int(g))],
            Cmp::Ge,
            Rat::from_int(d as i64),
        );
        lp.add_constraint(vec![(z, Rat::ONE)], Cmp::Ge, Rat::ONE);
        lp.set_upper(z, Rat::from_int((d as i64 + g - 1) / g));
        demands.push(d);
    }
    (lp, demands)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lp_objective_lower_bounds_exact(jobs in interval_jobs(8), g in 1usize..5) {
        let inst = build(&jobs, g);
        let run = lp_rounding_run(&inst).unwrap();
        let exact = exact_busy_time(&inst, Some(20_000_000)).unwrap();
        prop_assert!(
            run.lp_objective <= Rat::from_int(exact.cost),
            "LP objective {:?} exceeds exact optimum {}",
            run.lp_objective,
            exact.cost
        );
        prop_assert!(run.cost >= exact.cost);
    }

    #[test]
    fn rounding_stays_within_four_times_lp(jobs in interval_jobs(12), g in 1usize..6) {
        let inst = build(&jobs, g);
        let run = lp_rounding_run(&inst).unwrap();
        prop_assert!(
            run.within_four_lp(),
            "rounded cost {} exceeds 4× LP objective {:?}",
            run.cost,
            run.lp_objective
        );
        // The sharper intermediate bound the 4× factors through.
        prop_assert!(within_factor(run.cost, 2, run.profile_bound));
    }

    #[test]
    fn lp_objective_lower_bounds_every_heuristic(
        jobs in proptest::collection::vec((0i64..48, 1i64..10), 20..36),
        g in 1usize..5,
    ) {
        let inst = build(&jobs, g);
        let run = lp_rounding_run(&inst).unwrap();
        for algo in IntervalAlgo::all() {
            let cost = algo.run(&inst).unwrap().total_busy_time(&inst);
            prop_assert!(
                run.lp_objective <= Rat::from_int(cost),
                "LP objective {:?} exceeds {}'s cost {cost}",
                run.lp_objective,
                algo.name()
            );
        }
    }

    #[test]
    fn closed_form_matches_every_lp_backend(jobs in interval_jobs(16), g in 1usize..6) {
        let inst = build(&jobs, g);
        let run = lp_rounding_run(&inst).unwrap();
        let (lp, demands) = build_busy_lp(&inst);
        for backend in [
            SolverBackend::Revised,
            SolverBackend::DenseHybrid,
            SolverBackend::DenseExact,
        ] {
            let rep = match solve_lp(&lp, &LpOptions::new().backend(backend)) {
                Ok(rep) => rep,
                Err(f) => return Err(TestCaseError::fail(format!("{backend:?} failed: {f}"))),
            };
            prop_assert_eq!(rep.solution.status.clone(), LpStatus::Optimal);
            prop_assert_eq!(rep.solution.objective, run.lp_objective, "{:?}", backend);
            prop_assert_eq!(rep.solution.x.len(), demands.len());
            for (x, &d) in rep.solution.x.iter().zip(&demands) {
                let z = if d >= g { Rat::new(d as i128, g as i128) } else { Rat::ONE };
                prop_assert_eq!(*x, z, "{:?}: z for demand {}", backend, d);
            }
        }
    }

    #[test]
    fn lp_rounding_schedules_equal_kumar_rudra(jobs in interval_jobs(16), g in 1usize..6) {
        let inst = build(&jobs, g);
        let lp = IntervalAlgo::LpRounding.run(&inst).unwrap();
        let kr = IntervalAlgo::KumarRudra.run(&inst).unwrap();
        prop_assert_eq!(lp.bundles, kr.bundles);
    }
}
