//! Differential and adversarial tests for the certifier's reduced-cost
//! sweep: on random VUB LPs the revised and dense hybrid backends must
//! certify the dense exact solve's optimum, with every sign proven in
//! integers, and each data shape that sends a column family to `Rat` — a
//! fractional cost, an entry past 2³¹, an `i128` sum that would overflow —
//! must certify the same answer as the dense exact solve, counted as a
//! `Rat` sweep.

use abt_lp::{
    solve, solve_lp, Cmp, LpOptions, LpProblem, LpReport, LpStatus, Rat, SolveFailure,
    SolverBackend,
};
use proptest::prelude::*;

fn r(p: i64) -> Rat {
    Rat::from_int(p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn revised_and_hybrid_certify_the_dense_exact_optimum(
        k in 2usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 6), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 6),
        key_ubs in proptest::collection::vec(0i64..7, 3),
    ) {
        // `k` dependent/key VUB pairs over random rows: the families and
        // implicit bounds route the certifier through every resting state
        // (at-zero, at-upper, at-VUB, augmented key columns). The exact
        // dense simplex on the equivalent row encoding is the oracle.
        let nvars = 2 * k;
        let mut row_lp: LpProblem<Rat> = LpProblem::new();
        let mut vub_lp: LpProblem<Rat> = LpProblem::new();
        for &c in costs.iter().take(nvars) {
            row_lp.add_var(r(c));
            vub_lp.add_var(r(c));
        }
        for (coeffs, b) in &rows {
            let terms: Vec<_> = (0..nvars).map(|i| (i, r(coeffs[i]))).collect();
            row_lp.add_constraint(terms.clone(), Cmp::Le, r(*b));
            vub_lp.add_constraint(terms, Cmp::Le, r(*b));
        }
        for (i, &ub) in key_ubs.iter().enumerate().take(k) {
            let key = k + i;
            row_lp.add_constraint(vec![(i, Rat::ONE), (key, r(-1))], Cmp::Le, r(0));
            vub_lp.set_vub(i, key);
            row_lp.bound_var(key, r(ub));
            vub_lp.set_upper(key, r(ub));
        }
        let oracle = solve(&row_lp);
        // The revised rung certifies from the float pass's values, the
        // dense hybrid from the LU's; on small integral data both prove
        // every sign in integers. The keys' bounds cap every variable, so
        // the only refusal is a float-level infeasibility claim, which
        // the dense exact rung decides.
        for backend in [SolverBackend::Revised, SolverBackend::DenseHybrid] {
            match solve_lp(&vub_lp, &LpOptions::new().backend(backend)) {
                Ok(rep) => {
                    prop_assert_eq!(oracle.status.clone(), LpStatus::Optimal);
                    prop_assert_eq!(rep.solution.status.clone(), LpStatus::Optimal);
                    prop_assert_eq!(rep.solution.objective, oracle.objective);
                    prop_assert!(vub_lp.is_feasible(&rep.solution.x));
                    prop_assert_eq!(
                        (rep.stats.interval_accepts, rep.stats.interval_escalations),
                        (1, 0)
                    );
                }
                Err(f) => {
                    prop_assert_eq!(f, SolveFailure::Infeasible, "{:?}", backend);
                    prop_assert_eq!(oracle.status.clone(), LpStatus::Infeasible);
                }
            }
        }
    }
}

/// `lp`'s revised certification, asserted to match the dense exact
/// solve's objective and values, with some family swept in `Rat`.
fn certifies_in_rat_like_the_dense_exact_solve(lp: &LpProblem<Rat>) -> LpReport {
    let oracle = solve(lp);
    assert_eq!(oracle.status, LpStatus::Optimal);
    let rep = solve_lp(lp, &LpOptions::new()).expect("the revised rung certifies");
    assert_eq!(rep.solution.objective, oracle.objective);
    assert_eq!(rep.solution.x, oracle.x);
    assert_eq!(
        (rep.stats.interval_accepts, rep.stats.interval_escalations),
        (0, 1),
        "some family was swept in Rat"
    );
    rep
}

/// Minimize `−x₀` over `3·x₀ + Σⱼ xⱼ ≤ 3` with `n` satellite columns whose
/// costs are `−1/3 + 2⁻⁶⁰`. At the optimum `x₀ = 1` is basic, the row dual
/// is `−1/3`, and every satellite's exact reduced cost is `2⁻⁶⁰`: positive,
/// so the basis is optimal, but far below `f64`'s resolution of the costs.
fn tiny_gap_lp(n: usize) -> LpProblem<Rat> {
    let mut lp: LpProblem<Rat> = LpProblem::new();
    lp.add_var(r(-1));
    // −1/3 + 2⁻⁶⁰ = (3 − 2⁶⁰) / (3·2⁶⁰), exactly.
    let tiny_above = Rat::new(3 - (1i128 << 60), 3 * (1i128 << 60));
    for _ in 0..n {
        lp.add_var(tiny_above);
    }
    let mut terms = vec![(0usize, r(3))];
    for j in 0..n {
        terms.push((j + 1, Rat::ONE));
    }
    lp.add_constraint(terms, Cmp::Le, r(3));
    for j in 0..n {
        lp.set_upper(j + 1, r(100));
    }
    lp
}

/// With 24 satellites whose 2⁻⁶⁰ gaps no `f64` sign can resolve, the
/// sweep escalates to exact arithmetic: a fractional cost fails the
/// integer evaluation's bound, so each satellite's family is swept in
/// `Rat` (counted in `interval_escalations`) within the one sweep, with no
/// re-sweep. The certified optimum is the dense exact solve's, duals
/// included: a 2⁻⁶⁰ dual gap never produces a wrong verdict. The basic
/// values and the dual are integral over 3, so the float values are still
/// proven without the LU.
#[test]
fn adversarial_tiny_gap_escalates_to_exact() {
    let lp = tiny_gap_lp(24);
    let rep = certifies_in_rat_like_the_dense_exact_solve(&lp);
    assert_eq!(rep.solution.objective, r(-1));
    assert_eq!(rep.solution.duals, solve(&lp).duals);
    assert_eq!(rep.stats.certify_lu, 0);
}

/// With only 2 such satellites, the straddling columns are rescued where
/// they stand: their families are swept in `Rat` inside the revised
/// rung's one sweep, and neither backend escalates to another solve — the
/// revised rung proves the float values without the LU, and the dense
/// hybrid certifies the same optimum.
#[test]
fn isolated_straddles_are_rescued_without_escalation() {
    let lp = tiny_gap_lp(2);
    let rep = certifies_in_rat_like_the_dense_exact_solve(&lp);
    assert!(!rep.fallback);
    assert_eq!(rep.solution.objective, r(-1));
    assert_eq!(rep.stats.certify_lu, 0);
    let hybrid = solve_lp(&lp, &LpOptions::new().backend(SolverBackend::DenseHybrid))
        .expect("the dense hybrid certifies");
    assert_eq!(hybrid.solution.objective, rep.solution.objective);
    assert_eq!(hybrid.solution.x, rep.solution.x);
}

/// min x + 2·z  s.t.  x + z ≥ 1,  g·z ≤ g with a capacity g = 2³²: at the
/// optimum x = 1, and z rests at zero with a reduced cost of 1 read over
/// the entry g, which passes 2³¹. The basic columns are small, so the
/// float values are proven without the LU.
#[test]
fn a_capacity_entry_past_2_to_the_31_is_swept_in_rat() {
    let g = Rat::from_int(1 << 32);
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let x = lp.add_var(Rat::ONE);
    let z = lp.add_var(r(2));
    lp.add_constraint(vec![(x, Rat::ONE), (z, Rat::ONE)], Cmp::Ge, Rat::ONE);
    lp.add_constraint(vec![(z, g)], Cmp::Le, g);
    let rep = certifies_in_rat_like_the_dense_exact_solve(&lp);
    assert_eq!(rep.solution.objective, Rat::ONE);
    assert_eq!(rep.stats.certify_lu, 0);
}

/// min x₁ + x₂ + 2³¹·w  s.t.  q₁·x₁ + w ≥ q₁,  q₂·x₂ ≥ q₂ with coprime
/// q₁, q₂ = 2⁴⁹ ± 1: the basic columns' entries pass 2³¹, so the LU
/// supplies the duals 1/q₁ and 1/q₂, over the common denominator
/// q₁·q₂ ≈ 2⁹⁸. Their numerators stay below 2⁶², so the surplus columns
/// are swept in integers, but w's cost times that denominator passes
/// `i128`, so w's family is swept in `Rat`.
#[test]
fn a_family_whose_i128_sum_would_overflow_is_swept_in_rat() {
    let (q1, q2) = (Rat::from_int((1 << 49) + 1), Rat::from_int((1 << 49) - 1));
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let x1 = lp.add_var(Rat::ONE);
    let x2 = lp.add_var(Rat::ONE);
    let w = lp.add_var(Rat::from_int(1 << 31));
    lp.add_constraint(vec![(x1, q1), (w, Rat::ONE)], Cmp::Ge, q1);
    lp.add_constraint(vec![(x2, q2)], Cmp::Ge, q2);
    let rep = certifies_in_rat_like_the_dense_exact_solve(&lp);
    assert_eq!(rep.solution.objective, r(2));
    assert_eq!(rep.stats.certify_lu, 1);
}
