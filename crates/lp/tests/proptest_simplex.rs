#![allow(clippy::needless_range_loop)] // index loops mirror the math

//! Differential test: simplex vs brute-force vertex enumeration on small
//! random LPs with exact rational arithmetic.
//!
//! For an LP `min c·x, Ax ≤ b, x ≥ 0` in `k` variables, every optimal basic
//! solution is a vertex of the polytope: the intersection of `k` tight
//! constraints (rows of `A` or axes). The oracle enumerates all such
//! intersections, filters the feasible ones, and takes the best objective.

use abt_lp::{
    solve, solve_lp, Cmp, LpOptions, LpProblem, LpSolution, LpStatus, Rat, SolveFailure,
    SolverBackend,
};
use proptest::prelude::*;

fn r(p: i64) -> Rat {
    Rat::from_int(p)
}

/// The `DenseExact` backend's answer (the backend never fails).
fn dense_exact(lp: &LpProblem<Rat>) -> LpSolution<Rat> {
    solve_lp(lp, &LpOptions::new().backend(SolverBackend::DenseExact))
        .expect("the dense exact backend never fails")
        .solution
}

/// Checks one backend's answer `sol` on `lp` against the dense exact
/// verdict `exact`: bit-identical status and objective, and an exactly
/// feasible vertex with one dual per row.
fn check_answer(
    lp: &LpProblem<Rat>,
    sol: &LpSolution<Rat>,
    exact: &LpSolution<Rat>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(sol.status.clone(), exact.status.clone());
    if exact.status == LpStatus::Optimal {
        prop_assert_eq!(sol.objective, exact.objective);
        prop_assert!(lp.is_feasible(&sol.x));
        prop_assert_eq!(lp.objective_value(&sol.x), exact.objective);
        prop_assert_eq!(sol.duals.len(), lp.num_constraints());
    }
    Ok(())
}

/// Checks a float rung — the `Revised` or `DenseHybrid` backend — on
/// `lp` against the dense exact verdict `exact`, and returns its certified
/// answer. A certified answer must match the verdict bit for bit. A typed
/// refusal must name it: a float `Infeasible` claim stands for an
/// infeasible LP, an unbounded float run surfaces as a stall. Either way
/// the supervision ladder's last rung, `DenseExact`, answers exactly.
fn check_rung(
    lp: &LpProblem<Rat>,
    backend: SolverBackend,
    exact: &LpSolution<Rat>,
) -> Result<Option<LpSolution<Rat>>, TestCaseError> {
    match solve_lp(lp, &LpOptions::new().backend(backend)) {
        Ok(rep) => {
            prop_assert!(!rep.fallback, "a float rung's answer is always certified");
            check_answer(lp, &rep.solution, exact)?;
            Ok(Some(rep.solution))
        }
        Err(f) => {
            let expected = match f {
                SolveFailure::Infeasible => LpStatus::Infeasible,
                SolveFailure::NumericalStall => LpStatus::Unbounded,
                other => return Err(TestCaseError::fail(format!("unexpected failure {other}"))),
            };
            prop_assert_eq!(exact.status.clone(), expected, "{:?}", backend);
            check_answer(lp, &dense_exact(lp), exact)?;
            Ok(None)
        }
    }
}

/// Solve a k×k exact linear system via Gaussian elimination; None if singular.
fn solve_square(mut m: Vec<Vec<Rat>>, mut rhs: Vec<Rat>) -> Option<Vec<Rat>> {
    let k = rhs.len();
    for col in 0..k {
        let piv = (col..k).find(|&i| !m[i][col].is_zero())?;
        m.swap(col, piv);
        rhs.swap(col, piv);
        let p = m[col][col];
        for j in 0..k {
            m[col][j] = m[col][j].div(&p);
        }
        rhs[col] = rhs[col].div(&p);
        for i in 0..k {
            if i != col && !m[i][col].is_zero() {
                let f = m[i][col];
                for j in 0..k {
                    let t = f.mul(&m[col][j]);
                    m[i][j] = m[i][j].sub(&t);
                }
                let t = f.mul(&rhs[col]);
                rhs[i] = rhs[i].sub(&t);
            }
        }
    }
    Some(rhs)
}

/// Brute-force optimum of `min c·x, Ax ≤ b, x ≥ 0` (or None if infeasible).
/// Assumes boundedness (we add a box x_i ≤ box to guarantee it).
fn brute_force(c: &[Rat], a: &[Vec<Rat>], b: &[Rat]) -> Option<Rat> {
    let k = c.len();
    let m = a.len();
    // Build the full row list: Ax ≤ b rows and axis rows x_i ≥ 0 (as -x_i ≤ 0).
    let mut rows: Vec<(Vec<Rat>, Rat)> = Vec::new();
    for i in 0..m {
        rows.push((a[i].clone(), b[i]));
    }
    for i in 0..k {
        let mut row = vec![Rat::ZERO; k];
        row[i] = Rat::from_int(-1);
        rows.push((row, Rat::ZERO));
    }
    let n_rows = rows.len();
    let feasible = |x: &[Rat]| -> bool {
        rows.iter().all(|(row, bi)| {
            let mut lhs = Rat::ZERO;
            for (coef, xi) in row.iter().zip(x) {
                lhs = lhs.add(&coef.mul(xi));
            }
            lhs <= *bi
        })
    };
    // Enumerate all k-subsets of rows (n_rows is tiny here).
    let mut best: Option<Rat> = None;
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        let msub: Vec<Vec<Rat>> = idx.iter().map(|&i| rows[i].0.clone()).collect();
        let rsub: Vec<Rat> = idx.iter().map(|&i| rows[i].1).collect();
        if let Some(x) = solve_square(msub, rsub) {
            if feasible(&x) {
                let mut obj = Rat::ZERO;
                for (ci, xi) in c.iter().zip(&x) {
                    obj = obj.add(&ci.mul(xi));
                }
                best = Some(match best {
                    Some(b) if b <= obj => b,
                    _ => obj,
                });
            }
        }
        // Next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if idx[i] != i + n_rows - k {
                idx[i] += 1;
                for j in i + 1..k {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Builds `min c·x, Ax ≤ b, 0 ≤ x_i ≤ 10` from the raw proptest draws.
fn build_boxed_lp(k: usize, rows: &[(Vec<i64>, i64)], costs: &[i64]) -> LpProblem<Rat> {
    let mut lp: LpProblem<Rat> = LpProblem::new();
    let vars: Vec<_> = (0..k).map(|i| lp.add_var(r(costs[i]))).collect();
    for (coeffs, b) in rows {
        let terms: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, r(coeffs[i])))
            .collect();
        lp.add_constraint(terms, Cmp::Le, r(*b));
    }
    for &v in &vars {
        lp.bound_var(v, r(10));
    }
    lp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn simplex_matches_vertex_enumeration(
        k in 1usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 3), 0i64..9), 1..5),
        costs in proptest::collection::vec(-5i64..6, 3),
    ) {
        // Build min c·x, Ax ≤ b, x ≥ 0, x_i ≤ 10 (bounding box).
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let vars: Vec<_> = (0..k).map(|i| lp.add_var(r(costs[i]))).collect();
        let mut a_rows: Vec<Vec<Rat>> = Vec::new();
        let mut b_vec: Vec<Rat> = Vec::new();
        for (coeffs, b) in &rows {
            let terms: Vec<_> = vars.iter().enumerate()
                .map(|(i, &v)| (v, r(coeffs[i])))
                .collect();
            lp.add_constraint(terms, Cmp::Le, r(*b));
            a_rows.push((0..k).map(|i| r(coeffs[i])).collect());
            b_vec.push(r(*b));
        }
        for &v in &vars {
            lp.bound_var(v, r(10));
            let mut row = vec![Rat::ZERO; k];
            row[v] = Rat::ONE;
            a_rows.push(row);
            b_vec.push(r(10));
        }
        let c: Vec<Rat> = (0..k).map(|i| r(costs[i])).collect();
        let oracle = brute_force(&c, &a_rows, &b_vec);
        let sol = solve(&lp);
        match oracle {
            None => prop_assert_eq!(sol.status, LpStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status.clone(), LpStatus::Optimal);
                prop_assert_eq!(sol.objective, best);
                prop_assert!(lp.is_feasible(&sol.x));

                // Strong duality: b·y = c·x, and dual feasibility:
                // Σ_i y_i a_ij ≤ c_j with y ≤ 0 on ≤ rows (all rows here).
                prop_assert_eq!(sol.duals.len(), lp.num_constraints());
                let mut by = Rat::ZERO;
                for (cons, y) in lp.constraints().iter().zip(&sol.duals) {
                    prop_assert!(y.signum() <= 0, "≤-row dual must be ≤ 0");
                    by = by.add(&y.mul(&cons.rhs));
                }
                prop_assert_eq!(by, sol.objective, "strong duality");
                for j in 0..k {
                    let mut aty = Rat::ZERO;
                    for (cons, y) in lp.constraints().iter().zip(&sol.duals) {
                        for &(v, coef) in &cons.terms {
                            if v == j {
                                aty = aty.add(&y.mul(&coef));
                            }
                        }
                    }
                    prop_assert!(aty <= r(costs[j]), "dual feasibility for var {}", j);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn hybrid_matches_pure_rational_simplex(
        k in 1usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 3), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 3),
    ) {
        // The hybrid contract: a certified answer has status and
        // objective bit-identical to the pure exact simplex, its vertex
        // exactly feasible and exactly optimal, its duals exactly
        // feasible with strong duality; a refusal names the verdict.
        let lp = build_boxed_lp(k, &rows, &costs);
        let exact = solve(&lp);
        if let Some(hybrid) = check_rung(&lp, SolverBackend::DenseHybrid, &exact)? {
            let mut by = Rat::ZERO;
            for (cons, y) in lp.constraints().iter().zip(&hybrid.duals) {
                prop_assert!(y.signum() <= 0, "≤-row dual must be ≤ 0");
                by = by.add(&y.mul(&cons.rhs));
            }
            prop_assert_eq!(by, exact.objective, "strong duality");
            for j in 0..k {
                let mut aty = Rat::ZERO;
                for (cons, y) in lp.constraints().iter().zip(&hybrid.duals) {
                    for &(v, coef) in &cons.terms {
                        if v == j {
                            aty = aty.add(&y.mul(&coef));
                        }
                    }
                }
                prop_assert!(aty <= r(costs[j]), "dual feasibility for var {}", j);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn revised_matches_dense_on_both_vub_encodings(
        k in 2usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 6), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 6),
        key_ubs in proptest::collection::vec(0i64..7, 3),
        dep_cap in -1i64..7,
    ) {
        // `k` dependent/key pairs: dependent i (< k) is VUB-bounded by key
        // k + i. The keys carry constant bounds (so the LP is bounded);
        // optionally (`dep_cap ≥ 0`) dependent 0 also carries a constant
        // cap, exercising the promoted-bound-row path. The VUB encoding
        // must be bit-identical (status and objective) to the dense exact
        // simplex on the row encoding, under both the revised and the
        // dense-hybrid backends (a revised refusal must name the verdict).
        let nvars = 2 * k;
        let mut row_lp: LpProblem<Rat> = LpProblem::new();
        let mut vub_lp: LpProblem<Rat> = LpProblem::new();
        for i in 0..nvars {
            row_lp.add_var(r(costs[i]));
            vub_lp.add_var(r(costs[i]));
        }
        for (coeffs, b) in &rows {
            let terms: Vec<_> = (0..nvars).map(|i| (i, r(coeffs[i]))).collect();
            row_lp.add_constraint(terms.clone(), Cmp::Le, r(*b));
            vub_lp.add_constraint(terms, Cmp::Le, r(*b));
        }
        for i in 0..k {
            let key = k + i;
            row_lp.add_constraint(vec![(i, Rat::ONE), (key, r(-1))], Cmp::Le, r(0));
            vub_lp.set_vub(i, key);
            row_lp.bound_var(key, r(key_ubs[i]));
            vub_lp.set_upper(key, r(key_ubs[i]));
        }
        if dep_cap >= 0 {
            row_lp.bound_var(0, r(dep_cap));
            vub_lp.set_upper(0, r(dep_cap)); // promoted to a row internally
        }
        let exact = solve(&row_lp);
        for backend in [SolverBackend::Revised, SolverBackend::DenseHybrid] {
            check_rung(&vub_lp, backend, &exact)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn revised_matches_dense_on_both_bound_encodings(
        k in 1usize..4,
        rows in proptest::collection::vec(
            (proptest::collection::vec(-4i64..5, 3), -3i64..9), 1..6),
        costs in proptest::collection::vec(-5i64..6, 3),
        ubs in proptest::collection::vec(0i64..11, 3),
    ) {
        // The bounded revised hybrid must be bit-identical (status and
        // objective) to the dense exact simplex whether the per-variable
        // box is written as explicit `≤` rows or as implicit bounds (or
        // refuse with a typed failure naming the verdict).
        let mut row_lp: LpProblem<Rat> = LpProblem::new();
        let mut bnd_lp: LpProblem<Rat> = LpProblem::new();
        for i in 0..k {
            row_lp.add_var(r(costs[i]));
            bnd_lp.add_var(r(costs[i]));
        }
        for (coeffs, b) in &rows {
            let terms: Vec<_> = (0..k).map(|i| (i, r(coeffs[i]))).collect();
            row_lp.add_constraint(terms.clone(), Cmp::Le, r(*b));
            bnd_lp.add_constraint(terms, Cmp::Le, r(*b));
        }
        for i in 0..k {
            row_lp.bound_var(i, r(ubs[i]));
            bnd_lp.set_upper(i, r(ubs[i]));
        }
        let exact = solve(&row_lp);
        for lp in [&row_lp, &bnd_lp] {
            check_rung(lp, SolverBackend::Revised, &exact)?;
        }
    }
}
