//! Crash starts for the bounded revised simplex: a [`StartBasis`] that a
//! caller builds from what it knows about its problem and hands to a cold
//! solve through [`LpOptions::start`](crate::LpOptions::start).
//!
//! A cold solve needs no search to skip most of phase 1 — only a basis
//! that is *nearly* feasible. A [`StartBasis`] states one in the
//! problem's own terms: a resting state per variable and, per row, the
//! column basic in its place (its slack or surplus, its artificial, or a
//! structural variable). [`StartBasis::snapshot`] maps it onto the
//! standard-form columns as a [`BasisSnapshot`], and the float pass
//! factors that in place of the all-slack basis (uncounted, like the
//! all-slack factorization it replaces), checks that its states fit the
//! form and that every basic value lies within its bounds and VUBs — a
//! basic artificial may be positive — and runs phase 1 only while one is.
//! A start that fails any check is dropped for the all-slack basis. The
//! terminal basis is certified exactly like any other, so a start changes
//! pivot counts and possibly which optimal vertex is reached, never a
//! status or objective. `abt-active` builds one for every LP1 block (see
//! its `lp_model` module docs).

use crate::bounds::{StandardForm, VarState};
use crate::model::VarId;

/// A starting basis for a cold solve, in the problem's own variables and
/// rows (see the module docs). The basis is the set of columns the rows
/// name; every basic value follows from the resting states, so a start
/// carries no numbers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StartBasis {
    /// Resting state per variable, indexed by [`VarId`]:
    /// [`VarState::Basic`] exactly for the variables some row names.
    pub vars: Vec<VarState>,
    /// Per constraint, in order: the column basic in its place.
    pub rows: Vec<RowStart>,
}

/// Which column holds a row's place in a [`StartBasis`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStart {
    /// The row's own slack (a `≤` row after sign normalization) or
    /// surplus (a `≥` row).
    Slack,
    /// The row's artificial (a `≥` or `=` row).
    Artificial,
    /// A structural variable.
    Var(VarId),
}

impl StartBasis {
    /// The start in `sf`'s columns: a row's slack, surplus and artificial
    /// are its singleton auxiliary columns, and rows past
    /// [`StartBasis::rows`] (promoted bound rows) keep their slack.
    /// `None` when the start names a column the row lacks or does not fit
    /// the form's size; the float pass checks everything else.
    pub fn snapshot<S>(&self, sf: &StandardForm<S>) -> Option<BasisSnapshot> {
        if self.vars.len() != sf.nstruct || self.rows.len() > sf.m {
            return None;
        }
        let mut slack = vec![usize::MAX; sf.m];
        let mut art = vec![usize::MAX; sf.m];
        for j in sf.nstruct..sf.ncols {
            let &(row, _) = sf.cols[j].first()?;
            if sf.artificial[j] {
                art[row] = j;
            } else {
                slack[row] = j;
            }
        }
        let mut state = vec![VarState::AtLower; sf.ncols];
        state[..sf.nstruct].copy_from_slice(&self.vars);
        let mut basis = Vec::with_capacity(sf.m);
        for i in 0..sf.m {
            let col = match self.rows.get(i).copied().unwrap_or(RowStart::Slack) {
                RowStart::Slack => slack[i],
                RowStart::Artificial => art[i],
                RowStart::Var(v) if v < sf.nstruct => v,
                RowStart::Var(_) => usize::MAX,
            };
            if col == usize::MAX {
                return None;
            }
            state[col] = VarState::Basic;
            basis.push(col);
        }
        Some(BasisSnapshot { basis, state })
    }
}

/// A basis in standard-form columns: the basic column per row, and the
/// resting state of every column (which encodes the VUB glue sets — a
/// dependent whose state is [`VarState::AtVub`] rides glued to its key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Basic column per row (length `m`).
    pub basis: Vec<usize>,
    /// Resting state per standard-form column (length `ncols`).
    pub state: Vec<VarState>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{solve_lp, LpOptions};
    use crate::bounds::BoundedOptions;
    use crate::model::{Cmp, LpProblem};
    use crate::rational::Rat;
    use crate::simplex::{solve, LpStatus};
    use abt_core::error::{BudgetKind, SolveFailure};

    fn r(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    /// A miniature LP1-shaped component: two super-slot keys with VUB
    /// families, a capacity row per run, demand rows per job.
    fn lp1_like(demands: [i64; 3], widths: [i64; 2]) -> LpProblem<Rat> {
        let g = r(2, 1);
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let y0 = lp.add_var(Rat::ONE);
        let y1 = lp.add_var(Rat::ONE);
        lp.set_upper(y0, Rat::from_int(widths[0]));
        lp.set_upper(y1, Rat::from_int(widths[1]));
        let x00 = lp.add_var(Rat::ZERO); // job 0 in run 0
        let x01 = lp.add_var(Rat::ZERO); // job 0 in run 1
        let x10 = lp.add_var(Rat::ZERO); // job 1 in run 0
        let x21 = lp.add_var(Rat::ZERO); // job 2 in run 1
        for (x, y) in [(x00, y0), (x01, y1), (x10, y0), (x21, y1)] {
            lp.set_vub(x, y);
        }
        lp.add_constraint(
            vec![(x00, Rat::ONE), (x10, Rat::ONE), (y0, g.neg())],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![(x01, Rat::ONE), (x21, Rat::ONE), (y1, g.neg())],
            Cmp::Le,
            Rat::ZERO,
        );
        lp.add_constraint(
            vec![(x00, Rat::ONE), (x01, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(demands[0]),
        );
        lp.add_constraint(vec![(x10, Rat::ONE)], Cmp::Ge, Rat::from_int(demands[1]));
        lp.add_constraint(vec![(x21, Rat::ONE)], Cmp::Ge, Rat::from_int(demands[2]));
        lp
    }

    #[test]
    fn cold_solve_matches_exact_and_start_maps_onto_the_form() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let out = solve_lp(&lp, &LpOptions::new()).expect("clean solve");
        assert!(!out.fallback);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert_eq!(out.solution.objective, solve(&lp).objective);
        // A start in the problem's terms becomes one basic column per row
        // and a resting state per standard-form column.
        let sf = StandardForm::build(&lp);
        let start = StartBasis {
            vars: vec![VarState::AtLower; lp.num_vars()],
            rows: vec![RowStart::Slack; lp.num_constraints()],
        };
        let snap = start
            .snapshot(&sf)
            .expect("every row has a slack or surplus");
        assert_eq!(snap.basis.len(), sf.m);
        assert_eq!(snap.state.len(), sf.ncols);
        let basic = snap.state.iter().filter(|&&s| s == VarState::Basic).count();
        assert_eq!(basic, sf.m);
        // A start naming a column the row lacks does not map.
        let bad = StartBasis {
            rows: vec![RowStart::Artificial; lp.num_constraints()],
            ..start
        };
        assert_eq!(bad.snapshot(&sf), None, "≤ rows carry no artificial");
    }

    #[test]
    fn cold_solve_enforces_pivot_budgets() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let out = solve_lp(&lp, &LpOptions::new()).expect("clean solve");
        assert_eq!(out.solution.objective, solve(&lp).objective);
        // Budgets are enforced, not ignored.
        let tight = LpOptions::new().pricing(BoundedOptions {
            pivot_budget: 1,
            ..BoundedOptions::default()
        });
        assert_eq!(
            solve_lp(&lp, &tight).unwrap_err(),
            SolveFailure::BudgetExceeded(BudgetKind::Pivots)
        );
    }

    #[test]
    fn infeasible_data_fails_typed_on_the_cold_path() {
        // The float pass reports its Infeasible claim as a typed failure
        // (the exact confirmation is the supervision ladder's dense
        // rungs). Demand far beyond the capped capacity g·(w0 + w1) = 6.
        let lp = lp1_like([40, 1, 1], [2, 1]);
        assert_eq!(
            solve_lp(&lp, &LpOptions::new()).unwrap_err(),
            SolveFailure::Infeasible
        );
        assert_eq!(solve(&lp).status, LpStatus::Infeasible);
    }

    #[test]
    fn dropped_start_solves_like_no_start() {
        // An all-slack start maps onto the form and factors, but every
        // demand row's surplus starts negative: the float pass fails the
        // bound check and drops the start for the all-slack basis, so the
        // solve is the plain cold one, pivot for pivot.
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let start = StartBasis {
            vars: vec![VarState::AtLower; lp.num_vars()],
            rows: vec![RowStart::Slack; lp.num_constraints()],
        };
        let plain = solve_lp(&lp, &LpOptions::new()).expect("clean solve");
        let dropped = solve_lp(&lp, &LpOptions::new().start(Some(&start))).expect("clean solve");
        assert_eq!(dropped.solution.objective, plain.solution.objective);
        assert_eq!(dropped.solution.x, plain.solution.x);
        assert_eq!(dropped.stats.pivots, plain.stats.pivots);
    }
}
