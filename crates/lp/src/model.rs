//! A small modeling layer: variables, linear constraints, minimization
//! objective. All variables are non-negative; finite upper bounds can be
//! attached two ways:
//!
//! * [`LpProblem::set_upper`] — an **implicit** bound `x_v ≤ u` carried on
//!   the variable itself. The bounded revised simplex (the
//!   [`SolverBackend::Revised`](crate::SolverBackend::Revised) backend of
//!   [`crate::solve_lp`]) handles these inside the pivoting rules, so
//!   they never become tableau rows; the dense solvers
//!   materialize them as rows internally via [`LpProblem::bounds_as_rows`].
//! * [`LpProblem::bound_var`] — an **explicit** `≤` row. This is the seed
//!   formulation, kept as the differential-test oracle: the two encodings
//!   must produce bit-identical optima under every backend.
//!
//! **Variable upper bounds** (VUBs) `x ≤ y` — one variable capped by
//! another — get the same dual treatment: [`LpProblem::set_vub`] registers
//! the cap as a *family* (the bound variable `y` is the family's key, `x`
//! one of its dependents) that the revised simplex handles inside its
//! pivoting rules (Schrage-style: dependents may rest *glued* to their
//! key, see [`crate::bounds`]), while the dense solvers materialize each
//! cap as an explicit `x − y ≤ 0` row via [`LpProblem::vubs_as_rows`].
//! Families are flat: a key cannot itself carry a VUB and a dependent
//! cannot serve as a key (no chains).

use crate::scalar::Scalar;

/// Index of a decision variable.
pub type VarId = usize;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ a_i x_i ≤ b`
    Le,
    /// `Σ a_i x_i ≥ b`
    Ge,
    /// `Σ a_i x_i = b`
    Eq,
}

/// One linear constraint in sparse form.
#[derive(Debug, Clone)]
pub struct Constraint<S> {
    /// `(variable, coefficient)` pairs; repeated variables are summed.
    pub terms: Vec<(VarId, S)>,
    /// Sense.
    pub cmp: Cmp,
    /// Right-hand side.
    pub rhs: S,
}

/// A linear program `min c·x  s.t.  constraints, 0 ≤ x ≤ u` (with `u`
/// componentwise optional).
#[derive(Debug, Clone)]
pub struct LpProblem<S> {
    objective: Vec<S>,
    constraints: Vec<Constraint<S>>,
    upper: Vec<Option<S>>,
    /// Per variable: the key variable bounding it from above (`x ≤ key`).
    vub: Vec<Option<VarId>>,
    /// Per variable: how many dependents name it as their key.
    vub_dependents: Vec<u32>,
}

impl<S: Scalar> Default for LpProblem<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> LpProblem<S> {
    /// Empty problem.
    pub fn new() -> Self {
        LpProblem {
            objective: Vec::new(),
            constraints: Vec::new(),
            upper: Vec::new(),
            vub: Vec::new(),
            vub_dependents: Vec::new(),
        }
    }

    /// Adds a variable with objective coefficient `cost`; returns its id.
    pub fn add_var(&mut self, cost: S) -> VarId {
        self.objective.push(cost);
        self.upper.push(None);
        self.vub.push(None);
        self.vub_dependents.push(0);
        self.objective.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Adds `Σ terms cmp rhs`.
    pub fn add_constraint(&mut self, terms: Vec<(VarId, S)>, cmp: Cmp, rhs: S) {
        debug_assert!(
            terms.iter().all(|&(v, _)| v < self.num_vars()),
            "unknown variable"
        );
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Adds the upper bound `x_v ≤ ub` as an explicit row (the dense-oracle
    /// encoding; see the module docs).
    pub fn bound_var(&mut self, v: VarId, ub: S) {
        self.add_constraint(vec![(v, S::one())], Cmp::Le, ub);
    }

    /// Attaches the implicit bound `x_v ≤ ub` to the variable itself (no
    /// row is created). Repeated calls keep the tighter bound.
    pub fn set_upper(&mut self, v: VarId, ub: S) {
        debug_assert!(!ub.is_neg(), "upper bound below the lower bound 0");
        let keep = matches!(&self.upper[v],
            Some(old) if old.cmp_s(&ub) != std::cmp::Ordering::Greater);
        if !keep {
            self.upper[v] = Some(ub);
        }
    }

    /// The implicit upper bound of `v`, if any.
    pub fn upper(&self, v: VarId) -> Option<&S> {
        self.upper[v].as_ref()
    }

    /// Whether any variable carries an implicit upper bound.
    pub fn has_upper_bounds(&self) -> bool {
        self.upper.iter().any(|u| u.is_some())
    }

    /// Registers the variable upper bound `x_x ≤ x_key` as a VUB family
    /// membership (no row is created). Families must stay flat: `key` may
    /// not itself carry a VUB and `x` may not already serve as a key.
    /// A repeated call replaces `x`'s previous key.
    ///
    /// # Panics
    ///
    /// On `x == key`, on a chained family, or on unknown variables.
    pub fn set_vub(&mut self, x: VarId, key: VarId) {
        assert!(
            x < self.num_vars() && key < self.num_vars(),
            "unknown variable"
        );
        assert_ne!(x, key, "a variable cannot bound itself");
        assert!(
            self.vub[key].is_none(),
            "VUB chains are not supported: the key variable has a VUB itself"
        );
        assert!(
            self.vub_dependents[x] == 0,
            "VUB chains are not supported: the dependent serves as a key"
        );
        if let Some(old) = self.vub[x].replace(key) {
            self.vub_dependents[old] -= 1;
        }
        self.vub_dependents[key] += 1;
    }

    /// The VUB key of `v` (the variable bounding it from above), if any.
    pub fn vub(&self, v: VarId) -> Option<VarId> {
        self.vub[v]
    }

    /// Whether any variable carries a VUB.
    pub fn has_vubs(&self) -> bool {
        self.vub.iter().any(|k| k.is_some())
    }

    /// A copy of the problem with every VUB materialized as an explicit
    /// `x − key ≤ 0` row (appended after the original rows, in variable
    /// order) and the VUB registry cleared. Used by the dense solvers;
    /// duals of the appended rows are dropped before results reach
    /// callers.
    pub fn vubs_as_rows(&self) -> LpProblem<S> {
        let mut out = LpProblem {
            objective: self.objective.clone(),
            constraints: self.constraints.clone(),
            upper: self.upper.clone(),
            vub: vec![None; self.vub.len()],
            vub_dependents: vec![0; self.vub.len()],
        };
        for (v, key) in self.vub.iter().enumerate() {
            if let Some(key) = key {
                out.add_constraint(
                    vec![(v, S::one()), (*key, S::one().neg())],
                    Cmp::Le,
                    S::zero(),
                );
            }
        }
        out
    }

    /// A copy of the problem with every implicit bound materialized as an
    /// explicit `≤` row (appended after the original rows, in variable
    /// order) and the implicit bounds cleared. Used by the dense solvers;
    /// duals of the appended rows are dropped before results reach
    /// callers.
    pub fn bounds_as_rows(&self) -> LpProblem<S> {
        let mut out = LpProblem {
            objective: self.objective.clone(),
            constraints: self.constraints.clone(),
            upper: vec![None; self.upper.len()],
            vub: self.vub.clone(),
            vub_dependents: self.vub_dependents.clone(),
        };
        for (v, ub) in self.upper.iter().enumerate() {
            if let Some(ub) = ub {
                out.bound_var(v, ub.clone());
            }
        }
        out
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[S] {
        &self.objective
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint<S>] {
        &self.constraints
    }

    /// Evaluates the objective at `x`.
    pub fn objective_value(&self, x: &[S]) -> S {
        let mut acc = S::zero();
        for (c, xi) in self.objective.iter().zip(x) {
            acc = acc.add(&c.mul(xi));
        }
        acc
    }

    /// Checks primal feasibility of `x` (including `0 ≤ x ≤ u`).
    pub fn is_feasible(&self, x: &[S]) -> bool {
        if x.len() != self.num_vars() || x.iter().any(|v| v.is_neg()) {
            return false;
        }
        if x.iter()
            .zip(&self.upper)
            .any(|(v, u)| matches!(u, Some(u) if v.sub(u).is_pos()))
        {
            return false;
        }
        if x.iter()
            .zip(&self.vub)
            .any(|(v, k)| matches!(k, Some(k) if v.sub(&x[*k]).is_pos()))
        {
            return false;
        }
        self.constraints.iter().all(|c| {
            let mut lhs = S::zero();
            for (v, a) in &c.terms {
                lhs = lhs.add(&a.mul(&x[*v]));
            }
            match c.cmp {
                Cmp::Le => !lhs.sub(&c.rhs).is_pos(),
                Cmp::Ge => !c.rhs.sub(&lhs).is_pos(),
                Cmp::Eq => lhs.sub(&c.rhs).is_zero_s(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rational::Rat;

    #[test]
    fn build_and_evaluate() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::from_int(1));
        let y = lp.add_var(Rat::from_int(2));
        lp.add_constraint(
            vec![(x, Rat::ONE), (y, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(3),
        );
        lp.bound_var(x, Rat::from_int(2));
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        let sol = [Rat::from_int(2), Rat::from_int(1)];
        assert!(lp.is_feasible(&sol));
        assert_eq!(lp.objective_value(&sol), Rat::from_int(4));
        assert!(!lp.is_feasible(&[Rat::from_int(3), Rat::ZERO])); // violates bound
        assert!(!lp.is_feasible(&[Rat::from_int(1), Rat::ONE])); // violates Ge
        assert!(!lp.is_feasible(&[Rat::from_int(-1), Rat::from_int(4)])); // negativity
    }

    #[test]
    fn implicit_bounds_roundtrip() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(
            vec![(x, Rat::ONE), (y, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(3),
        );
        assert!(!lp.has_upper_bounds());
        lp.set_upper(x, Rat::from_int(2));
        lp.set_upper(x, Rat::from_int(5)); // looser: ignored
        assert_eq!(lp.upper(x), Some(&Rat::from_int(2)));
        assert_eq!(lp.upper(y), None);
        assert!(lp.has_upper_bounds());
        // Feasibility honours the implicit bound…
        assert!(!lp.is_feasible(&[Rat::from_int(3), Rat::ZERO]));
        assert!(lp.is_feasible(&[Rat::from_int(2), Rat::ONE]));
        // …and materialization moves it into a row.
        let rows = lp.bounds_as_rows();
        assert!(!rows.has_upper_bounds());
        assert_eq!(rows.num_constraints(), 2);
        assert!(!rows.is_feasible(&[Rat::from_int(3), Rat::ZERO]));
    }

    #[test]
    fn vub_registry_roundtrip() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        lp.add_constraint(
            vec![(x, Rat::ONE), (y, Rat::ONE)],
            Cmp::Ge,
            Rat::from_int(2),
        );
        assert!(!lp.has_vubs());
        lp.set_vub(x, y);
        assert!(lp.has_vubs());
        assert_eq!(lp.vub(x), Some(y));
        assert_eq!(lp.vub(y), None);
        // Feasibility honours the VUB…
        assert!(!lp.is_feasible(&[Rat::from_int(2), Rat::ZERO]));
        assert!(lp.is_feasible(&[Rat::ONE, Rat::ONE]));
        // …and materialization moves it into a row.
        let rows = lp.vubs_as_rows();
        assert!(!rows.has_vubs());
        assert_eq!(rows.num_constraints(), 2);
        assert!(!rows.is_feasible(&[Rat::from_int(2), Rat::ZERO]));
        // bounds_as_rows keeps the registry intact.
        lp.set_upper(y, Rat::from_int(3));
        let b = lp.bounds_as_rows();
        assert_eq!(b.vub(x), Some(y));
    }

    #[test]
    #[should_panic(expected = "chains")]
    fn vub_chains_rejected() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        let y = lp.add_var(Rat::ONE);
        let z = lp.add_var(Rat::ONE);
        lp.set_vub(x, y);
        lp.set_vub(y, z); // y is already a key
    }

    #[test]
    fn set_upper_keeps_the_tighter_bound() {
        let mut lp: LpProblem<Rat> = LpProblem::new();
        let x = lp.add_var(Rat::ONE);
        lp.set_upper(x, Rat::from_int(5));
        lp.set_upper(x, Rat::from_int(2));
        assert_eq!(lp.upper(x), Some(&Rat::from_int(2)));
    }
}
