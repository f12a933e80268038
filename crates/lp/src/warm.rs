//! Warm-start machinery for the bounded revised simplex: basis
//! **snapshots** extracted from a finished solve and re-installed into a
//! fresh one.
//!
//! # Why warm starts
//!
//! The decomposition layer in `abt-active` turns one big LP1 into
//! thousands of small per-component sub-LPs — and on the instance families
//! the roadmap targets (nested windows, online arrival streams) those
//! components are *near-identical*: same constraint sparsity pattern, same
//! VUB family layout, different right-hand sides. Solving every sibling
//! cold repeats the same pivot sequence over and over. A
//! [`BasisSnapshot`] captures what that work actually bought — the
//! terminal basis column ordering and every column's resting state
//! (including the VUB glue sets implied by [`VarState::AtVub`]) — so a
//! *structurally identical* problem with different data can start at the
//! old optimum and usually needs only a handful of pivots, or none.
//!
//! # Lifecycle
//!
//! 1. **Extract** — [`BasisSnapshot::from_proposal`] clones the
//!    basis/state vectors out of an `Optimal` [`BoundedBasis`] (the float
//!    pass's terminal proposal). Every certified `Revised` solve of
//!    [`crate::api::solve_lp`] does this automatically and hands the
//!    snapshot back in [`LpReport::snapshot`].
//! 2. **Install** — a later `solve_lp` call offering the snapshot through
//!    [`LpOptions::snapshots`] validates it against the new problem's
//!    standard form: shape check, state consistency, then **one
//!    sparse-LU refactorization** of the (key-column-augmented) basis and
//!    an exact-arithmetic-free primal feasibility check of the recomputed
//!    basic values. Any failure — shape drift, a singular basis for the
//!    new data, primal infeasibility — moves on to the next candidate,
//!    and an exhausted pool falls through to the ordinary **cold**
//!    two-phase solve (unless [`LpOptions::warm_only`]). A warm install
//!    that succeeds skips phase 1 entirely (the installed basis *is* a
//!    feasible basis: every basic artificial sits at zero) and resumes
//!    phase-2 pivoting from the old optimum.
//! 3. **Certify** — warm or cold, the terminal basis is re-verified in
//!    exact rationals by the same certifier, so a warm answer is
//!    **bit-identical** to the cold one: the float search's starting
//!    point can change which alternate optimal vertex is reached, never
//!    the certified status or objective. An unverifiable warm outcome
//!    re-runs cold — a warm start can only ever cost a retry, never an
//!    answer.
//!
//! # What "matches" means
//!
//! A snapshot is keyed to the standard-form *shape*: row count `m` and
//! column count `ncols` are prechecked here, and the install step's
//! factorization + feasibility check covers the rest. Callers that batch
//! siblings (the planner in `abt-active::lp_model`) group problems by an
//! exact structural signature first, so installs almost never fail; a
//! caller that hands in a stale snapshot merely pays the cold solve it
//! would have run anyway.

use crate::api::{LpOptions, LpReport};
use crate::arena::with_arena;
use crate::bounds::{
    solve_bounded_warm_pooled, BoundedBasis, BoundedStatus, StandardForm, VarState,
};
use crate::model::LpProblem;
use crate::rational::Rat;
use crate::simplex::{certify_proposal, to_f64};
use abt_core::error::SolveFailure;

/// A reusable snapshot of a finished bounded revised solve: the basis
/// column per row, and the resting state of every standard-form column
/// (which encodes the VUB glue sets — a dependent whose state is
/// [`VarState::AtVub`] rides glued to its key). See the module docs for
/// the lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisSnapshot {
    /// Standard-form row count the snapshot was taken at.
    pub m: usize,
    /// Standard-form column count the snapshot was taken at.
    pub ncols: usize,
    /// Basic column per row (length `m`).
    pub basis: Vec<usize>,
    /// Resting state per standard-form column (length `ncols`).
    pub state: Vec<VarState>,
}

impl BasisSnapshot {
    /// Extracts a snapshot from the float pass's terminal proposal.
    /// Returns `None` unless the proposal is `Optimal` (only an optimal
    /// basis is worth resuming from — `Stalled` proposals carry no basis
    /// at all).
    pub fn from_proposal(prop: &BoundedBasis) -> Option<BasisSnapshot> {
        if prop.status != BoundedStatus::Optimal {
            return None;
        }
        Some(BasisSnapshot {
            m: prop.basis.len(),
            ncols: prop.state.len(),
            basis: prop.basis.clone(),
            state: prop.state.clone(),
        })
    }

    /// Cheap shape precheck against a standard form: row and column counts
    /// must agree. The install step re-validates everything structural
    /// (state consistency, basis regularity, primal feasibility), so this
    /// is a fast-path filter, not a correctness gate.
    pub fn matches_shape<S>(&self, sf: &StandardForm<S>) -> bool {
        self.m == sf.m && self.ncols == sf.ncols
    }

    /// Upper bound on the row/column counts a decoded snapshot may claim —
    /// far above any LP this workspace builds, low enough that a corrupted
    /// size field cannot drive a giant allocation before validation.
    pub const MAX_DECODE_DIM: usize = 1 << 24;

    /// Serializes the snapshot with the `abt-core::persist` codec. The
    /// inverse of [`BasisSnapshot::decode`].
    pub fn encode(&self, enc: &mut abt_core::persist::Enc) {
        enc.put_usize(self.m);
        enc.put_usize(self.ncols);
        debug_assert_eq!(self.basis.len(), self.m);
        for &col in &self.basis {
            enc.put_usize(col);
        }
        debug_assert_eq!(self.state.len(), self.ncols);
        for &st in &self.state {
            enc.put_u8(match st {
                VarState::Basic => 0,
                VarState::AtLower => 1,
                VarState::AtUpper => 2,
                VarState::AtVub => 3,
            });
        }
    }

    /// Deserializes a snapshot, validating every structural invariant the
    /// in-memory type maintains: `basis.len() == m`, `state.len() ==
    /// ncols`, every basis column in range, every state byte a known
    /// variant, both dimensions under [`BasisSnapshot::MAX_DECODE_DIM`].
    /// Anything else is a typed [`abt_core::persist::PersistError`] —
    /// never a panic. (The
    /// install step re-validates against the target problem anyway; this
    /// gate exists so malformed persisted bytes cannot even reach it.)
    pub fn decode(
        dec: &mut abt_core::persist::Dec<'_>,
    ) -> Result<BasisSnapshot, abt_core::persist::PersistError> {
        use abt_core::persist::PersistError;
        let m = dec.usize()?;
        let ncols = dec.usize()?;
        if m > Self::MAX_DECODE_DIM || ncols > Self::MAX_DECODE_DIM {
            return Err(PersistError::Malformed(format!(
                "snapshot dimensions {m}×{ncols} exceed the decode cap"
            )));
        }
        if m > dec.remaining() / 8 {
            return Err(PersistError::Truncated {
                need: m * 8,
                have: dec.remaining(),
            });
        }
        let mut basis = Vec::with_capacity(m);
        for _ in 0..m {
            let col = dec.usize()?;
            if col >= ncols {
                return Err(PersistError::Malformed(format!(
                    "basis column {col} out of range (ncols {ncols})"
                )));
            }
            basis.push(col);
        }
        if ncols > dec.remaining() {
            return Err(PersistError::Truncated {
                need: ncols,
                have: dec.remaining(),
            });
        }
        let mut state = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            state.push(match dec.u8()? {
                0 => VarState::Basic,
                1 => VarState::AtLower,
                2 => VarState::AtUpper,
                3 => VarState::AtVub,
                b => {
                    return Err(PersistError::Malformed(format!(
                        "unknown VarState byte {b}"
                    )))
                }
            });
        }
        Ok(BasisSnapshot {
            m,
            ncols,
            basis,
            state,
        })
    }
}

/// The warm-only engine behind [`crate::api::solve_lp`]'s `Revised`
/// backend when `opts.snapshots` is non-empty: tries each candidate
/// snapshot **in order** and never falls through to a cold solve itself.
/// Different siblings of a family land on different optimal vertices, so
/// a small pool of candidates lifts the hit rate well above what any
/// single snapshot achieves — a failed install costs one sparse LU
/// factorization plus a feasibility sweep, cheap next to the cold pivot
/// sequence it stands in for.
///
/// * `Ok(report)` — some candidate installed, its warm float run finished
///   `Optimal`, and the terminal basis certified exactly
///   (`report.warm_hit` is always `true` here).
/// * `Err(ShapeDrift)` — no candidate produced a certified answer (shape
///   mismatches, failed installs, stalled warm runs, or exact
///   refutations). A routine cache miss, **not** a fault: `solve_lp`
///   falls through to the cold solve unless `opts.warm_only`, and
///   supervisors drop through to the cold rung without recording a
///   demotion.
/// * `Err(BudgetExceeded(_))` — a budget in `opts.pricing` tripped during
///   a warm run or its certification. Genuine budget pressure: surfaced
///   immediately rather than burning the remaining candidates.
pub(crate) fn revised_warm(
    lp: &LpProblem<Rat>,
    opts: &LpOptions,
) -> Result<LpReport, SolveFailure> {
    let mut span = abt_core::obs_span!("solve.warm", candidates = opts.snapshots.len());
    // Both standard forms are built at most once per call: the f64 form is
    // shared by every candidate install, and the (expensive) rational form
    // is built lazily on the first candidate that reaches certification.
    let sf64 = StandardForm::build(&to_f64(lp));
    let mut sfr: Option<StandardForm<Rat>> = None;
    for snap in opts.snapshots {
        if !snap.matches_shape(&sf64) {
            continue;
        }
        let Some(prop) =
            with_arena(|arena| solve_bounded_warm_pooled(&sf64, &opts.pricing, snap, arena))
        else {
            continue; // install failed: try the next candidate
        };
        match prop.status {
            BoundedStatus::Optimal => {}
            BoundedStatus::Budget(k) => return Err(SolveFailure::BudgetExceeded(k)),
            _ => continue, // warm run stalled/diverged: try the next
        }
        let sfr = sfr.get_or_insert_with(|| StandardForm::build(lp));
        // `None` is an exact refutation: try the next candidate.
        if let Some(mut rep) = certify_proposal(lp, sfr, &prop, opts)? {
            span.field("hit", true);
            rep.warm_hit = true;
            return Ok(rep);
        }
    }
    Err(SolveFailure::ShapeDrift)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::solve_lp;
    use crate::arena::with_arena;
    use crate::bounds::BoundedOptions;
    use crate::model::{Cmp, LpProblem};
    use crate::simplex::{solve, LpStatus};
    use abt_core::error::BudgetKind;

    /// A default `Revised` solve offering `pool` as warm-start candidates
    /// (a miss falls through to the cold solve).
    fn solve_with(lp: &LpProblem<Rat>, pool: &[BasisSnapshot]) -> LpReport {
        solve_lp(lp, &LpOptions::new().snapshots(pool)).expect("clean solve")
    }

    /// A warm-only `Revised` solve: a pool miss is `ShapeDrift`.
    fn warm_only(lp: &LpProblem<Rat>, pool: &[BasisSnapshot]) -> Result<LpReport, SolveFailure> {
        solve_lp(lp, &LpOptions::new().snapshots(pool).warm_only(true))
    }

    fn r(p: i64, q: i64) -> Rat {
        Rat::new(p as i128, q as i128)
    }

    /// A miniature LP1-shaped component: two super-slot keys with VUB
    /// families, a capacity row per run, demand rows per job. `demands`
    /// and `widths` are the data that vary between "siblings".
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
    fn cold_solve_yields_a_snapshot_and_matches_exact() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let out = solve_with(&lp, &[]);
        assert!(!out.warm_hit);
        assert!(!out.fallback);
        assert_eq!(out.solution.status, LpStatus::Optimal);
        assert_eq!(out.solution.objective, solve(&lp).objective);
        let snap = out.snapshot.expect("optimal cold solve must snapshot");
        assert_eq!(snap.basis.len(), snap.m);
        assert_eq!(snap.state.len(), snap.ncols);
    }

    #[test]
    fn warm_sibling_is_bit_identical_and_cheaper() {
        // Solve one representative cold, then a sibling (same structure,
        // different demands and widths) warm: bit-identical to its own
        // exact solve, with no more pivots than its cold solve needs.
        let rep = lp1_like([3, 2, 1], [3, 2]);
        let cold_rep = solve_with(&rep, &[]);
        let snap = cold_rep.snapshot.expect("snapshot");

        let sib = lp1_like([4, 2, 2], [4, 3]);
        let cold_sib = solve_with(&sib, &[]);
        let warm_sib = solve_with(&sib, std::slice::from_ref(&snap));
        assert!(warm_sib.warm_hit, "structural sibling must install warm");
        assert!(!warm_sib.fallback);
        assert_eq!(
            warm_sib.solution.objective,
            solve(&sib).objective,
            "warm answers must stay bit-identical to cold/exact"
        );
        assert!(
            warm_sib.stats.pivots <= cold_sib.stats.pivots,
            "warm start must not pivot more than cold ({} > {})",
            warm_sib.stats.pivots,
            cold_sib.stats.pivots
        );
        // The warm solve returns its own snapshot for further reuse.
        assert!(warm_sib.snapshot.is_some());
    }

    #[test]
    fn identical_sibling_needs_zero_pivots_warm() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let snap = solve_with(&lp, &[]).snapshot.unwrap();
        let again = solve_with(&lp, std::slice::from_ref(&snap));
        assert!(again.warm_hit);
        assert_eq!(again.stats.pivots, 0, "old optimum is still optimal");
        assert_eq!(again.solution.objective, solve(&lp).objective);
    }

    #[test]
    fn snapshot_pool_retries_candidates() {
        // The first candidate's vertex is primal-infeasible for the new
        // data (its glued values undershoot the grown demand), but a
        // second candidate from a closer sibling installs — the pool turns
        // a miss into a zero-pivot hit.
        let far = lp1_like([3, 2, 1], [3, 2]);
        let near = lp1_like([3, 2, 2], [3, 2]);
        let far_snap = solve_with(&far, &[]).snapshot.unwrap();
        let near_snap = solve_with(&near, &[]).snapshot.unwrap();
        let target = lp1_like([3, 2, 2], [3, 2]);
        let miss = solve_with(&target, std::slice::from_ref(&far_snap));
        assert!(!miss.warm_hit, "the far snapshot alone must miss");
        let pool = [far_snap, near_snap];
        let hit = solve_with(&target, &pool);
        assert!(hit.warm_hit, "the pool's second candidate must hit");
        assert_eq!(hit.stats.pivots, 0);
        assert_eq!(hit.solution.objective, solve(&target).objective);
    }

    #[test]
    fn shape_mismatch_falls_back_to_cold() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let snap = solve_with(&lp, &[]).snapshot.unwrap();
        // A structurally different problem: extra variable and row.
        let mut other: LpProblem<Rat> = LpProblem::new();
        let x = other.add_var(Rat::ONE);
        let y = other.add_var(Rat::ONE);
        other.add_constraint(vec![(x, Rat::ONE), (y, Rat::ONE)], Cmp::Ge, r(3, 1));
        let out = solve_with(&other, std::slice::from_ref(&snap));
        assert!(!out.warm_hit, "shape mismatch must not install");
        assert_eq!(out.solution.objective, r(3, 1));
    }

    #[test]
    fn infeasible_sibling_detected_through_the_cold_path() {
        // The warm basis cannot be primal-feasible for data that admits no
        // feasible point at all, so the install check fails and the cold
        // run reports the float pass's Infeasible claim as a typed failure
        // (the exact confirmation is the supervision ladder's dense rungs).
        let rep = lp1_like([3, 2, 1], [3, 2]);
        let snap = solve_with(&rep, &[]).snapshot.unwrap();
        // Demand far beyond the capped capacity g·(w0 + w1) = 2·3 = 6.
        let sib = lp1_like([40, 1, 1], [2, 1]);
        assert_eq!(
            warm_only(&sib, std::slice::from_ref(&snap)).unwrap_err(),
            SolveFailure::ShapeDrift
        );
        assert_eq!(
            solve_lp(
                &sib,
                &LpOptions::new().snapshots(std::slice::from_ref(&snap))
            )
            .unwrap_err(),
            SolveFailure::Infeasible
        );
        assert_eq!(solve(&sib).status, LpStatus::Infeasible);
    }

    #[test]
    fn failed_installs_do_not_leak_arena_buffers() {
        // Satellite: buffers checked out during a failed snapshot install
        // must be returned on the early-exit path. Warm the pool once,
        // then hammer the failing-install path and check that (a) the pool
        // never exceeds its bound and (b) no fresh allocations happen —
        // i.e. every checkout is served by a buffer that was given back.
        let rep = lp1_like([3, 2, 1], [3, 2]);
        let snap = solve_with(&rep, &[]).snapshot.unwrap();
        // Same shape, infeasible data: install reaches the primal
        // feasibility check (buffers already checked out) and bails there.
        let bad = lp1_like([40, 1, 1], [2, 1]);
        let opts = LpOptions::new().snapshots(std::slice::from_ref(&snap));
        let _ = solve_lp(&bad, &opts);
        let before = with_arena(|a| a.stats());
        for _ in 0..10 {
            assert_eq!(solve_lp(&bad, &opts).unwrap_err(), SolveFailure::Infeasible);
        }
        let after = with_arena(|a| a.stats());
        assert!(
            after.pooled_f64 <= crate::arena::MAX_POOLED
                && after.pooled_pairs <= crate::arena::MAX_POOLED,
            "pool high-water must stay bounded"
        );
        let fresh_before = before.checkouts - before.reuses;
        let fresh_after = after.checkouts - after.reuses;
        assert_eq!(
            fresh_before,
            fresh_after,
            "failed installs must recycle every checked-out buffer \
             (fresh allocations grew by {})",
            fresh_after - fresh_before
        );
    }

    #[test]
    fn try_warm_is_warm_only() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        // An empty pool is a routine miss — ShapeDrift, not a solve.
        assert_eq!(warm_only(&lp, &[]).unwrap_err(), SolveFailure::ShapeDrift);
        let snap = solve_with(&lp, &[]).snapshot.unwrap();
        let out = warm_only(&lp, std::slice::from_ref(&snap)).expect("matching snapshot must hit");
        assert!(out.warm_hit);
        assert_eq!(out.solution.objective, solve(&lp).objective);
        // A shape-mismatched pool is also just a miss.
        let mut other: LpProblem<Rat> = LpProblem::new();
        let x = other.add_var(Rat::ONE);
        other.add_constraint(vec![(x, Rat::ONE)], Cmp::Ge, r(3, 1));
        let snap2 = out.snapshot.unwrap();
        assert_eq!(
            warm_only(&other, std::slice::from_ref(&snap2)).unwrap_err(),
            SolveFailure::ShapeDrift
        );
    }

    #[test]
    fn try_cold_solves_and_snapshots() {
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let out = solve_with(&lp, &[]);
        assert!(!out.warm_hit);
        assert_eq!(out.solution.objective, solve(&lp).objective);
        let snap = out.snapshot.expect("optimal cold solve must snapshot");
        // The snapshot round-trips into a warm hit.
        let warm = warm_only(&lp, std::slice::from_ref(&snap)).expect("own snapshot must hit");
        assert!(warm.warm_hit);
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
    fn from_proposal_rejects_non_optimal() {
        let prop = BoundedBasis {
            status: BoundedStatus::Stalled,
            basis: Vec::new(),
            state: Vec::new(),
            pivots: 0,
            bound_flips: 0,
            refactorizations: 0,
        };
        assert!(BasisSnapshot::from_proposal(&prop).is_none());
    }

    #[test]
    fn snapshot_codec_roundtrip_is_identity() {
        use abt_core::persist::{Dec, Enc};
        // A real snapshot off a real solve, not a synthetic one.
        let lp = lp1_like([3, 2, 1], [3, 2]);
        let snap = solve_with(&lp, &[])
            .snapshot
            .expect("optimal solve must snapshot");
        let mut enc = Enc::new();
        snap.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = BasisSnapshot::decode(&mut dec).expect("own bytes must decode");
        dec.finish().expect("no trailing bytes");
        assert_eq!(back, snap);
        // And the decoded snapshot still warm-hits its own problem.
        let out = warm_only(&lp, std::slice::from_ref(&back)).expect("decoded snapshot must hit");
        assert!(out.warm_hit);
    }

    #[test]
    fn snapshot_decode_rejects_drift_without_panicking() {
        use abt_core::persist::{Dec, Enc, PersistError};
        let snap = BasisSnapshot {
            m: 2,
            ncols: 3,
            basis: vec![0, 2],
            state: vec![VarState::Basic, VarState::AtLower, VarState::Basic],
        };
        let mut enc = Enc::new();
        snap.encode(&mut enc);
        let bytes = enc.into_bytes();
        // Every truncation point is a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(BasisSnapshot::decode(&mut Dec::new(&bytes[..cut])).is_err());
        }
        // A basis column past ncols is malformed.
        let mut bad = bytes.clone();
        bad[16] = 9; // first basis entry: 9 ≥ ncols 3
        assert!(matches!(
            BasisSnapshot::decode(&mut Dec::new(&bad)),
            Err(PersistError::Malformed(_))
        ));
        // An unknown VarState byte is malformed.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] = 7;
        assert!(matches!(
            BasisSnapshot::decode(&mut Dec::new(&bad)),
            Err(PersistError::Malformed(_))
        ));
        // An absurd dimension field is capped before any allocation.
        let mut enc = Enc::new();
        enc.put_usize(usize::MAX / 2);
        enc.put_usize(3);
        assert!(BasisSnapshot::decode(&mut Dec::new(&enc.into_bytes())).is_err());
    }
}
