//! Exact minimum active time via branch-and-bound.
//!
//! The complexity of the (integrally preemptive) active-time problem is
//! open — the paper conjectures NP-hardness — so the exact solver is a
//! search: decide each horizon slot open/closed, pruning a branch as soon
//! as (a) it cannot beat the incumbent, or (b) even opening every
//! undecided slot is infeasible (closing is monotone, so this prune is
//! sound). Intended for the small instances used to measure approximation
//! ratios; the approximation algorithms are the scalable path.
//!
//! # Huge sparse horizons: event-point-run branching
//!
//! The per-slot search branches once per horizon slot, so a sparse
//! instance with a huge horizon (two small jobs a million slots apart)
//! used to hang even though its coalesced LP solves in milliseconds. Past
//! [`RUN_BRANCH_SLOT_LIMIT`] slots the solver switches to branching over
//! **event-point runs** — the same maximal identical-window slot groups
//! LP1 coalesces. Within a run every slot has the same feasible job set
//! and capacity, so all `k`-subsets of a run are interchangeable: the
//! search decides only *how many* slots of each run to open (materializing
//! the rightmost `k` for feasibility probes), and no run ever needs more
//! than `P = Σ_j p_j` open slots. The search tree depth drops from the
//! horizon length to the number of runs (≤ `2n + 1`).

use crate::feasibility::FeasibilityChecker;
use crate::lp_model::{slot_runs, solve_active_lp, SlotRun};
use crate::minimal::{minimal_feasible, ClosingOrder};
use abt_core::active_schedule::{horizon_len, horizon_slots};
use abt_core::{active_lower_bound, ActiveSchedule, Error, Instance, Result, Time};

/// Horizon length (in slots) beyond which the per-slot branch-and-bound
/// hands over to event-point-run branching.
pub const RUN_BRANCH_SLOT_LIMIT: i64 = 2048;

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactActive {
    /// Optimal active slots.
    pub slots: Vec<Time>,
    /// An optimal schedule.
    pub schedule: ActiveSchedule,
    /// Number of search nodes explored (for reporting).
    pub nodes: u64,
}

/// Solves the instance to optimality. Errors if infeasible.
///
/// `node_limit` bounds the search (None = unlimited); hitting it returns
/// [`Error::Unsupported`] so callers can fall back to approximations.
/// Horizons longer than [`RUN_BRANCH_SLOT_LIMIT`] slots are solved by
/// event-point-run branching (see the module docs) instead of per-slot
/// branching, so sparse instances with huge horizons terminate; a horizon
/// whose length overflows `i64` is refused with [`Error::HorizonTooLong`].
///
/// The search runs under the always-on `active.exact` span; inside it, its
/// LP1 bound runs under `active.exact.lp1` and its max-flow checks under
/// `active.flow`.
pub fn exact_active_time(inst: &Instance, node_limit: Option<u64>) -> Result<ExactActive> {
    let _span = abt_core::obs_span!("active.exact");
    if !inst.is_empty()
        && horizon_len(inst.min_release(), inst.max_deadline())? > RUN_BRANCH_SLOT_LIMIT
    {
        return exact_over_runs(inst, node_limit);
    }
    let checker = FeasibilityChecker::new(inst);
    let all = horizon_slots(inst)?;
    if !checker.is_feasible(&all) {
        return Err(Error::Infeasible("no feasible schedule exists".into()));
    }
    // Warm start: the best minimal feasible solution over a few orders.
    let mut best: Vec<Time> = all.clone();
    for order in [
        ClosingOrder::RightToLeft,
        ClosingOrder::LeftToRight,
        ClosingOrder::OutsideIn,
    ] {
        if let Ok(res) = minimal_feasible(inst, order) {
            if res.slots.len() < best.len() {
                best = res.slots;
            }
        }
    }
    // Lower bound: the combinatorial bound, tightened by ⌈LP1⌉ (solved on
    // the coalesced model by the certified revised simplex, so it is cheap
    // relative to the search it prunes and exact, hence sound). Skipped
    // when the warm start already matches the combinatorial bound and the
    // LP could prove nothing new.
    let mut lb = active_lower_bound(inst);
    if best.len() as i64 > lb {
        lb = lb.max(lp1_bound(inst));
    }

    struct Search<'a> {
        checker: FeasibilityChecker<'a>,
        all: Vec<Time>,
        best: Vec<Time>,
        nodes: u64,
        limit: u64,
        lb: i64,
    }
    impl Search<'_> {
        /// `open`: decided-open slots; `idx`: next undecided position.
        fn dfs(&mut self, open: &mut Vec<Time>, idx: usize) -> Result<()> {
            self.nodes += 1;
            if self.nodes > self.limit {
                return Err(Error::Unsupported(format!(
                    "exact active-time search exceeded {} nodes",
                    self.limit
                )));
            }
            if open.len() >= self.best.len() {
                return Ok(()); // cannot strictly improve
            }
            if (self.best.len() as i64) == self.lb {
                return Ok(()); // incumbent provably optimal
            }
            if idx == self.all.len() {
                if self.checker.is_feasible(open) {
                    self.best = open.clone();
                }
                return Ok(());
            }
            // Candidate relaxation: open ∪ undecided suffix.
            let mut relaxed: Vec<Time> = open.clone();
            relaxed.extend_from_slice(&self.all[idx..]);
            if !self.checker.is_feasible(&relaxed) {
                return Ok(()); // monotone prune
            }
            // Branch: close slot idx first (biases towards small solutions).
            self.dfs(open, idx + 1)?;
            open.push(self.all[idx]);
            self.dfs(open, idx + 1)?;
            open.pop();
            Ok(())
        }
    }

    let mut search = Search {
        checker,
        all,
        best,
        nodes: 0,
        limit: node_limit.unwrap_or(u64::MAX),
        lb,
    };
    let mut open = Vec::new();
    search.dfs(&mut open, 0)?;

    let schedule = FeasibilityChecker::new(inst)
        .check(&search.best)
        .expect("incumbent is feasible");
    Ok(ExactActive {
        slots: search.best,
        schedule,
        nodes: search.nodes,
    })
}

/// `⌈LP1⌉` (0 if the solve fails), under the `active.exact.lp1` span.
fn lp1_bound(inst: &Instance) -> i64 {
    let _span = abt_core::obs_span!("active.exact.lp1");
    solve_active_lp(inst).map_or(0, |lp| lp.objective.ceil() as i64)
}

/// Branch-and-bound over event-point runs: decides, per run, how many of
/// its slots to open (rightmost-`k` materialization — all equal-size
/// subsets of a run are interchangeable, see the module docs).
fn exact_over_runs(inst: &Instance, node_limit: Option<u64>) -> Result<ExactActive> {
    let checker = FeasibilityChecker::new(inst);
    let runs = slot_runs(inst);
    let p_total = inst.total_length();
    // Per-run cap: a run no job can use never opens; otherwise no schedule
    // needs more than P = Σ p_j slots anywhere, in particular per run.
    let caps: Vec<i64> = runs
        .iter()
        .map(|run| {
            let usable = inst
                .jobs()
                .iter()
                .any(|j| j.release <= run.start && run.end <= j.deadline);
            if usable {
                run.width().min(p_total)
            } else {
                0
            }
        })
        .collect();

    struct RunSearch<'a> {
        checker: FeasibilityChecker<'a>,
        runs: Vec<SlotRun>,
        caps: Vec<i64>,
        best: Vec<Time>,
        nodes: u64,
        limit: u64,
        lb: i64,
    }
    impl RunSearch<'_> {
        /// The rightmost `counts[i]` slots of every run.
        fn materialize(&self, counts: &[i64]) -> Vec<Time> {
            let mut slots = Vec::new();
            for (run, &k) in self.runs.iter().zip(counts) {
                slots.extend((run.end - k + 1)..=run.end);
            }
            slots
        }

        /// `counts[..idx]` are decided; the rest are at their caps.
        fn dfs(&mut self, counts: &mut Vec<i64>, idx: usize, opened: i64) -> Result<()> {
            self.nodes += 1;
            if self.nodes > self.limit {
                return Err(Error::Unsupported(format!(
                    "exact active-time search exceeded {} nodes",
                    self.limit
                )));
            }
            if (self.best.len() as i64) == self.lb {
                return Ok(()); // incumbent provably optimal
            }
            if idx == self.runs.len() {
                let slots = self.materialize(counts);
                if slots.len() < self.best.len() && self.checker.is_feasible(&slots) {
                    self.best = slots;
                }
                return Ok(());
            }
            // Monotone prune: even the cap-relaxation of the undecided
            // suffix cannot be completed to a feasible solution.
            let mut relaxed = counts.clone();
            relaxed.truncate(idx);
            relaxed.extend_from_slice(&self.caps[idx..]);
            if !self.checker.is_feasible(&self.materialize(&relaxed)) {
                return Ok(());
            }
            // Branch on the open count of run `idx`, small counts first
            // (biases towards small solutions, like closing-first above).
            for k in 0..=self.caps[idx] {
                if opened + k >= self.best.len() as i64 {
                    break; // cannot strictly improve
                }
                counts.push(k);
                self.dfs(counts, idx + 1, opened + k)?;
                counts.pop();
            }
            Ok(())
        }
    }

    let mut search = RunSearch {
        checker,
        runs,
        caps: caps.clone(),
        best: Vec::new(),
        nodes: 0,
        limit: node_limit.unwrap_or(u64::MAX),
        lb: 0,
    };
    let full = search.materialize(&caps);
    if !search.checker.is_feasible(&full) {
        return Err(Error::Infeasible("no feasible schedule exists".into()));
    }
    search.best = full;
    let mut lb = active_lower_bound(inst);
    if search.best.len() as i64 > lb {
        lb = lb.max(lp1_bound(inst));
    }
    search.lb = lb;
    let mut counts = Vec::with_capacity(search.runs.len());
    search.dfs(&mut counts, 0, 0)?;

    let schedule = FeasibilityChecker::new(inst)
        .check(&search.best)
        .expect("incumbent is feasible");
    Ok(ExactActive {
        slots: search.best,
        schedule,
        nodes: search.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_job() {
        let inst = Instance::from_triples([(0, 10, 4)], 1).unwrap();
        let res = exact_active_time(&inst, None).unwrap();
        assert_eq!(res.slots.len(), 4);
        res.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn sharing_pays() {
        // Two jobs of length 2 with overlapping windows, g=2: OPT = 2.
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap();
        let res = exact_active_time(&inst, None).unwrap();
        assert_eq!(res.slots.len(), 2);
    }

    #[test]
    fn capacity_forces_spread() {
        // Same but g=1: OPT = 4.
        let inst = Instance::from_triples([(0, 4, 2), (1, 3, 2)], 1).unwrap();
        let res = exact_active_time(&inst, None).unwrap();
        assert_eq!(res.slots.len(), 4);
    }

    #[test]
    fn matches_lower_bound_on_packed_instance() {
        // g jobs of length L in a window of exactly L slots: OPT = L.
        let inst = Instance::from_triples([(0, 5, 5), (0, 5, 5), (0, 5, 5)], 3).unwrap();
        let res = exact_active_time(&inst, None).unwrap();
        assert_eq!(res.slots.len(), 5);
    }

    #[test]
    fn infeasible_errors() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(
            exact_active_time(&inst, None),
            Err(Error::Infeasible(_))
        ));
    }

    #[test]
    fn node_limit_respected() {
        let inst = Instance::from_triples((0..8).map(|i| (i, i + 6, 2)), 2).unwrap();
        match exact_active_time(&inst, Some(0)) {
            Err(Error::Unsupported(_)) => {}
            other => panic!("expected node-limit error, got {other:?}"),
        }
    }

    #[test]
    fn sparse_huge_horizon_terminates() {
        // Regression: two jobs a million slots apart used to hang the
        // per-slot search; the run-branching path solves it instantly.
        let inst = Instance::from_triples([(0, 3, 2), (1_000_000, 1_000_003, 2)], 1).unwrap();
        let res = exact_active_time(&inst, Some(100_000)).unwrap();
        assert_eq!(res.slots.len(), 4);
        res.schedule.validate(&inst).unwrap();

        // Sharing across the gap endpoints still works with g = 2.
        let inst2 = inst.with_g(2).unwrap();
        let res2 = exact_active_time(&inst2, Some(100_000)).unwrap();
        assert_eq!(res2.slots.len(), 4); // windows are disjoint: no sharing
        res2.schedule.validate(&inst2).unwrap();
    }

    #[test]
    fn run_branching_matches_per_slot_on_small_instances() {
        let cases = [
            Instance::from_triples([(0, 4, 2), (1, 3, 2)], 2).unwrap(),
            Instance::from_triples([(0, 4, 2), (1, 3, 2)], 1).unwrap(),
            Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1), (3, 8, 2)], 2)
                .unwrap(),
            Instance::from_triples([(0, 5, 5), (0, 5, 5), (0, 5, 5)], 3).unwrap(),
            Instance::from_triples([(0, 10, 4)], 1).unwrap(),
        ];
        for inst in &cases {
            let per_slot = exact_active_time(inst, None).unwrap();
            let over_runs = exact_over_runs(inst, None).unwrap();
            assert_eq!(per_slot.slots.len(), over_runs.slots.len(), "{inst:?}");
            over_runs.schedule.validate(inst).unwrap();
        }
    }

    #[test]
    fn run_branching_respects_node_limit_and_infeasibility() {
        let inf = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(
            exact_over_runs(&inf, None),
            Err(Error::Infeasible(_))
        ));
        let inst = Instance::from_triples((0..8).map(|i| (i, i + 6, 2)), 2).unwrap();
        match exact_over_runs(&inst, Some(0)) {
            Err(Error::Unsupported(_)) => {}
            other => panic!("expected node-limit error, got {other:?}"),
        }
    }

    #[test]
    fn exact_beats_or_ties_minimal() {
        let inst =
            Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1), (3, 8, 2)], 2)
                .unwrap();
        let exact = exact_active_time(&inst, None).unwrap();
        for order in [ClosingOrder::LeftToRight, ClosingOrder::RightToLeft] {
            let min = minimal_feasible(&inst, order).unwrap();
            assert!(exact.slots.len() <= min.slots.len());
        }
        exact.schedule.validate(&inst).unwrap();
    }
}
