//! Exact minimum active time via branch-and-bound over event-point runs.
//!
//! The paper left the complexity of (integrally preemptive) active time
//! open; Saha and Purohit later proved it NP-complete (arXiv:2112.03255).
//! So the exact solver is a search, kept for the small instances used to
//! measure approximation ratios; the approximation algorithms are the
//! scalable path.
//!
//! # One search over event-point runs
//!
//! The search branches over **event-point runs**: the maximal groups of
//! slots between consecutive release and deadline points, the same runs
//! LP1 coalesces. Every slot of a run has the same feasible job set and
//! capacity, so all `k`-subsets of a run are interchangeable (the
//! event-point structure of Chang–Gabow–Khuller, arXiv:1208.0312). The
//! search therefore decides only *how many* slots of each run to open, and
//! checks the rightmost `k`. A run no job can use never opens, and no run
//! needs more than `P = Σ_j p_j` open slots. A branch is pruned as soon as
//! (a) it cannot beat the incumbent, or (b) even opening every undecided
//! run up to its cap is infeasible (opening slots never hurts, so this
//! prune is sound). The incumbent starts as every run at its cap, and the
//! search stops once the incumbent meets the lower bound. The tree's depth
//! is the number of runs (fewer than `2n`), not the horizon's length, so a
//! sparse instance with a huge horizon is answered like a dense one. Each
//! feasibility check lists its open slots, at most every run at its cap, so
//! an instance whose caps sum past [`MAX_HORIZON_SLOTS`] (a job longer
//! than that, say) is refused before the first check.

use crate::feasibility::{feasible_on, schedule_on};
use crate::lp_model::{slot_runs, solve_active_lp, SlotRun};
use abt_core::active_schedule::{horizon_len, MAX_HORIZON_SLOTS};
use abt_core::{active_lower_bound, ActiveSchedule, Error, Instance, Result, Time};

/// Result of an exact solve.
#[derive(Debug, Clone)]
pub struct ExactActive {
    /// Optimal active slots (the rightmost slots of each run that opens).
    pub slots: Vec<Time>,
    /// An optimal schedule.
    pub schedule: ActiveSchedule,
    /// Number of search nodes explored (for reporting).
    pub nodes: u64,
}

/// Solves the instance to optimality. Errors if infeasible.
///
/// `node_limit` bounds the search (None = unlimited); hitting it returns
/// [`Error::Unsupported`] so callers can fall back to approximations. The
/// search branches over event-point runs (see the module docs), so the
/// horizon's length alone does not grow it; a horizon whose length
/// overflows `i64` is refused with [`Error::HorizonTooLong`], and runs
/// whose caps sum past [`MAX_HORIZON_SLOTS`] slots with
/// [`Error::Unsupported`] (the checks list that many slots).
///
/// The search runs under the always-on `active.exact` span; inside it, its
/// LP1 bound runs under `active.exact.lp1` and its max-flow checks under
/// `active.flow`.
pub fn exact_active_time(inst: &Instance, node_limit: Option<u64>) -> Result<ExactActive> {
    let _span = abt_core::obs_span!("active.exact");
    horizon_len(inst.min_release(), inst.max_deadline())?;
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
    // A check lists at most every run at its cap.
    let listed: i128 = caps.iter().map(|&c| i128::from(c)).sum();
    if listed > i128::from(MAX_HORIZON_SLOTS) {
        return Err(Error::Unsupported(format!(
            "the exact search would list up to {listed} slots, past the per-slot limit of \
             {MAX_HORIZON_SLOTS}"
        )));
    }
    let mut search = Search {
        inst,
        runs,
        caps,
        best: Vec::new(),
        nodes: 0,
        limit: node_limit.unwrap_or(u64::MAX),
        lb: 0,
    };
    let full = search.materialize(&[]);
    if !feasible_on(inst, &full) {
        return Err(Error::Infeasible("no feasible schedule exists".into()));
    }
    // Lower bound: the combinatorial bound, tightened by ⌈LP1⌉ (solved on
    // the coalesced model by the certified revised simplex, so it is cheap
    // relative to the search it prunes and exact, hence sound). Skipped
    // when every run at its cap already meets the combinatorial bound.
    search.lb = active_lower_bound(inst);
    if full.len() as i64 > search.lb {
        search.lb = search.lb.max(lp1_bound(inst));
    }
    search.best = full;
    search.dfs(&mut Vec::with_capacity(search.runs.len()), 0)?;

    let schedule = schedule_on(inst, &search.best).expect("incumbent is feasible");
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

/// The branch-and-bound state: the runs, their caps, the incumbent and the
/// node count.
struct Search<'a> {
    inst: &'a Instance,
    runs: Vec<SlotRun>,
    caps: Vec<i64>,
    best: Vec<Time>,
    nodes: u64,
    limit: u64,
    lb: i64,
}

impl Search<'_> {
    /// The rightmost `counts[i]` slots of each of the first `counts.len()`
    /// runs, then the rightmost `caps[i]` slots of every later run. A run
    /// opening no slot adds no range: at `k = 0` the start `end − k + 1`
    /// would wrap past `i64::MAX` for a run that ends there.
    fn materialize(&self, counts: &[i64]) -> Vec<Time> {
        let caps = &self.caps[counts.len()..];
        self.runs
            .iter()
            .zip(counts.iter().chain(caps))
            .filter(|&(_, &k)| k > 0)
            .flat_map(|(run, &k)| run.end - k + 1..=run.end)
            .collect()
    }

    /// Explores the completions of `counts`, the open counts decided for
    /// the first `counts.len()` runs (`opened` slots in all, fewer than the
    /// incumbent's).
    fn dfs(&mut self, counts: &mut Vec<i64>, opened: i64) -> Result<()> {
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
        // With every run decided, `slots` is a candidate smaller than the
        // incumbent; otherwise it is the relaxation that opens every
        // undecided run to its cap. Either way an infeasible one ends the
        // branch (opening slots never hurts).
        let slots = self.materialize(counts);
        if !feasible_on(self.inst, &slots) {
            return Ok(());
        }
        let idx = counts.len();
        if idx == self.runs.len() {
            self.best = slots;
            return Ok(());
        }
        // Branch on the open count of run `idx`, small counts first
        // (biases towards small solutions).
        for k in 0..=self.caps[idx] {
            if opened + k >= self.best.len() as i64 {
                break; // cannot strictly improve
            }
            counts.push(k);
            self.dfs(counts, opened + k)?;
            counts.pop();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimal::{minimal_feasible, ClosingOrder};

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
        // Two jobs a million slots apart: three runs to decide.
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
    fn run_branching_respects_node_limit_and_infeasibility() {
        // The same verdicts on long, sparse horizons.
        let inf =
            Instance::from_triples([(0, 1, 1), (0, 1, 1), (1_000_000, 1_000_003, 2)], 1).unwrap();
        assert!(matches!(
            exact_active_time(&inf, None),
            Err(Error::Infeasible(_))
        ));
        let far = (0..8).map(|i| (i * 1000, i * 1000 + 6, 2));
        let inst = Instance::from_triples(far, 1).unwrap();
        match exact_active_time(&inst, Some(0)) {
            Err(Error::Unsupported(_)) => {}
            other => panic!("expected node-limit error, got {other:?}"),
        }
    }

    #[test]
    fn flexible_instance_within_a_hundred_thousand_nodes() {
        // The first 12 jobs of `abt gen flexible 5`: the run search proves
        // 31 in 1,272 nodes, where branching per slot passes 10⁶.
        let inst = Instance::from_triples(
            [
                (22, 40, 9),
                (11, 19, 4),
                (32, 36, 2),
                (15, 35, 10),
                (98, 100, 1),
                (35, 39, 2),
                (56, 64, 4),
                (37, 41, 2),
                (48, 56, 4),
                (28, 48, 10),
                (53, 73, 10),
                (3, 13, 5),
            ],
            3,
        )
        .unwrap();
        let res = exact_active_time(&inst, Some(100_000)).unwrap();
        assert_eq!(res.slots.len(), 31);
        res.schedule.validate(&inst).unwrap();
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
