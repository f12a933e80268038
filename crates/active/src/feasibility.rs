//! The flow-based feasibility oracle for the active-time model (Fig. 2).
//!
//! Given a set `A` of active slots, the instance is feasible iff the
//! max-flow on `G_feas` equals `P = Σ_j p_j`, where `G_feas` has a source
//! arc of capacity `p_j` per job, a unit arc from job `j` to every active
//! slot in its window, and an arc of capacity `g` from every active slot to
//! the sink. Integrality of max-flow turns a feasible fractional assignment
//! into an integral schedule for free.

use abt_core::active_schedule::job_feasible_in_slot;
use abt_core::{ActiveSchedule, Instance, JobId, Time};
use abt_flow::{max_flow, FlowGraph};

/// Feasibility oracle with assignment extraction.
#[derive(Debug, Clone)]
pub struct FeasibilityChecker<'a> {
    inst: &'a Instance,
}

impl<'a> FeasibilityChecker<'a> {
    /// Creates an oracle for `inst`.
    pub fn new(inst: &'a Instance) -> Self {
        FeasibilityChecker { inst }
    }

    /// Whether all jobs fit into the active slots `slots` (sorted or not).
    pub fn is_feasible(&self, slots: &[Time]) -> bool {
        self.check(slots).is_some()
    }

    /// Whether the subset `jobs` fits into `slots`.
    pub fn is_feasible_subset(&self, jobs: &[JobId], slots: &[Time]) -> bool {
        self.assign_subset(jobs, slots).is_some()
    }

    /// Tries to schedule *all* jobs into `slots`; returns the schedule on
    /// success.
    pub fn check(&self, slots: &[Time]) -> Option<ActiveSchedule> {
        let all: Vec<JobId> = (0..self.inst.len()).collect();
        let assignment = self.assign_subset(&all, slots)?;
        Some(ActiveSchedule::new(slots.iter().copied(), assignment))
    }

    /// Max units of the given jobs schedulable into `slots` (the max-flow
    /// value), plus the per-job slot assignment if everything fits.
    fn assign_subset(&self, jobs: &[JobId], slots: &[Time]) -> Option<Vec<Vec<Time>>> {
        let inst = self.inst;
        let mut sorted: Vec<Time> = slots.to_vec();
        sorted.sort_unstable();
        sorted.dedup();

        // Cheap necessary conditions before building the flow network;
        // the exact solvers probe this oracle with many infeasible slot
        // sets, and both checks reject the bulk of them in O(n log m):
        // each job needs p_j open slots inside its window, and the total
        // demand cannot exceed g units per open slot.
        let mut total = 0i64;
        for &job in jobs {
            let j = inst.job(job);
            total += j.length;
            let lo = sorted.partition_point(|&t| t <= j.release);
            let hi = sorted.partition_point(|&t| t <= j.deadline);
            if ((hi - lo) as i64) < j.length {
                return None;
            }
        }
        if total > inst.g() as i64 * sorted.len() as i64 {
            return None;
        }

        let n = jobs.len();
        let m = sorted.len();
        // Nodes: 0 = source, 1..=n jobs, n+1..=n+m slots, n+m+1 sink.
        let s = 0;
        let t = n + m + 1;
        let mut g = FlowGraph::new(n + m + 2);
        let mut demand = 0i64;
        let mut job_edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (edge id, slot idx)
        for (ji, &job) in jobs.iter().enumerate() {
            let p = inst.job(job).length;
            demand += p;
            g.add_edge(s, 1 + ji, p);
        }
        for (si, &slot) in sorted.iter().enumerate() {
            for (ji, &job) in jobs.iter().enumerate() {
                if job_feasible_in_slot(inst, job, slot) {
                    let e = g.add_edge(1 + ji, 1 + n + si, 1);
                    job_edges[ji].push((e, si));
                }
            }
            g.add_edge(1 + n + si, t, inst.g() as i64);
        }
        let f = max_flow(&mut g, s, t);
        if f.value != demand {
            return None;
        }
        // Extract integral assignment for the *whole* instance shape: rows
        // for every job id, empty for jobs outside the subset.
        let mut assignment = vec![Vec::new(); inst.len()];
        for (ji, &job) in jobs.iter().enumerate() {
            for &(e, si) in &job_edges[ji] {
                if g.flow(e) > 0 {
                    assignment[job].push(sorted[si]);
                }
            }
        }
        // Only return the rows for scheduled jobs when subset == all; callers
        // needing partial assignments use `is_feasible_subset`.
        Some(assignment)
    }
}

/// Convenience: feasibility of the whole instance on `slots`.
pub fn feasible_on(inst: &Instance, slots: &[Time]) -> bool {
    FeasibilityChecker::new(inst).is_feasible(slots)
}

/// Convenience: schedule the whole instance on `slots` if possible.
pub fn schedule_on(inst: &Instance, slots: &[Time]) -> Option<ActiveSchedule> {
    FeasibilityChecker::new(inst).check(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::active_schedule::horizon_slots;

    #[test]
    fn all_slots_feasible_when_capacity_suffices() {
        let inst = Instance::from_triples([(0, 3, 2), (0, 3, 2), (1, 4, 1)], 2).unwrap();
        let slots = horizon_slots(&inst).unwrap();
        let sched = schedule_on(&inst, &slots).expect("feasible");
        sched.validate(&inst).unwrap();
    }

    #[test]
    fn capacity_binds() {
        // Three unit jobs confined to one slot, g = 2: infeasible.
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1), (0, 1, 1)], 2).unwrap();
        assert!(!feasible_on(&inst, &[1]));
        let inst2 = inst.with_g(3).unwrap();
        assert!(feasible_on(&inst2, &[1]));
    }

    #[test]
    fn window_binds() {
        let inst = Instance::from_triples([(2, 4, 2)], 1).unwrap();
        assert!(!feasible_on(&inst, &[1, 2, 3])); // slot 4 needed
        assert!(feasible_on(&inst, &[3, 4]));
        assert!(!feasible_on(&inst, &[3])); // not enough slots
    }

    #[test]
    fn subset_feasibility() {
        let inst = Instance::from_triples([(0, 2, 2), (0, 2, 2), (4, 6, 1)], 1).unwrap();
        let chk = FeasibilityChecker::new(&inst);
        assert!(chk.is_feasible_subset(&[0], &[1, 2]));
        assert!(!chk.is_feasible_subset(&[0, 1], &[1, 2]));
        assert!(chk.is_feasible_subset(&[0, 2], &[1, 2, 5]));
    }

    #[test]
    fn extracted_schedule_is_always_valid() {
        // Paper Fig. 3-ish mix with full and non-full slots.
        let inst = Instance::from_triples([(0, 6, 3), (1, 5, 2), (2, 4, 2), (0, 2, 1)], 2).unwrap();
        let slots = horizon_slots(&inst).unwrap();
        let sched = schedule_on(&inst, &slots).unwrap();
        sched.validate(&inst).unwrap();
        assert_eq!(sched.cost(), 6);
    }

    #[test]
    fn duplicate_and_unsorted_slots_tolerated() {
        let inst = Instance::from_triples([(0, 3, 2)], 1).unwrap();
        let sched = schedule_on(&inst, &[3, 1, 3, 2, 1]).unwrap();
        sched.validate(&inst).unwrap();
    }
}
