//! Exact active time for **unit-length jobs** (the special case solved by
//! Chang, Gabow and Khuller \[2\], cited in §1 of the paper).
//!
//! For unit jobs the bipartite job/slot graph is *convex* (each job's
//! admissible slots form an interval), so by Hall's theorem a slot set `A`
//! is feasible iff for every window interval `(a, b]`:
//! `|{j : a ≤ r_j, d_j ≤ b}| ≤ g · |A ∩ (a, b]|`.
//! Minimizing `|A|` subject to these interval-demand constraints is solved
//! exactly by the classic rightmost-placement greedy: process constraints
//! by right endpoint and open the rightmost available slots of a deficient
//! interval. (Exchange argument: any solution can be pushed right without
//! breaking earlier constraints.) Cross-validated against the
//! branch-and-bound solver in tests.

use crate::feasibility::schedule_on;
use abt_core::{ActiveSchedule, Error, Instance, Result, Time};
use std::collections::BTreeSet;

/// Result of the unit-job exact algorithm.
#[derive(Debug, Clone)]
pub struct UnitExact {
    /// Optimal active slots, sorted.
    pub slots: Vec<Time>,
    /// An optimal schedule.
    pub schedule: ActiveSchedule,
}

/// Solves a unit-job instance exactly. Errors if some job has `p_j ≠ 1`, or
/// if the instance is infeasible.
pub fn exact_unit_active_time(inst: &Instance) -> Result<UnitExact> {
    if inst.jobs().iter().any(|j| j.length != 1) {
        return Err(Error::Unsupported(
            "exact_unit_active_time requires unit-length jobs".into(),
        ));
    }
    let g = i64::try_from(inst.g()).unwrap_or(i64::MAX);

    // Distinct constraint endpoints.
    let mut lefts: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
    let mut rights: Vec<Time> = inst.jobs().iter().map(|j| j.deadline).collect();
    lefts.sort_unstable();
    lefts.dedup();
    rights.sort_unstable();
    rights.dedup();

    // Constraints (a, b, demand) with demand = ⌈N(a,b)/g⌉, sorted by b asc,
    // then a desc (inner intervals first, which keeps the greedy canonical).
    let mut constraints: Vec<(Time, Time, i64)> = Vec::new();
    for &b in &rights {
        for &a in lefts.iter().rev() {
            if a >= b {
                continue;
            }
            let n = inst
                .jobs()
                .iter()
                .filter(|j| j.release >= a && j.deadline <= b)
                .count() as i64;
            if n > 0 {
                // ⌈n/g⌉ without the overflow of n + g − 1 at a huge g.
                constraints.push((a, b, (n - 1) / g + 1));
            }
        }
    }
    constraints.sort_by_key(|&(a, b, _)| (b, std::cmp::Reverse(a)));

    let mut chosen: BTreeSet<Time> = BTreeSet::new();
    for &(a, b, q) in &constraints {
        let have = chosen.range(a + 1..=b).count() as i64;
        let mut deficit = q - have;
        let mut t = b;
        while deficit > 0 && t > a {
            if chosen.insert(t) {
                deficit -= 1;
            }
            t -= 1;
        }
        if deficit > 0 {
            return Err(Error::Infeasible(format!(
                "interval ({a}, {b}] needs {q} active slots but has only {} slots",
                b - a
            )));
        }
    }

    let slots: Vec<Time> = chosen.into_iter().collect();
    let schedule = schedule_on(inst, &slots)
        .ok_or_else(|| Error::Infeasible("Hall condition violated unexpectedly".into()))?;
    Ok(UnitExact { slots, schedule })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_active_time;

    #[test]
    fn batches_unit_jobs() {
        // 4 unit jobs sharing a window, g = 2: OPT = 2.
        let inst = Instance::from_triples([(0, 5, 1); 4], 2).unwrap();
        let res = exact_unit_active_time(&inst).unwrap();
        assert_eq!(res.slots.len(), 2);
        res.schedule.validate(&inst).unwrap();
    }

    #[test]
    fn respects_disjoint_windows() {
        let inst = Instance::from_triples([(0, 1, 1), (5, 6, 1)], 4).unwrap();
        let res = exact_unit_active_time(&inst).unwrap();
        assert_eq!(res.slots, vec![1, 6]);
    }

    #[test]
    fn staircase_instance() {
        // Windows (0,2], (1,3], (2,4] with g=1: one slot per job needed; the
        // rightmost greedy shares where possible. OPT = 3 (three jobs, g=1).
        let inst = Instance::from_triples([(0, 2, 1), (1, 3, 1), (2, 4, 1)], 1).unwrap();
        let res = exact_unit_active_time(&inst).unwrap();
        assert_eq!(res.slots.len(), 3);
        // With g = 3 a single shared slot (t=2) does not fit all (job 3's
        // window is (2,4]); greedy needs 2 slots.
        let inst3 = inst.with_g(3).unwrap();
        let res3 = exact_unit_active_time(&inst3).unwrap();
        assert_eq!(res3.slots.len(), 2);
    }

    #[test]
    fn rejects_non_unit() {
        let inst = Instance::from_triples([(0, 5, 2)], 1).unwrap();
        assert!(matches!(
            exact_unit_active_time(&inst),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn detects_infeasible() {
        let inst = Instance::from_triples([(0, 1, 1), (0, 1, 1)], 1).unwrap();
        assert!(matches!(
            exact_unit_active_time(&inst),
            Err(Error::Infeasible(_))
        ));
    }

    #[test]
    fn matches_branch_and_bound_on_small_instances() {
        // Deterministic pseudo-random small unit instances.
        let mut state = 0xC0FFEEu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for trial in 0..25 {
            let n = 2 + (next(6) as usize);
            let g = 1 + (next(3) as usize);
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(8) as i64;
                let d = r + 1 + next(4) as i64;
                triples.push((r, d, 1i64));
            }
            let inst = Instance::from_triples(triples.clone(), g).unwrap();
            let greedy = exact_unit_active_time(&inst);
            let bnb = exact_active_time(&inst, Some(2_000_000));
            match (greedy, bnb) {
                (Ok(gr), Ok(ex)) => {
                    assert_eq!(
                        gr.slots.len(),
                        ex.slots.len(),
                        "trial {trial}: greedy {:?} vs exact {:?} on {triples:?} g={g}",
                        gr.slots,
                        ex.slots
                    );
                }
                (Err(Error::Infeasible(_)), Err(Error::Infeasible(_))) => {}
                (a, b) => panic!("trial {trial}: disagreement {a:?} vs {b:?}"),
            }
        }
    }
}
