//! The resource-allocation **maximization dual** of busy time (Mertzios et
//! al. \[12\], discussed in §1.3): given interval jobs, capacity `g`, and a
//! busy-time **budget** `T`, schedule as many jobs as possible on machines
//! whose cumulative busy time stays within `T`.
//!
//! Mertzios et al. show the maximization version is NP-hard whenever the
//! minimization version is and give constant-factor algorithms for special
//! classes. We provide the natural greedy (shortest jobs first, admitted
//! only if the marginal busy-time cost fits the remaining budget) plus an
//! exact branch-and-bound reference for ratio measurements.

use crate::exact::peak_with;
use abt_core::{Error, Instance, IntervalSet, JobId, Result};

/// A budgeted schedule: the accepted jobs per machine.
#[derive(Debug, Clone, Default)]
pub struct BudgetedSchedule {
    /// `machines[m]` = accepted job ids on machine `m`.
    pub machines: Vec<Vec<JobId>>,
}

impl BudgetedSchedule {
    /// Number of accepted jobs.
    pub fn accepted(&self) -> usize {
        self.machines.iter().map(Vec::len).sum()
    }

    /// Total busy time used.
    pub fn busy_time(&self, inst: &Instance) -> i64 {
        self.machines
            .iter()
            .map(|ids| {
                IntervalSet::from_intervals(ids.iter().map(|&j| inst.job(j).window())).measure()
            })
            .sum()
    }

    /// Validates capacity, uniqueness, and the budget.
    pub fn validate(&self, inst: &Instance, budget: i64) -> Result<()> {
        let mut seen = vec![false; inst.len()];
        for (m, ids) in self.machines.iter().enumerate() {
            let mut events: Vec<(i64, i32)> = Vec::new();
            for &j in ids {
                if seen[j] {
                    return Err(Error::InvalidSchedule(format!("job {j} accepted twice")));
                }
                seen[j] = true;
                let w = inst.job(j).window();
                events.push((w.start, 1));
                events.push((w.end, -1));
            }
            events.sort_unstable();
            let mut cur = 0i32;
            for (_, d) in events {
                cur += d;
                if cur as usize > inst.g() {
                    return Err(Error::InvalidSchedule(format!(
                        "machine {m} exceeds capacity {}",
                        inst.g()
                    )));
                }
            }
        }
        if self.busy_time(inst) > budget {
            return Err(Error::InvalidSchedule(format!(
                "busy time {} exceeds budget {budget}",
                self.busy_time(inst)
            )));
        }
        Ok(())
    }
}

/// Greedy throughput maximization: consider jobs shortest-first; accept a
/// job on the machine where its *marginal* busy-time increase is smallest,
/// provided the budget still holds (opening a new machine costs the job's
/// full length).
pub fn budgeted_greedy(inst: &Instance, budget: i64) -> Result<BudgetedSchedule> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "budgeted_greedy requires interval jobs".into(),
        ));
    }
    let mut ids: Vec<JobId> = (0..inst.len()).collect();
    ids.sort_by_key(|&j| (inst.job(j).length, inst.job(j).release, j));

    let mut machines: Vec<Vec<JobId>> = Vec::new();
    let mut busy_sets: Vec<IntervalSet> = Vec::new();
    let mut used = 0i64;
    for j in ids {
        let iv = inst.job(j).window();
        // Best (machine, marginal cost) among machines with spare capacity.
        let mut best: Option<(usize, i64)> = None;
        for (m, ids_m) in machines.iter().enumerate() {
            let overlap = ids_m
                .iter()
                .filter(|&&o| inst.job(o).window().overlaps(&iv))
                .count();
            // Below `g` overlapping members the job fits (see
            // `exact_busy_time`).
            if overlap >= inst.g() && peak_with(inst, ids_m, j) > inst.g() {
                continue;
            }
            let before = busy_sets[m].measure();
            let mut with = busy_sets[m].clone();
            with.insert(iv);
            let marginal = with.measure() - before;
            if best.is_none_or(|(_, b)| marginal < b) {
                best = Some((m, marginal));
            }
        }
        let (target, marginal) = match best {
            Some((m, c)) if c <= iv.len() => (Some(m), c),
            _ => (None, iv.len()),
        };
        if used + marginal > budget {
            continue; // reject: over budget
        }
        used += marginal;
        match target {
            Some(m) => {
                machines[m].push(j);
                busy_sets[m].insert(iv);
            }
            None => {
                machines.push(vec![j]);
                let mut s = IntervalSet::new();
                s.insert(iv);
                busy_sets.push(s);
            }
        }
    }
    Ok(BudgetedSchedule { machines })
}

/// Exact maximum throughput within the budget via branch and bound over
/// accept/reject + machine choice. For ratio measurements on small
/// instances only.
pub fn budgeted_exact(inst: &Instance, budget: i64, node_limit: u64) -> Result<usize> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "budgeted_exact requires interval jobs".into(),
        ));
    }
    struct Search<'a> {
        inst: &'a Instance,
        budget: i64,
        best: usize,
        nodes: u64,
        limit: u64,
    }
    impl Search<'_> {
        fn dfs(
            &mut self,
            j: usize,
            accepted: usize,
            used: i64,
            machines: &mut Vec<Vec<JobId>>,
            sets: &mut Vec<IntervalSet>,
        ) -> Result<()> {
            self.nodes += 1;
            if self.nodes > self.limit {
                return Err(Error::Unsupported(
                    "budgeted_exact node limit exceeded".into(),
                ));
            }
            if j == self.inst.len() {
                self.best = self.best.max(accepted);
                return Ok(());
            }
            // Bound: even accepting everything remaining cannot beat best.
            if accepted + (self.inst.len() - j) <= self.best {
                return Ok(());
            }
            let iv = self.inst.job(j).window();
            // Reject branch.
            self.dfs(j + 1, accepted, used, machines, sets)?;
            // Accept on each machine (or a new one).
            let mut tried_empty = false;
            for m in 0..=machines.len() {
                if m == machines.len() {
                    if tried_empty {
                        break;
                    }
                    machines.push(Vec::new());
                    sets.push(IntervalSet::new());
                }
                if machines[m].is_empty() {
                    if tried_empty {
                        continue;
                    }
                    tried_empty = true;
                }
                if peak_with(self.inst, &machines[m], j) > self.inst.g() {
                    continue;
                }
                let before = sets[m].measure();
                let saved = sets[m].clone();
                sets[m].insert(iv);
                let marginal = sets[m].measure() - before;
                if used + marginal <= self.budget {
                    machines[m].push(j);
                    self.dfs(j + 1, accepted + 1, used + marginal, machines, sets)?;
                    machines[m].pop();
                }
                sets[m] = saved;
                if machines[m].is_empty() && m == machines.len() - 1 {
                    machines.pop();
                    sets.pop();
                }
            }
            Ok(())
        }
    }
    let mut search = Search {
        inst,
        budget,
        best: 0,
        nodes: 0,
        limit: node_limit,
    };
    search.dfs(0, 0, 0, &mut Vec::new(), &mut Vec::new())?;
    Ok(search.best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::Job;

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    #[test]
    fn zero_budget_accepts_nothing() {
        let inst = interval_inst(&[(0, 3), (1, 4)], 2);
        let s = budgeted_greedy(&inst, 0).unwrap();
        s.validate(&inst, 0).unwrap();
        assert_eq!(s.accepted(), 0);
    }

    #[test]
    fn ample_budget_accepts_everything() {
        let inst = interval_inst(&[(0, 3), (1, 4), (5, 8)], 2);
        let s = budgeted_greedy(&inst, 100).unwrap();
        s.validate(&inst, 100).unwrap();
        assert_eq!(s.accepted(), 3);
    }

    #[test]
    fn greedy_prefers_cheap_marginals() {
        // Budget 4: the overlapping pair shares one machine (span 4) and
        // both fit; the far job would cost 3 more.
        let inst = interval_inst(&[(0, 4), (1, 4), (10, 13)], 2);
        let s = budgeted_greedy(&inst, 4).unwrap();
        s.validate(&inst, 4).unwrap();
        assert_eq!(s.accepted(), 2);
    }

    #[test]
    fn exact_dominates_greedy_on_pseudorandom() {
        let mut state = 0xB0B0u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..15 {
            let n = 3 + next(5) as usize;
            let g = 1 + next(3) as usize;
            let mut ivs = Vec::new();
            for _ in 0..n {
                let r = next(10) as i64;
                ivs.push((r, r + 1 + next(5) as i64));
            }
            let inst = interval_inst(&ivs, g);
            let budget = 1 + next(15) as i64;
            let greedy = budgeted_greedy(&inst, budget).unwrap();
            greedy.validate(&inst, budget).unwrap();
            let exact = budgeted_exact(&inst, budget, 10_000_000).unwrap();
            assert!(greedy.accepted() <= exact, "greedy cannot beat exact");
        }
    }

    #[test]
    fn budget_violation_detected_by_validator() {
        let inst = interval_inst(&[(0, 5), (6, 9)], 1);
        let s = BudgetedSchedule {
            machines: vec![vec![0], vec![1]],
        };
        assert!(s.validate(&inst, 7).is_err());
        s.validate(&inst, 8).unwrap();
    }

    #[test]
    fn rejects_flexible() {
        let inst = Instance::from_triples([(0, 9, 2)], 1).unwrap();
        assert!(budgeted_greedy(&inst, 5).is_err());
        assert!(budgeted_exact(&inst, 5, 1000).is_err());
    }
}
