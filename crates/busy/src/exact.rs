//! Exact busy time for interval jobs via branch-and-bound, used to measure
//! the approximation ratios the paper proves (the problem is NP-hard even
//! for `g = 2` [Winkler–Zhang], so this is for benchmark-scale instances).

use abt_core::{busy_lower_bounds, BusySchedule, Error, Instance, IntervalSet, JobId, Result};

/// Result of the exact busy-time solve.
#[derive(Debug, Clone)]
pub struct ExactBusy {
    /// An optimal schedule.
    pub schedule: BusySchedule,
    /// Its cost.
    pub cost: i64,
    /// Search nodes explored.
    pub nodes: u64,
}

/// Exact minimum busy time for an interval instance. Branch and bound over
/// "assign job to an existing bundle or open one new bundle", jobs in
/// non-increasing length order (strong symmetry breaking: only the first
/// empty bundle is tried).
pub fn exact_busy_time(inst: &Instance, node_limit: Option<u64>) -> Result<ExactBusy> {
    if !inst.is_interval_instance() {
        return Err(Error::Unsupported(
            "exact_busy_time requires interval jobs".into(),
        ));
    }
    let order = inst.ids_by_length_desc();
    let g = inst.g();
    let lb = busy_lower_bounds(inst).best();

    // Incumbent: each job on its own machine.
    let mut best_parts: Vec<Vec<JobId>> = order.iter().map(|&j| vec![j]).collect();
    let mut best_cost: i64 = inst.jobs().iter().map(|j| j.length).sum();

    struct Node {
        parts: Vec<Vec<JobId>>,
        sets: Vec<IntervalSet>,
        cost: i64,
    }
    struct Search<'a> {
        inst: &'a Instance,
        order: &'a [JobId],
        g: usize,
        lb: i64,
        best_cost: i64,
        best_parts: Vec<Vec<JobId>>,
        nodes: u64,
        limit: u64,
    }
    impl Search<'_> {
        fn dfs(&mut self, state: &mut Node, idx: usize) -> Result<()> {
            self.nodes += 1;
            if self.nodes > self.limit {
                return Err(Error::Unsupported(format!(
                    "exact busy-time search exceeded {} nodes",
                    self.limit
                )));
            }
            if state.cost >= self.best_cost || self.best_cost == self.lb {
                return Ok(());
            }
            if idx == self.order.len() {
                self.best_cost = state.cost;
                self.best_parts = state.parts.clone();
                return Ok(());
            }
            let job = self.order[idx];
            let iv = self.inst.job(job).window();
            let mut tried_empty = false;
            for b in 0..=state.parts.len() {
                if b == state.parts.len() {
                    if tried_empty {
                        break;
                    }
                    state.parts.push(Vec::new());
                    state.sets.push(IntervalSet::new());
                }
                if state.parts[b].is_empty() {
                    if tried_empty {
                        continue;
                    }
                    tried_empty = true;
                }
                // Capacity check within iv.
                let overlap = state.parts[b]
                    .iter()
                    .filter(|&&j2| self.inst.job(j2).window().overlaps(&iv))
                    .count();
                // The bundle's peak is at most `g`, so below `g`
                // overlapping members the job fits; only then is the
                // exact peak needed.
                if overlap >= self.g && peak_with(self.inst, &state.parts[b], job) > self.g {
                    continue;
                }
                let before = state.sets[b].measure();
                let saved_set = state.sets[b].clone();
                state.sets[b].insert(iv);
                let delta = state.sets[b].measure() - before;
                state.parts[b].push(job);
                state.cost += delta;
                self.dfs(state, idx + 1)?;
                state.cost -= delta;
                state.parts[b].pop();
                state.sets[b] = saved_set;
                if state.parts[b].is_empty() && b == state.parts.len() - 1 {
                    state.parts.pop();
                    state.sets.pop();
                }
            }
            Ok(())
        }
    }

    // Trivial case: nothing to schedule.
    if inst.is_empty() {
        return Ok(ExactBusy {
            schedule: BusySchedule::new(),
            cost: 0,
            nodes: 0,
        });
    }

    let mut search = Search {
        inst,
        order: &order,
        g,
        lb,
        best_cost,
        best_parts: best_parts.clone(),
        nodes: 0,
        limit: node_limit.unwrap_or(u64::MAX),
    };
    let mut state = Node {
        parts: Vec::new(),
        sets: Vec::new(),
        cost: 0,
    };
    search.dfs(&mut state, 0)?;
    best_cost = search.best_cost;
    best_parts = search.best_parts;

    let schedule = BusySchedule::from_interval_partition(inst, best_parts);
    debug_assert_eq!(schedule.total_busy_time(inst), best_cost);
    Ok(ExactBusy {
        schedule,
        cost: best_cost,
        nodes: search.nodes,
    })
}

/// The most windows of `bundle` plus `extra` live at one time: the peak
/// load of an interval bundle after adding `extra`.
pub(crate) fn peak_with(inst: &Instance, bundle: &[JobId], extra: JobId) -> usize {
    let mut events: Vec<(i64, i32)> = Vec::new();
    for &j in bundle.iter().chain(std::iter::once(&extra)) {
        let w = inst.job(j).window();
        events.push((w.start, 1));
        events.push((w.end, -1));
    }
    events.sort_unstable();
    let mut cur = 0i32;
    let mut peak = 0i32;
    for (_, d) in events {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_tracking::greedy_tracking;
    use abt_core::Job;

    fn interval_inst(ivs: &[(i64, i64)], g: usize) -> Instance {
        Instance::new(ivs.iter().map(|&(a, b)| Job::interval(a, b)).collect(), g).unwrap()
    }

    #[test]
    fn figure1_optimum() {
        // Fig. 1: 7 interval jobs, g = 3, optimal = 2 machines. Using the
        // figure's visual layout: one machine takes the long job with two
        // staggered rows, the other the rest.
        let ivs = [(0, 8), (0, 3), (2, 5), (5, 8), (0, 4), (3, 6), (5, 9)];
        let inst = interval_inst(&ivs, 3);
        let res = exact_busy_time(&inst, None).unwrap();
        res.schedule.validate(&inst).unwrap();
        assert!(res.cost <= 17);
        assert!(res.cost >= busy_lower_bounds(&inst).best());
        // Exact is no worse than GreedyTracking.
        let gt = greedy_tracking(&inst).unwrap().total_busy_time(&inst);
        assert!(res.cost <= gt);
    }

    #[test]
    fn figure1_search_visits_a_pinned_number_of_nodes() {
        // The search order is deterministic: a change that moves it shows
        // here before it shows in a benchmark.
        let ivs = [(0, 8), (0, 3), (2, 5), (5, 8), (0, 4), (3, 6), (5, 9)];
        let res = exact_busy_time(&interval_inst(&ivs, 3), None).unwrap();
        assert_eq!((res.cost, res.nodes), (13, 30));
    }

    #[test]
    fn identical_jobs_need_ceil_n_over_g_machines() {
        let inst = interval_inst(&[(0, 5); 7], 3);
        let res = exact_busy_time(&inst, None).unwrap();
        assert_eq!(res.cost, 15); // ⌈7/3⌉ = 3 machines × 5
    }

    #[test]
    fn disjoint_jobs_share_one_machine() {
        let inst = interval_inst(&[(0, 2), (3, 5), (6, 9)], 1);
        let res = exact_busy_time(&inst, None).unwrap();
        // Disjoint jobs cost the same on one machine or three; only the
        // total busy time is determined.
        assert_eq!(res.cost, 7);
    }

    #[test]
    fn node_limit() {
        let inst = interval_inst(&[(0, 3), (1, 4), (2, 5), (3, 6), (4, 7), (5, 8)], 2);
        assert!(matches!(
            exact_busy_time(&inst, Some(0)),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn exact_at_most_heuristics_on_pseudorandom() {
        let mut state = 0xACE5u64;
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
                let len = 1 + next(5) as i64;
                ivs.push((r, r + len));
            }
            let inst = interval_inst(&ivs, g);
            let res = exact_busy_time(&inst, Some(5_000_000)).unwrap();
            res.schedule.validate(&inst).unwrap();
            assert!(res.cost >= busy_lower_bounds(&inst).best());
            let gt = greedy_tracking(&inst).unwrap().total_busy_time(&inst);
            assert!(res.cost <= gt);
        }
    }
}
