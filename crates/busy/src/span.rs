//! Minimum-span placement: busy time with **unbounded `g`** (`OPT_∞`).
//!
//! The flexible-job pipeline (§4.3) first fixes every job's start time so
//! that the projection ("shadow") of the jobs onto the time axis is
//! minimal; the paper invokes Khandekar et al.'s polynomial DP for this as
//! a black box (full version, arXiv:1610.08154). We implement an exact
//! solver from first principles via a covering reduction:
//!
//! **Reduction.** With unbounded capacity, minimizing total busy time
//! equals choosing disjoint intervals of minimum total length such that
//! every job *fits* one of them, where
//! `fits(j, [u,v)) ⇔ min(d_j, v) − max(r_j, u) ≥ p_j`. (From a schedule,
//! take the busy components; conversely, place each job anywhere inside its
//! chosen interval — the union's components only shrink the cost.)
//!
//! **Canonical form.** Process intervals left to right. The unserved job
//! `j*` with the smallest `c_j = d_j − p_j` must be served by the next
//! interval (later intervals start too late), and that interval's start can
//! be pushed right to exactly `u = c_{j*}`: pushing right never increases
//! the length (`v(u) = max_j (max(r_j,u) + p_j)` grows at most as fast as
//! `u`), keeps every served job feasible while `u ≤ min c_j` over the
//! served set, and a collision with the next interval just merges them.
//! Once `u` is fixed, only the `O(n)` values `v ∈ {max(r_j,u) + p_j}` can
//! be optimal right endpoints, and an interval should serve *every* job
//! that fits it (capacity is unbounded).
//!
//! **Memo key.** The search memoizes on the unserved set alone. A state
//! also has a frontier — the right end `v` of the interval before it — but
//! the frontier is read only to reject a next start `u < v`. Every other
//! quantity (`u`, the candidate ends, the served sets, the optimum and its
//! first interval) is a function of the set. So the caller checks
//! `u ≥ v` before it recurses, and a set reached behind different
//! frontiers is solved once. Jobs are relabelled by `(c_j, j)`, which
//! makes the forced job `j*` the lowest bit of the set.

use abt_core::{Error, Instance, Interval, IntervalSet, Result, Time};
use std::collections::HashMap;

/// A placement of all jobs: chosen start times, the busy region, its cost.
#[derive(Debug, Clone)]
pub struct SpanPlacement {
    /// `starts[j]` = chosen start of job `j`.
    pub starts: Vec<Time>,
    /// The union of the placed run intervals.
    pub busy: IntervalSet,
    /// Measure of `busy` (total busy time with unbounded `g`).
    pub cost: i64,
    /// Whether the solver guarantees optimality.
    pub exact: bool,
}

const INF: i64 = i64::MAX / 4;

/// Exact minimum-span placement. Exponential worst case (memoized over
/// job subsets), so restricted to `n ≤ 127`; intended for benchmark-scale
/// instances. Use [`span_greedy`] beyond that.
pub fn span_exact(inst: &Instance) -> Result<SpanPlacement> {
    let n = inst.len();
    if n == 0 {
        return Ok(SpanPlacement {
            starts: vec![],
            busy: IntervalSet::new(),
            cost: 0,
            exact: true,
        });
    }
    if n > 127 {
        return Err(Error::Unsupported(format!(
            "span_exact supports at most 127 jobs, got {n}; use span_greedy"
        )));
    }
    // Bit `k` of a set is the job of rank `k` by `(c_j, j)`.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&j| (inst.job(j).latest_start(), j));

    struct Search {
        /// `(r, p, c)` per rank.
        jobs: Vec<(Time, Time, Time)>,
        /// Unserved set → (min cost, right end of its first interval).
        memo: HashMap<u128, (i64, Time)>,
    }
    impl Search {
        /// Start of the interval that serves `mask` first: `c` of the
        /// forced (lowest) job.
        fn start(&self, mask: u128) -> Time {
            self.jobs[mask.trailing_zeros() as usize].2
        }

        /// Rank `k`'s requirement at start `u`: the job fits `[u, v)` iff
        /// `max(r, u) + p ≤ v`.
        fn req(&self, k: usize, u: Time) -> Time {
            let (r, p, _) = self.jobs[k];
            r.max(u) + p
        }

        /// The jobs of `mask` that fit `[u, v)`.
        fn served(&self, mask: u128, u: Time, v: Time) -> u128 {
            ones(mask)
                .filter(|&k| self.req(k, u) <= v)
                .fold(0, |s, k| s | 1 << k)
        }

        /// Min cost of serving the non-empty `mask` with intervals that
        /// start at or after `start(mask)`, and the right end of the first.
        fn solve(&mut self, mask: u128) -> (i64, Time) {
            if let Some(&hit) = self.memo.get(&mask) {
                return hit;
            }
            let u = self.start(mask);
            let vmin = self.req(mask.trailing_zeros() as usize, u);
            let mut req: Vec<(Time, usize)> = ones(mask).map(|k| (self.req(k, u), k)).collect();
            req.sort_unstable();
            let mut best = (INF, 0);
            let mut served = 0u128;
            let mut i = 0;
            while i < req.len() {
                let v = req[i].0;
                while i < req.len() && req[i].0 == v {
                    served |= 1 << req[i].1;
                    i += 1;
                }
                // Jobs done before the forced one still ride along, but
                // an interval must serve the forced job.
                if v < vmin {
                    continue;
                }
                // Candidates ascend and the rest costs ≥ 0: nothing later
                // is strictly cheaper.
                if v - u >= best.0 {
                    break;
                }
                let rest = mask & !served;
                let rest_cost = if rest == 0 {
                    0
                } else if self.start(rest) < v {
                    continue; // the next interval would start inside this one
                } else {
                    self.solve(rest).0
                };
                let cost = (v - u) + rest_cost;
                if cost < best.0 {
                    best = (cost, v);
                }
            }
            self.memo.insert(mask, best);
            best
        }
    }

    let mut search = Search {
        jobs: order
            .iter()
            .map(|&j| {
                let job = inst.job(j);
                (job.release, job.length, job.latest_start())
            })
            .collect(),
        memo: HashMap::new(),
    };
    let full = (1u128 << n) - 1;
    let (cost, _) = search.solve(full);
    debug_assert!(cost < INF, "every instance is feasible with unbounded g");

    // Walk the memo to reconstruct the chosen intervals.
    let mut intervals: Vec<Interval> = Vec::new();
    let mut mask = full;
    while mask != 0 {
        let (_, v) = search.solve(mask);
        let u = search.start(mask);
        intervals.push(Interval::new(u, v));
        mask &= !search.served(mask, u, v);
    }
    let placement = place_into(inst, &intervals);
    debug_assert_eq!(
        placement.cost, cost,
        "placed union must match the covering optimum"
    );
    Ok(SpanPlacement {
        exact: true,
        ..placement
    })
}

/// The set bits of `mask`, ascending.
fn ones(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let k = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            k
        })
    })
}

/// Greedy heuristic for large instances: serve the most urgent job with a
/// minimal interval, extending while an extension is locally profitable
/// (extension cost < length of the job it absorbs).
pub fn span_greedy(inst: &Instance) -> SpanPlacement {
    let n = inst.len();
    let mut unserved: Vec<usize> = (0..n).collect();
    unserved.sort_by_key(|&j| (inst.job(j).latest_start(), j));
    let mut intervals: Vec<Interval> = Vec::new();
    let mut frontier = inst.min_release();
    // `unserved` stays sorted, so its head is the most urgent job.
    while let Some(&jmin) = unserved.first() {
        let u = inst.job(jmin).latest_start().max(frontier);
        let req = |j: usize| -> Time { inst.job(j).release.max(u) + inst.job(j).length };
        let mut v = req(jmin);
        loop {
            // Absorb any remaining job whose marginal extension is cheaper
            // than its own length (it would otherwise cost ≥ p_j later).
            let candidate = unserved
                .iter()
                .copied()
                .filter(|&j| {
                    let r = req(j);
                    r > v && inst.job(j).latest_start() >= u && r - v < inst.job(j).length
                })
                .min_by_key(|&j| req(j));
            match candidate {
                Some(j) => v = req(j),
                None => break,
            }
        }
        intervals.push(Interval::new(u, v));
        frontier = v;
        unserved.retain(|&j| !(inst.job(j).latest_start() >= u && req(j) <= v));
    }
    SpanPlacement {
        exact: false,
        ..place_into(inst, &intervals)
    }
}

/// Exact if small enough, else greedy.
pub fn span_place(inst: &Instance) -> SpanPlacement {
    let _span = abt_core::obs_span!("busy.span");
    span_exact(inst).unwrap_or_else(|_| span_greedy(inst))
}

/// Places every job leftmost inside the first chosen interval it fits,
/// returning starts and the realized busy union.
fn place_into(inst: &Instance, intervals: &[Interval]) -> SpanPlacement {
    let mut starts = vec![0; inst.len()];
    for (j, job) in inst.jobs().iter().enumerate() {
        let iv = intervals
            .iter()
            .find(|iv| job.release.max(iv.start) + job.length <= job.deadline.min(iv.end))
            .unwrap_or_else(|| panic!("job {j} fits no chosen interval"));
        starts[j] = job.release.max(iv.start);
    }
    let busy: IntervalSet = inst
        .jobs()
        .iter()
        .zip(&starts)
        .map(|(job, &s)| Interval::new(s, s + job.length))
        .collect();
    let cost = busy.measure();
    SpanPlacement {
        starts,
        busy,
        cost,
        exact: false,
    }
}

/// Brute-force optimum over all integer start combinations (testing only;
/// exponential in `n` and the horizon).
pub fn span_brute_force(inst: &Instance) -> i64 {
    fn rec(inst: &Instance, j: usize, placed: &mut Vec<Interval>, best: &mut i64) {
        if j == inst.len() {
            let m = IntervalSet::from_intervals(placed.iter().copied()).measure();
            *best = (*best).min(m);
            return;
        }
        let job = inst.job(j);
        for s in job.release..=job.latest_start() {
            placed.push(Interval::new(s, s + job.length));
            rec(inst, j + 1, placed, best);
            placed.pop();
        }
    }
    let mut best = i64::MAX;
    rec(inst, 0, &mut Vec::new(), &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validate(inst: &Instance, p: &SpanPlacement) {
        for (j, &s) in p.starts.iter().enumerate() {
            assert!(
                inst.job(j).run_at(s).is_some(),
                "job {j} start {s} infeasible"
            );
        }
        let busy: IntervalSet = inst
            .jobs()
            .iter()
            .zip(&p.starts)
            .map(|(job, &s)| Interval::new(s, s + job.length))
            .collect();
        assert_eq!(busy.measure(), p.cost);
    }

    #[test]
    fn interval_jobs_have_fixed_span() {
        let inst = Instance::from_triples([(0, 4, 4), (2, 6, 4), (10, 12, 2)], 1).unwrap();
        let p = span_exact(&inst).unwrap();
        validate(&inst, &p);
        assert_eq!(p.cost, 6 + 2);
    }

    #[test]
    fn flexible_jobs_consolidate() {
        // Two flexible unit jobs with overlapping windows stack on one point.
        let inst = Instance::from_triples([(0, 10, 2), (0, 10, 2)], 1).unwrap();
        let p = span_exact(&inst).unwrap();
        validate(&inst, &p);
        assert_eq!(p.cost, 2);
    }

    #[test]
    fn chains_pack_tight() {
        // Three length-2 jobs with staggered windows: optimal span 4 by
        // overlapping neighbours.
        let inst = Instance::from_triples([(0, 4, 2), (2, 6, 2), (4, 8, 2)], 1).unwrap();
        let p = span_exact(&inst).unwrap();
        validate(&inst, &p);
        assert_eq!(p.cost, span_brute_force(&inst));
    }

    #[test]
    fn exact_matches_brute_force_on_pseudorandom_instances() {
        let mut state = 0xABCDEFu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for trial in 0..40 {
            let n = 2 + next(4) as usize; // 2..=5 jobs
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(6) as i64;
                let len = 1 + next(4) as i64;
                let d = r + len + next(5) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples.clone(), 1).unwrap();
            let p = span_exact(&inst).unwrap();
            validate(&inst, &p);
            let bf = span_brute_force(&inst);
            assert_eq!(p.cost, bf, "trial {trial} on {triples:?}");
        }
    }

    #[test]
    fn greedy_is_feasible_and_not_better_than_exact() {
        let mut state = 0x5EEDu64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..20 {
            let n = 3 + next(5) as usize;
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(10) as i64;
                let len = 1 + next(5) as i64;
                let d = r + len + next(6) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples, 1).unwrap();
            let ge = span_greedy(&inst);
            validate(&inst, &ge);
            let ex = span_exact(&inst).unwrap();
            assert!(ge.cost >= ex.cost);
        }
    }

    #[test]
    fn empty_instance() {
        let inst = Instance::new(vec![], 2).unwrap();
        let p = span_exact(&inst).unwrap();
        assert_eq!(p.cost, 0);
    }
}
