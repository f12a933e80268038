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
//! **Memo.** The search memoizes on the unserved set alone. A state
//! also has a frontier — the right end `v` of the interval before it — but
//! the frontier is read only to reject a next start `u < v`. Every other
//! quantity (`u`, the candidate ends, the served sets, the optimum and its
//! first interval) is a function of the set. So the caller checks
//! `u ≥ v` before it recurses, and a set reached behind different
//! frontiers is solved once. Jobs are relabelled by `(c_j, j)`, which
//! makes the forced job `j*` the lowest bit of the set. The sets the
//! search reaches are near-suffixes of that order — one to three per
//! lowest rank on the benchmark's instances — so the memo is a short list
//! per lowest rank, scanned by whole-set comparison.
//!
//! **Sweep.** Three prefix masks per instance answer "which jobs" with
//! one binary search each: jobs with `r + p ≤ t`, jobs with `r < t`, and
//! jobs with `p ≤ q`. In a state with start `u`, let `A` be the jobs of
//! the set released at or after `u` and `B` those released before it; a
//! right end `v` serves `(A ∩ {r + p ≤ v}) ∪ (B ∩ {p ≤ v − u})`, a few
//! word operations. The search walks `v` upward from the forced job's
//! deadline over the merged `r + p` and `u + p` keys, skips every `v`
//! whose served set has not changed, and stops at the first `v` with
//! `v − u ≥` the best cost so far (the rest costs ≥ 0).
//!
//! The skip keeps the smallest optimal right end. A served set changes
//! exactly at a requirement `max(r_j, u) + p_j` of a job of the set, so
//! the ends where it changes are the candidate ends, ascending. An unchanged
//! set at a larger `v` leaves the same rest: its cost is strictly higher
//! than at the end where the set last changed, and if that end was
//! skipped because the rest's start lay inside the interval, so is this
//! one. A candidate replaces the best only when strictly cheaper, so among
//! equal costs the first — smallest — end wins.

use abt_core::{Error, Instance, Interval, IntervalSet, Job, Result, Time};

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
    let ranked: Vec<Job> = order.iter().map(|&j| *inst.job(j)).collect();
    let mut search = Search::new(&ranked);
    let full = (1u128 << n) - 1;
    let (cost, _) = search.solve(full);

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

/// The ranks ordered by one key: `masks[i]` holds the ranks whose key is
/// among the `i` smallest distinct `keys`.
struct Prefix {
    keys: Vec<Time>,
    masks: Vec<u128>,
}

impl Prefix {
    fn new(keys: impl Iterator<Item = Time>) -> Prefix {
        let mut by_key: Vec<(Time, usize)> = keys.enumerate().map(|(k, t)| (t, k)).collect();
        by_key.sort_unstable();
        let mut prefix = Prefix {
            keys: Vec::new(),
            masks: Vec::new(),
        };
        let mut acc = 0u128;
        for (t, k) in by_key {
            if prefix.keys.last() != Some(&t) {
                prefix.keys.push(t);
                prefix.masks.push(acc);
            }
            acc |= 1 << k;
        }
        prefix.masks.push(acc);
        prefix
    }

    /// The number of distinct keys `≤ t`.
    fn count_le(&self, t: Time) -> usize {
        self.keys.partition_point(|&k| k <= t)
    }

    /// The ranks with key `≤ t`.
    fn le(&self, t: Time) -> u128 {
        self.masks[self.count_le(t)]
    }

    /// The ranks with key `< t`.
    fn lt(&self, t: Time) -> u128 {
        self.masks[self.keys.partition_point(|&k| k < t)]
    }
}

/// The covering search over unserved sets (see the module docs).
struct Search {
    /// `(c, p)` per rank.
    jobs: Vec<(Time, Time)>,
    /// Ranks by `r + p`: the ends a job released at or after the start
    /// needs.
    finish: Prefix,
    /// Ranks by release.
    release: Prefix,
    /// Ranks by length.
    length: Prefix,
    /// Per lowest rank: `(unserved set, min cost, right end of its first
    /// interval)`.
    memo: Vec<Vec<(u128, i64, Time)>>,
}

impl Search {
    /// The search over `ranked`, the jobs in rank order.
    fn new(ranked: &[Job]) -> Search {
        Search {
            jobs: ranked
                .iter()
                .map(|j| (j.latest_start(), j.length))
                .collect(),
            finish: Prefix::new(ranked.iter().map(|j| j.release + j.length)),
            release: Prefix::new(ranked.iter().map(|j| j.release)),
            length: Prefix::new(ranked.iter().map(|j| j.length)),
            memo: vec![Vec::new(); ranked.len()],
        }
    }

    /// Start of the interval that serves `mask` first: `c` of the forced
    /// (lowest) job.
    fn start(&self, mask: u128) -> Time {
        self.jobs[mask.trailing_zeros() as usize].0
    }

    /// The jobs of `mask` that fit `[u, v)`: a job fits iff
    /// `max(r, u) + p ≤ v`.
    fn served(&self, mask: u128, u: Time, v: Time) -> u128 {
        let early = self.release.lt(u);
        mask & ((!early & self.finish.le(v)) | (early & self.length.le(v - u)))
    }

    /// Min cost of serving the non-empty `mask` with intervals that
    /// start at or after `start(mask)`, and the right end of the first.
    /// Every set has a cover, so there is no "no cover" cost: a sentinel
    /// would tie with a real span as long as itself.
    fn solve(&mut self, mask: u128) -> (i64, Time) {
        let low = mask.trailing_zeros() as usize;
        if let Some(&(_, cost, v)) = self.memo[low].iter().find(|e| e.0 == mask) {
            return (cost, v);
        }
        let (u, p) = self.jobs[low];
        let early = mask & self.release.lt(u);
        let late = mask & !early;
        // An interval must serve the forced job, so it ends at `u + p`
        // (its deadline) or later; jobs done by then ride along.
        let mut v = u + p;
        let mut fi = self.finish.count_le(v);
        let mut li = self.length.count_le(p);
        let mut best: Option<(i64, Time)> = None;
        let mut last = 0u128;
        // Ends ascend and the rest costs ≥ 0: nothing later is strictly
        // cheaper once `v − u` reaches the best cost.
        while best.is_none_or(|(cost, _)| v - u < cost) {
            let served = (late & self.finish.masks[fi]) | (early & self.length.masks[li]);
            if served != last {
                last = served;
                let rest = mask & !served;
                if rest == 0 {
                    best = Some((v - u, v));
                    break;
                }
                // A rest that starts inside this interval is not a
                // canonical next interval. A cost past `i64` is never the
                // cheapest: the end that serves the whole set is cheaper.
                if self.start(rest) >= v {
                    let cost = self.solve(rest).0.checked_add(v - u);
                    if let Some(cost) = cost.filter(|&c| best.is_none_or(|(b, _)| c < b)) {
                        best = Some((cost, v));
                    }
                }
            }
            // The next end at which a requirement could be met.
            let next_finish = self.finish.keys.get(fi).copied();
            let next_length = self.length.keys.get(li).map(|&q| u.saturating_add(q));
            v = match (next_finish, next_length) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) | (None, Some(a)) => a,
                (None, None) => break,
            };
            while self.finish.keys.get(fi).is_some_and(|&t| t <= v) {
                fi += 1;
            }
            while self.length.keys.get(li).is_some_and(|&q| q <= v - u) {
                li += 1;
            }
        }
        // The last end walked serves the whole set, so a best exists.
        let (cost, v) = best.expect("some end serves every job of the set");
        self.memo[low].push((mask, cost, v));
        (cost, v)
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force optimum over all integer start combinations (the oracle
    /// of [`span_exact`]; exponential in `n` and the horizon).
    fn span_brute_force(inst: &Instance) -> i64 {
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
