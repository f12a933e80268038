//! Preemptive busy time (§4.4): the exact greedy for unbounded `g`
//! (Theorem 6) and the 2-approximation for bounded `g` (Theorem 7).
//!
//! **Unbounded `g`.** The objective reduces to choosing a measurable set
//! `S` of open time minimizing `|S|` subject to
//! `|S ∩ [r_j, d_j)| ≥ p_j` for every job — per-window demand constraints.
//! The paper's greedy repeatedly takes the earliest remaining deadline
//! `d_1`, opens the latest `ℓ_{max,1}` (longest remaining length among
//! deadline-`d_1` jobs) units of still-closed time before `d_1`, schedules
//! every live job maximally inside the newly opened time, contracts it, and
//! repeats; we implement the contraction with an explicit open-set in
//! original coordinates.
//!
//! **Bounded `g`** (Theorem 7). Take the unbounded solution `S_∞`, split
//! its busy region at piece endpoints into interesting intervals, and pack
//! the jobs of each interval onto `⌈n_i/g⌉` machines, at most one of which
//! is non-full. Full machines charge the mass bound, the non-full ones
//! charge `OPT_∞`, giving 2·OPT.

#![allow(clippy::while_let_loop)] // the loop has a mid-body exit condition

use abt_core::{Error, Instance, Interval, IntervalSet, Piece, PreemptiveSchedule, Result, Time};

/// The unbounded-`g` preemptive solution.
#[derive(Debug, Clone)]
pub struct UnboundedPreemptive {
    /// Open time (the busy set).
    pub open: IntervalSet,
    /// Pieces per job (within the open set), covering `p_j` each.
    pub pieces: Vec<Vec<Interval>>,
    /// Total busy time `|open|` — exact `OPT_∞` for preemptive jobs.
    pub cost: i64,
}

/// Theorem 6: exact greedy for unbounded `g`.
pub fn preemptive_unbounded(inst: &Instance) -> UnboundedPreemptive {
    let n = inst.len();
    let mut rem: Vec<i64> = inst.jobs().iter().map(|j| j.length).collect();
    let mut open = IntervalSet::new();
    let mut pieces: Vec<Vec<Interval>> = vec![Vec::new(); n];

    loop {
        // Earliest deadline among unfinished jobs.
        let Some(d1) = (0..n)
            .filter(|&j| rem[j] > 0)
            .map(|j| inst.job(j).deadline)
            .min()
        else {
            break;
        };
        let lmax = (0..n)
            .filter(|&j| rem[j] > 0 && inst.job(j).deadline == d1)
            .map(|j| rem[j])
            .max()
            .unwrap();
        // Open the latest `lmax` closed units before d1.
        let newly = latest_closed(&open, d1, lmax);
        debug_assert_eq!(
            newly.iter().map(Interval::len).sum::<i64>(),
            lmax,
            "deadline-d1 job must fit (its window has enough closed room by feasibility)"
        );
        for &iv in &newly {
            open.insert(iv);
        }
        // Schedule every live unfinished job maximally inside the new time,
        // latest-first (keeps early new time free for earlier-release jobs —
        // any maximal assignment works for the cost argument).
        for j in 0..n {
            if rem[j] == 0 {
                continue;
            }
            let w = inst.job(j).window();
            for iv in newly.iter().rev() {
                if rem[j] == 0 {
                    break;
                }
                if let Some(avail) = iv.intersect(&w) {
                    let take = rem[j].min(avail.len());
                    if take > 0 {
                        // Latest `take` units of the availability.
                        pieces[j].push(Interval::new(avail.end - take, avail.end));
                        rem[j] -= take;
                    }
                }
            }
        }
    }
    let cost = open.measure();
    UnboundedPreemptive { open, pieces, cost }
}

/// The latest `amount` units of time before `deadline` not yet in `open`,
/// as disjoint intervals sorted ascending.
fn latest_closed(open: &IntervalSet, deadline: Time, amount: i64) -> Vec<Interval> {
    let mut out: Vec<Interval> = Vec::new();
    let mut need = amount;
    let mut cursor = deadline;
    // Walk the open components right-to-left from `deadline`.
    let comps = open.components();
    let mut idx = comps.partition_point(|c| c.start < deadline);
    while need > 0 {
        // Closed time reaches back without limit before the first open
        // component; a gap too long for `i64` saturates (it still covers
        // `need`).
        let gap = match idx.checked_sub(1) {
            Some(prev) => cursor.saturating_sub(comps[prev].end).max(0),
            None => need,
        };
        let take = need.min(gap);
        if take > 0 {
            out.push(Interval::new(cursor - take, cursor));
            need -= take;
        }
        if idx == 0 {
            break;
        }
        idx -= 1;
        cursor = comps[idx].start;
    }
    out.sort_unstable();
    out
}

/// Validates an unbounded preemptive solution (window containment and
/// per-job totals).
pub fn validate_unbounded(inst: &Instance, sol: &UnboundedPreemptive) -> Result<()> {
    for (j, ps) in sol.pieces.iter().enumerate() {
        let job = inst.job(j);
        let mut sorted = ps.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            if w[0].end > w[1].start {
                return Err(Error::InvalidSchedule(format!("job {j} pieces overlap")));
            }
        }
        let total: i64 = sorted.iter().map(Interval::len).sum();
        if total != job.length {
            return Err(Error::InvalidSchedule(format!(
                "job {j} got {total} of {} units",
                job.length
            )));
        }
        for p in &sorted {
            if p.start < job.release || p.end > job.deadline {
                return Err(Error::InvalidSchedule(format!(
                    "job {j} piece {p} outside window"
                )));
            }
            if !sol.open.covers(p) {
                return Err(Error::InvalidSchedule(format!(
                    "job {j} piece {p} outside open time"
                )));
            }
        }
    }
    Ok(())
}

/// Theorem 7: 2-approximate preemptive schedule for bounded `g`.
pub fn preemptive_bounded(inst: &Instance) -> PreemptiveSchedule {
    let unbounded = preemptive_unbounded(inst);
    // Interesting boundaries: all piece endpoints.
    let mut cuts: Vec<Time> = unbounded
        .pieces
        .iter()
        .flatten()
        .flat_map(|iv| [iv.start, iv.end])
        .collect();
    cuts.sort_unstable();
    cuts.dedup();

    let mut machines: Vec<Vec<Piece>> = Vec::new();
    for w in cuts.windows(2) {
        let seg = Interval::new(w[0], w[1]);
        if !unbounded.open.covers(&seg) {
            continue;
        }
        // Jobs with a piece covering this segment.
        let active: Vec<usize> = (0..inst.len())
            .filter(|&j| {
                unbounded.pieces[j]
                    .iter()
                    .any(|p| p.contains_interval(&seg))
            })
            .collect();
        // Greedy fill: ⌈|active|/g⌉ fresh machines for this segment.
        for chunk in active.chunks(inst.g()) {
            machines.push(
                chunk
                    .iter()
                    .map(|&j| Piece {
                        job: j,
                        interval: seg,
                    })
                    .collect(),
            );
        }
    }
    PreemptiveSchedule { machines }
}

/// Lower bound for preemptive busy time: `max(⌈mass/g⌉, OPT_∞)` where
/// `OPT_∞` is the exact unbounded preemptive optimum.
pub fn preemptive_lower_bound(inst: &Instance) -> i64 {
    let mass = inst.total_length();
    let g = inst.g() as i64;
    let unbounded = preemptive_unbounded(inst).cost;
    ((mass + g - 1) / g).max(unbounded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use abt_core::within_factor;

    #[test]
    fn single_job_opens_exactly_its_length() {
        let inst = Instance::from_triples([(0, 10, 4)], 1).unwrap();
        let sol = preemptive_unbounded(&inst);
        validate_unbounded(&inst, &sol).unwrap();
        assert_eq!(sol.cost, 4);
        // Opened as late as possible: [6, 10).
        assert_eq!(sol.open.components(), &[Interval::new(6, 10)]);
    }

    #[test]
    fn overlapping_windows_share_open_time() {
        // Jobs (0,10,4) and (2,12,4): greedy opens [6,10) for the first;
        // the second schedules fully inside it → cost 4.
        let inst = Instance::from_triples([(0, 10, 4), (2, 12, 4)], 9).unwrap();
        let sol = preemptive_unbounded(&inst);
        validate_unbounded(&inst, &sol).unwrap();
        assert_eq!(sol.cost, 4);
    }

    #[test]
    fn disjoint_windows_add_up() {
        let inst = Instance::from_triples([(0, 4, 2), (10, 14, 3)], 5).unwrap();
        let sol = preemptive_unbounded(&inst);
        validate_unbounded(&inst, &sol).unwrap();
        assert_eq!(sol.cost, 5);
    }

    #[test]
    fn preemption_splits_around_full_windows() {
        // Job A must use [4,6) (rigid); job B (0,8,4) can reuse [4,6) and
        // extend. Greedy: d1=6 → open [4,6); then B needs 2 more before 8.
        let inst = Instance::from_triples([(4, 6, 2), (0, 8, 4)], 9).unwrap();
        let sol = preemptive_unbounded(&inst);
        validate_unbounded(&inst, &sol).unwrap();
        assert_eq!(sol.cost, 4);
    }

    #[test]
    fn matches_rightmost_covering_oracle() {
        // Exactness (Theorem 6): compare with a tick-level rightmost greedy
        // on the covering formulation, which is exact for interval demands.
        let mut state = 0x1234u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for trial in 0..40 {
            let n = 1 + next(5) as usize;
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(10) as i64;
                let len = 1 + next(5) as i64;
                let d = r + len + next(6) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples.clone(), 1).unwrap();
            let sol = preemptive_unbounded(&inst);
            validate_unbounded(&inst, &sol).unwrap();
            let oracle = rightmost_cover_cost(&inst);
            assert_eq!(sol.cost, oracle, "trial {trial} on {triples:?}");
        }
    }

    /// Tick-level rightmost greedy for the covering problem
    /// (process deadlines ascending, open rightmost ticks on deficit).
    fn rightmost_cover_cost(inst: &Instance) -> i64 {
        use std::collections::BTreeSet;
        let mut ids = inst.ids_by_deadline();
        ids.sort_by_key(|&j| (inst.job(j).deadline, inst.job(j).release));
        let mut open: BTreeSet<Time> = BTreeSet::new();
        for j in ids {
            let job = inst.job(j);
            let have = open.range(job.release..job.deadline).count() as i64;
            let mut deficit = job.length - have;
            let mut t = job.deadline - 1;
            while deficit > 0 {
                if open.insert(t) {
                    deficit -= 1;
                }
                t -= 1;
            }
        }
        open.len() as i64
    }

    #[test]
    fn bounded_schedule_is_valid_and_two_approx() {
        let mut state = 0x7777u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        for _ in 0..25 {
            let n = 2 + next(6) as usize;
            let g = 1 + next(3) as usize;
            let mut triples = Vec::new();
            for _ in 0..n {
                let r = next(10) as i64;
                let len = 1 + next(5) as i64;
                let d = r + len + next(6) as i64;
                triples.push((r, d, len));
            }
            let inst = Instance::from_triples(triples, g).unwrap();
            let sched = preemptive_bounded(&inst);
            sched.validate(&inst).unwrap();
            let lb = preemptive_lower_bound(&inst);
            assert!(
                within_factor(sched.total_busy_time(), 2, lb),
                "preemptive bounded exceeded 2×LB"
            );
        }
    }
}
