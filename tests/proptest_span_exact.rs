//! `span_exact` against a test-only oracle: the `(frontier, unserved set)`
//! covering search it replaced, kept here verbatim.
//!
//! The shipping search memoizes on the unserved set alone, relabels the
//! jobs by `(c_j, j)`, builds each candidate's served set as a prefix OR
//! and stops at the first right end that cannot beat the best cost. None
//! of that may change an answer: on every generated instance the chosen
//! intervals — hence `starts`, `busy`, `cost` and every downstream busy
//! schedule — must be bit-identical to the oracle's, ties included (both
//! pick the smallest optimal right end).
//!
//! Three families: the `busy_flexible` benchmark's shape (n = 100, g = 3,
//! lengths ≤ 16, slack `p/2..=3p/2`, horizon 400), small mixed instances
//! (n ≤ 40, horizon 10–120, lengths ≤ 12, slack `0..=2p`), and
//! interval-only instances (slack 0).

#![allow(clippy::type_complexity)] // the oracle's memo key/value is a documented pair

use abt_busy::{span_exact, SpanPlacement};
use abt_core::{Instance, Interval, IntervalSet, Job, Time};
use proptest::prelude::*;
use std::collections::HashMap;

const INF: i64 = i64::MAX / 4;

/// The oracle: the memoized `(frontier, unserved set)` covering search,
/// returning the chosen intervals and their total length.
fn oracle_intervals(inst: &Instance) -> (Vec<Interval>, i64) {
    let n = inst.len();
    if n == 0 {
        return (vec![], 0);
    }
    let c: Vec<Time> = inst.jobs().iter().map(|j| j.latest_start()).collect();

    struct Ctx<'a> {
        inst: &'a Instance,
        c: Vec<Time>,
        memo: HashMap<(Time, u128), (i64, Option<(Time, Time)>)>,
    }
    impl Ctx<'_> {
        /// Returns (min cost, first interval chosen) for serving `mask`
        /// with all intervals starting at ≥ `frontier`.
        fn solve(&mut self, frontier: Time, mask: u128) -> (i64, Option<(Time, Time)>) {
            if mask == 0 {
                return (0, None);
            }
            if let Some(&hit) = self.memo.get(&(frontier, mask)) {
                return hit;
            }
            // Forced job: smallest c among unserved.
            let jmin = (0..self.inst.len())
                .filter(|&j| mask >> j & 1 == 1)
                .min_by_key(|&j| (self.c[j], j))
                .unwrap();
            let u = self.c[jmin];
            if u < frontier {
                self.memo.insert((frontier, mask), (INF, None));
                return (INF, None);
            }
            // Candidate right endpoints: requirements of unserved jobs.
            let req = |j: usize| -> Time {
                let job = self.inst.job(j);
                job.release.max(u) + job.length
            };
            let vmin = req(jmin);
            let mut cands: Vec<Time> = (0..self.inst.len())
                .filter(|&j| mask >> j & 1 == 1)
                .map(req)
                .filter(|&v| v >= vmin)
                .collect();
            cands.sort_unstable();
            cands.dedup();
            let mut best = (INF, None);
            for &v in &cands {
                let mut served = 0u128;
                for j in 0..self.inst.len() {
                    if mask >> j & 1 == 1 && req(j) <= v {
                        served |= 1 << j;
                    }
                }
                let (rest, _) = self.solve(v, mask & !served);
                if rest < INF {
                    let cost = (v - u) + rest;
                    if cost < best.0 {
                        best = (cost, Some((u, v)));
                    }
                }
            }
            self.memo.insert((frontier, mask), best);
            best
        }
    }

    let mut ctx = Ctx {
        inst,
        c,
        memo: HashMap::new(),
    };
    let full = (1u128 << n) - 1;
    let lo = inst.min_release();
    let (cost, _) = ctx.solve(lo, full);

    // Walk the memo to reconstruct the chosen intervals.
    let mut intervals: Vec<Interval> = Vec::new();
    let mut frontier = lo;
    let mut mask = full;
    while mask != 0 {
        let (_, first) = ctx.solve(frontier, mask);
        let (u, v) = first.expect("non-empty mask yields an interval");
        intervals.push(Interval::new(u, v));
        let mut served = 0u128;
        for j in 0..n {
            if mask >> j & 1 == 1 {
                let job = inst.job(j);
                if job.release.max(u) + job.length <= v {
                    served |= 1 << j;
                }
            }
        }
        mask &= !served;
        frontier = v;
    }
    (intervals, cost)
}

/// The oracle's placement: every job leftmost inside the first chosen
/// interval it fits.
fn oracle(inst: &Instance) -> SpanPlacement {
    let (intervals, cost) = oracle_intervals(inst);
    let starts: Vec<Time> = inst
        .jobs()
        .iter()
        .map(|job| {
            let iv = intervals
                .iter()
                .find(|iv| job.release.max(iv.start) + job.length <= job.deadline.min(iv.end))
                .expect("every job fits a chosen interval");
            job.release.max(iv.start)
        })
        .collect();
    let busy: IntervalSet = inst
        .jobs()
        .iter()
        .zip(&starts)
        .map(|(job, &s)| Interval::new(s, s + job.length))
        .collect();
    assert_eq!(busy.measure(), cost, "placed union must match the optimum");
    SpanPlacement {
        starts,
        busy,
        cost,
        exact: true,
    }
}

fn check(inst: &Instance) -> Result<(), TestCaseError> {
    let got = span_exact(inst).expect("n ≤ 127");
    let want = oracle(inst);
    prop_assert_eq!(&got.starts, &want.starts);
    prop_assert_eq!(&got.busy, &want.busy);
    prop_assert_eq!(got.cost, want.cost);
    prop_assert_eq!(got.exact, want.exact);
    Ok(())
}

/// Jobs from raw `(p, slack seed, release seed)` draws: the slack falls
/// in the inclusive range `slack(p)`, and the release is uniform so the
/// window ends by `horizon` when it fits, at 0 otherwise.
fn jobs_from(
    draws: &[(i64, u64, u64)],
    horizon: i64,
    slack: impl Fn(i64) -> (i64, i64),
) -> Vec<Job> {
    draws
        .iter()
        .map(|&(p, s, r)| {
            let (lo, hi) = slack(p);
            let w = p + lo + (s % (hi - lo + 1) as u64) as i64;
            let r = (r % ((horizon - w).max(0) + 1) as u64) as i64;
            Job::new(r, r + w, p)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matches_oracle_on_benchmark_shaped_instances(
        draws in proptest::collection::vec((1i64..17, 0u64..1 << 32, 0u64..1 << 32), 100),
    ) {
        let jobs = jobs_from(&draws, 400, |p| (p / 2, (3 * p) / 2));
        check(&Instance::new(jobs, 3).unwrap())?;
    }

    #[test]
    fn matches_oracle_on_small_mixed_instances(
        draws in proptest::collection::vec((1i64..13, 0u64..1 << 32, 0u64..1 << 32), 1..41),
        horizon in 10i64..121,
        g in 1usize..5,
    ) {
        let jobs = jobs_from(&draws, horizon, |p| (0, 2 * p));
        check(&Instance::new(jobs, g).unwrap())?;
    }

    #[test]
    fn matches_oracle_on_interval_instances(
        draws in proptest::collection::vec((1i64..13, Just(0u64), 0u64..1 << 32), 1..41),
        horizon in 10i64..121,
        g in 1usize..5,
    ) {
        let jobs = jobs_from(&draws, horizon, |_| (0, 0));
        check(&Instance::new(jobs, g).unwrap())?;
    }
}

/// Two right ends tie on cost: `[2, 4)` then `[18, 20)` and one `[2, 6)`
/// both cost 4. The smaller right end wins, so the second job waits at 18.
#[test]
fn tied_right_ends_pin_the_smaller_one() {
    let inst = Instance::from_triples([(0, 4, 2), (4, 20, 2)], 1).unwrap();
    let p = span_exact(&inst).unwrap();
    assert_eq!(p.cost, 4);
    assert_eq!(p.starts, vec![2, 18]);
    assert_eq!(
        p.busy,
        IntervalSet::from_intervals([Interval::new(2, 4), Interval::new(18, 20)])
    );
    check(&inst).unwrap();
}

#[test]
fn empty_instance_matches_oracle() {
    check(&Instance::new(vec![], 2).unwrap()).unwrap();
}
